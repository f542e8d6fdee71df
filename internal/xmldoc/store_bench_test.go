package xmldoc

import (
	"fmt"
	"testing"
)

// BenchmarkStorePutVsSize times one Store.Put replacing an existing
// document, swept over the store size. Each Put publishes a new version,
// so its cost is the cost of deriving that version from the last one.
func BenchmarkStorePutVsSize(b *testing.B) {
	for _, n := range []int{1_000, 4_000, 16_000} {
		b.Run(fmt.Sprintf("docs=%d", n), func(b *testing.B) {
			s := NewStore()
			docs := make([]*Document, n)
			for i := range docs {
				docs[i] = genDoc(fmt.Sprintf("d%05d.xml", i))
				s.Put(docs[i])
				if i%8 == 0 {
					s.AddToSet(fmt.Sprintf("set%d", i%64), docs[i].Name)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Put(docs[(i*7919)%n])
			}
		})
	}
}
