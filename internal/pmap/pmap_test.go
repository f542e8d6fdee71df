package pmap

import (
	"cmp"
	"encoding/binary"
	"math/rand"
	"sort"
	"testing"
)

// version is one Map value taken from an operation sequence, with the
// reference contents it must keep reading forever, in key order.
type version struct {
	m          Map[int, int]
	keys, vals []int
}

// machine drives a Map and a plain Go map reference through the same
// operations, snapshotting both after the operations asked to.
type machine struct {
	t        testing.TB
	m        Map[int, int]
	ref      map[int]int
	versions []version
}

func newMachine(t testing.TB) *machine {
	return &machine{t: t, m: New[int, int](cmp.Compare[int]), ref: map[int]int{}}
}

// step applies one operation, takes a version with Clone when snap is
// set, then checks the live map and every version taken so far against
// their references. Operations between versions write nodes the live map
// already owns in place; the versions must not see those writes.
func (mc *machine) step(op byte, k, v, span int, snap bool) {
	t := mc.t
	t.Helper()
	switch op % 5 {
	case 0: // set
		old, replaced := mc.m.Set(k, v)
		want, had := mc.ref[k]
		if replaced != had || old != want {
			t.Fatalf("Set(%d) = (%d, %v), reference (%d, %v)", k, old, replaced, want, had)
		}
		mc.ref[k] = v
	case 1: // delete
		old, ok := mc.m.Delete(k)
		want, had := mc.ref[k]
		if ok != had || old != want {
			t.Fatalf("Delete(%d) = (%d, %v), reference (%d, %v)", k, old, ok, want, had)
		}
		delete(mc.ref, k)
	case 2: // set a run of keys, so trees grow several levels deep
		for i := k; i < k+span; i++ {
			mc.m.Set(i, v)
			mc.ref[i] = v
		}
	case 3: // delete a run of keys, so nodes underflow and merge
		for i := k; i < k+span; i++ {
			mc.m.Delete(i)
			delete(mc.ref, i)
		}
	case 4: // get and ascend from k against the current reference
		got, ok := mc.m.Get(k)
		want, had := mc.ref[k]
		if ok != had || got != want {
			t.Fatalf("Get(%d) = (%d, %v), reference (%d, %v)", k, got, ok, want, had)
		}
		checkFrom(t, &mc.m, mc.ref, k)
	}
	checkStructure(t, &mc.m)
	live := version{keys: make([]int, 0, len(mc.ref))}
	for k := range mc.ref {
		live.keys = append(live.keys, k)
	}
	sort.Ints(live.keys)
	for _, k := range live.keys {
		live.vals = append(live.vals, mc.ref[k])
	}
	if snap {
		mc.versions = append(mc.versions, version{m: mc.m.Clone(), keys: live.keys, vals: live.vals})
	}
	live.m = mc.m
	checkContents(t, &live, 1)
	for i := range mc.versions {
		checkContents(t, &mc.versions[i], 13)
	}
}

// checkContents asserts a version still holds exactly its reference
// contents: Len, a full Ascend in key order, and Get of every stride-th
// key.
func checkContents(t testing.TB, v *version, stride int) {
	t.Helper()
	if v.m.Len() != len(v.keys) {
		t.Fatalf("Len = %d, reference %d", v.m.Len(), len(v.keys))
	}
	i := 0
	v.m.Ascend(func(k, val int) bool {
		if i >= len(v.keys) || k != v.keys[i] || val != v.vals[i] {
			t.Fatalf("Ascend entry %d = (%d, %d), reference keys %v", i, k, val, v.keys)
		}
		i++
		return true
	})
	if i != len(v.keys) {
		t.Fatalf("Ascend visited %d entries, reference %d", i, len(v.keys))
	}
	for i := 0; i < len(v.keys); i += stride {
		if got, ok := v.m.Get(v.keys[i]); !ok || got != v.vals[i] {
			t.Fatalf("Get(%d) = (%d, %v), reference %d", v.keys[i], got, ok, v.vals[i])
		}
	}
}

// checkFrom asserts AscendFrom(from) visits exactly the reference keys >=
// from in order, and that stopping early stops.
func checkFrom(t testing.TB, m *Map[int, int], ref map[int]int, from int) {
	t.Helper()
	var want []int
	for k := range ref {
		if k >= from {
			want = append(want, k)
		}
	}
	sort.Ints(want)
	var got []int
	m.AscendFrom(from, func(k, _ int) bool {
		got = append(got, k)
		return len(got) < 7
	})
	if len(want) > 7 {
		want = want[:7]
	}
	if len(got) != len(want) {
		t.Fatalf("AscendFrom(%d) = %v, reference %v", from, got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("AscendFrom(%d) = %v, reference %v", from, got, want)
		}
	}
}

// checkStructure asserts the B-tree invariants: item counts within bounds
// (the root excepted), one more child than items, all leaves at one
// depth, and keys strictly increasing in order.
func checkStructure(t testing.TB, m *Map[int, int]) {
	t.Helper()
	if m.root == nil {
		if m.n != 0 {
			t.Fatalf("empty tree with Len %d", m.n)
		}
		return
	}
	leafDepth := -1
	count := 0
	var walk func(n *node[int, int], depth int, lo, hi *int)
	walk = func(n *node[int, int], depth int, lo, hi *int) {
		if n != m.root && (len(n.items) < minItems || len(n.items) > maxItems) {
			t.Fatalf("node with %d items (bounds %d..%d)", len(n.items), minItems, maxItems)
		}
		if n == m.root && len(n.items) == 0 {
			t.Fatal("empty root")
		}
		count += len(n.items)
		for i, it := range n.items {
			if (i > 0 && n.items[i-1].k >= it.k) || (lo != nil && it.k <= *lo) || (hi != nil && it.k >= *hi) {
				t.Fatalf("key %d out of order", it.k)
			}
		}
		if n.children == nil {
			if leafDepth >= 0 && leafDepth != depth {
				t.Fatalf("leaves at depths %d and %d", leafDepth, depth)
			}
			leafDepth = depth
			return
		}
		if len(n.children) != len(n.items)+1 {
			t.Fatalf("%d children for %d items", len(n.children), len(n.items))
		}
		for i, c := range n.children {
			clo, chi := lo, hi
			if i > 0 {
				clo = &n.items[i-1].k
			}
			if i < len(n.items) {
				chi = &n.items[i].k
			}
			walk(c, depth+1, clo, chi)
		}
	}
	walk(m.root, 0, nil, nil)
	if count != m.n {
		t.Fatalf("tree holds %d items, Len %d", count, m.n)
	}
}

// TestPersistentAgainstReference runs random operation sequences against
// a Go map, taking a version after a random third of the operations.
// After every operation, every version taken earlier in the sequence must
// still read exactly its old contents.
func TestPersistentAgainstReference(t *testing.T) {
	seeds, ops := 4, 100
	if testing.Short() {
		seeds, ops = 2, 60
	}
	for seed := 0; seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		mc := newMachine(t)
		for i := 0; i < ops; i++ {
			// Bias towards growth early and shrinkage late, so every
			// sequence builds a multi-level tree and then collapses it.
			op := byte(rng.Intn(5))
			if rng.Intn(3) == 0 {
				if i < ops/2 {
					op = 2
				} else {
					op = 3
				}
			}
			mc.step(op, rng.Intn(2000), rng.Int(), 1+rng.Intn(120), rng.Intn(3) == 0)
		}
	}
}

// TestDeleteToEmptyAndRegrow drains a deep tree key by key, from both
// ends and the middle, checking structure at each step.
func TestDeleteToEmptyAndRegrow(t *testing.T) {
	for _, order := range []string{"ascending", "descending", "shuffled"} {
		m := New[int, int](cmp.Compare[int])
		const n = 3000
		for i := 0; i < n; i++ {
			m.Set(i, i)
		}
		keys := rand.New(rand.NewSource(1)).Perm(n)
		switch order {
		case "ascending":
			sort.Ints(keys)
		case "descending":
			sort.Sort(sort.Reverse(sort.IntSlice(keys)))
		}
		snap := m.Clone()
		for i, k := range keys {
			if _, ok := m.Delete(k); !ok {
				t.Fatalf("%s: Delete(%d) missed", order, k)
			}
			if i%97 == 0 {
				checkStructure(t, &m)
			}
		}
		if m.Len() != 0 || m.root != nil {
			t.Fatalf("%s: drained map has Len %d", order, m.Len())
		}
		if snap.Len() != n {
			t.Fatalf("%s: snapshot Len %d after draining the original", order, snap.Len())
		}
		checkStructure(t, &snap)
		m.Set(5, 5)
		checkStructure(t, &m)
	}
}

// FuzzPMap decodes an operation stream from the input (four bytes per
// operation: opcode, whose high bit takes a version afterwards; key high
// and low byte; run length) and runs it through the same reference
// machine as TestPersistentAgainstReference.
func FuzzPMap(f *testing.F) {
	f.Add([]byte{0x82, 0, 0, 200, 3, 0, 50, 100, 0x84, 0, 60, 0})
	f.Add([]byte{0, 0, 1, 0, 0x80, 0, 2, 0, 1, 0, 1, 0, 4, 0, 0, 0})
	f.Add([]byte{2, 1, 0, 255, 0x82, 0, 0, 255, 3, 0, 100, 255, 0x83, 1, 50, 255, 1, 0, 3, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		mc := newMachine(t)
		for i := 0; i+4 <= len(data) && i < 4*64; i += 4 {
			k := int(binary.BigEndian.Uint16(data[i+1:])) % 1024
			mc.step(data[i]&0x7f, k, i, 1+int(data[i+3]), data[i]&0x80 != 0)
		}
	})
}
