package xmldoc

import (
	"fmt"
	"testing"
)

func genDoc(name string) *Document {
	return NewBuilder(name, "root").Element("leaf", "x").Freeze()
}

func TestStoreGenerations(t *testing.T) {
	s := NewStore()
	if s.Generation() != 0 {
		t.Fatalf("fresh store generation = %d", s.Generation())
	}
	s.Put(genDoc("a.xml"))
	g1 := s.Generation()
	if g1 == 0 {
		t.Fatal("Put did not advance the store generation")
	}
	da1 := s.DocGeneration("a.xml")

	s.Put(genDoc("b.xml"))
	if s.DocGeneration("a.xml") != da1 {
		t.Error("putting b.xml changed a.xml's generation")
	}
	s.Put(genDoc("a.xml"))
	if s.DocGeneration("a.xml") <= da1 {
		t.Error("re-Put did not advance the document generation")
	}
	if s.Generation() <= g1 {
		t.Error("re-Put did not advance the store generation")
	}

	g2 := s.Generation()
	da2 := s.DocGeneration("a.xml")
	s.Remove("a.xml")
	if s.Generation() <= g2 {
		t.Error("Remove did not advance the store generation")
	}
	if s.DocGeneration("a.xml") <= da2 {
		t.Error("Remove did not advance the document generation")
	}
}

func TestStoreSetsOf(t *testing.T) {
	s := NewStore()
	s.Put(genDoc("a.xml"))
	s.Put(genDoc("b.xml"))
	if got := s.SetsOf("a.xml"); got != nil {
		t.Fatalf("SetsOf before membership = %v, want nil", got)
	}
	s.AddToSet("s2", "a.xml")
	s.AddToSet("s1", "a.xml")
	s.AddToSet("s1", "b.xml")
	got := s.SetsOf("a.xml")
	if len(got) != 2 || got[0] != "s1" || got[1] != "s2" {
		t.Fatalf("SetsOf(a.xml) = %v, want [s1 s2] sorted", got)
	}
	if got := s.SetsOf("b.xml"); len(got) != 1 || got[0] != "s1" {
		t.Fatalf("SetsOf(b.xml) = %v, want [s1]", got)
	}
	// The reverse index must agree with the forward one.
	for _, set := range s.SetsOf("a.xml") {
		if !s.SetContains(set, "a.xml") {
			t.Errorf("SetsOf lists %s but SetContains disagrees", set)
		}
	}
}

// TestRemoveUnlinksExactlyItsSets: Remove drops the document from every
// set that contains it and from no other, leaves every other document's
// membership and generation as it was, and leaves a snapshot taken before
// the Remove seeing the old membership.
func TestRemoveUnlinksExactlyItsSets(t *testing.T) {
	s := NewStore()
	for _, name := range []string{"a.xml", "b.xml", "c.xml"} {
		s.Put(genDoc(name))
	}
	s.AddToSet("s1", "a.xml")
	s.AddToSet("s1", "b.xml")
	s.AddToSet("s2", "a.xml")
	s.AddToSet("s3", "b.xml")
	s.AddToSet("s3", "c.xml")
	gb, gc := s.DocGeneration("b.xml"), s.DocGeneration("c.xml")
	before := s.Snapshot()
	defer before.Release()

	s.Remove("a.xml")

	if got := s.SetsOf("a.xml"); got != nil {
		t.Errorf("SetsOf(a.xml) after Remove = %v, want nil", got)
	}
	want := map[string]string{"s1": "[b.xml]", "s2": "[]", "s3": "[b.xml c.xml]"}
	for set, members := range want {
		if got := fmt.Sprint(s.SetMembers(set)); got != members {
			t.Errorf("SetMembers(%s) = %s, want %s", set, got, members)
		}
		if s.SetContains(set, "a.xml") {
			t.Errorf("SetContains(%s, a.xml) after Remove", set)
		}
	}
	if got := fmt.Sprint(s.SetsOf("b.xml")); got != "[s1 s3]" {
		t.Errorf("SetsOf(b.xml) = %s, want [s1 s3]", got)
	}
	if s.DocGeneration("b.xml") != gb || s.DocGeneration("c.xml") != gc {
		t.Error("removing a.xml changed another document's generation")
	}
	if got := fmt.Sprint(before.SetsOf("a.xml")); got != "[s1 s2]" {
		t.Errorf("pre-Remove snapshot SetsOf(a.xml) = %s, want [s1 s2]", got)
	}
	if got := fmt.Sprint(before.SetMembers("s1")); got != "[a.xml b.xml]" {
		t.Errorf("pre-Remove snapshot SetMembers(s1) = %s, want [a.xml b.xml]", got)
	}
}

func TestAddToSetAdvancesGeneration(t *testing.T) {
	s := NewStore()
	s.Put(genDoc("a.xml"))
	g := s.Generation()
	s.AddToSet("s1", "a.xml")
	if s.Generation() <= g {
		t.Error("AddToSet did not advance the store generation")
	}
}

// TestSnapshotUnaffectedByLaterMutations: the MVCC contract — a pinned
// snapshot keeps reporting the (generation, document, membership) state
// it was taken at, no matter what the store does afterwards. This is
// what makes generation-keyed decision caching sound: the generation a
// reader observes and the content it reads come from the same immutable
// version.
func TestSnapshotUnaffectedByLaterMutations(t *testing.T) {
	s := NewStore()
	s.Put(genDoc("a.xml"))
	s.AddToSet("s1", "a.xml")
	sn := s.Snapshot()
	defer sn.Release()
	gen, docGen := sn.Generation(), sn.DocGeneration("a.xml")
	doc, ok := sn.Get("a.xml")
	if !ok {
		t.Fatal("snapshot missing a.xml")
	}

	// Every kind of mutation the store supports.
	s.Put(genDoc("a.xml"))
	s.Put(genDoc("b.xml"))
	s.AddToSet("s2", "a.xml")
	s.Remove("a.xml")

	if s.Generation() <= gen {
		t.Fatal("live store generation did not advance past the snapshot")
	}
	if sn.Generation() != gen {
		t.Errorf("snapshot generation moved: %d -> %d", gen, sn.Generation())
	}
	if sn.DocGeneration("a.xml") != docGen {
		t.Errorf("snapshot doc generation moved: %d -> %d", docGen, sn.DocGeneration("a.xml"))
	}
	if got, ok := sn.Get("a.xml"); !ok || got != doc {
		t.Error("snapshot no longer returns the pinned document object")
	}
	if got := sn.SetsOf("a.xml"); len(got) != 1 || got[0] != "s1" {
		t.Errorf("snapshot SetsOf(a.xml) = %v, want the pinned [s1]", got)
	}
	if sn.Len() != 1 {
		t.Errorf("snapshot Len = %d, want the pinned 1", sn.Len())
	}
	// The live store, meanwhile, reflects all of it.
	if _, ok := s.Get("a.xml"); ok {
		t.Error("live store still has the removed a.xml")
	}
	if _, ok := s.Get("b.xml"); !ok {
		t.Error("live store missing b.xml")
	}
}

// TestSnapshotRetentionAndReclaim: a pinned snapshot keeps exactly its
// version alive; unpinned superseded versions are swept at the next
// install, and releasing the snapshot lets its version go too. Readers
// never block writers — the store keeps installing while the pin is
// held — and retention is bounded by the pins actually outstanding.
func TestSnapshotRetentionAndReclaim(t *testing.T) {
	s := NewStore()
	s.Put(genDoc("a.xml"))
	sn := s.Snapshot()

	// Two installs while pinned: the pinned version is retained, the
	// intermediate (unpinned) one is reclaimed by the writer-driven sweep.
	s.Put(genDoc("b.xml"))
	s.Put(genDoc("c.xml"))
	st := s.VersionStats()
	if st.Retained != 1 {
		t.Fatalf("Retained = %d while one snapshot pinned, want 1", st.Retained)
	}
	if st.Pinned != 1 {
		t.Fatalf("Pinned = %d, want 1", st.Pinned)
	}
	if st.Reclaimed == 0 {
		t.Fatal("intermediate unpinned version was never reclaimed")
	}

	sn.Release()
	s.Put(genDoc("d.xml"))
	st = s.VersionStats()
	if st.Retained != 0 {
		t.Fatalf("Retained = %d after release and install, want 0", st.Retained)
	}
	if st.Pinned != 0 {
		t.Fatalf("Pinned = %d after release, want 0", st.Pinned)
	}
	if st.Installed != st.Reclaimed {
		t.Fatalf("Installed = %d, Reclaimed = %d; all superseded versions should be reclaimed", st.Installed, st.Reclaimed)
	}
}
