// Package xmldoc implements the graph-structured XML document model that
// underlies the access control and secure dissemination machinery in this
// repository.
//
// The paper (§3.2) observes that "XML documents have graph structures" and
// that an access control model must "support a wide spectrum of access
// granularity levels, ranging from sets of documents, to single documents,
// to specific portions within a document". This package provides exactly
// that substrate: a DOM-like tree of elements, attributes and text, plus
// the intra-document graph edges induced by ID/IDREF attributes, a small
// path language for addressing portions of documents (see path.go), and a
// canonical serialization used for hashing and signing (see canon.go).
package xmldoc

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"webdbsec/internal/pmap"
	"webdbsec/internal/wal"
)

// NodeKind discriminates the node variants of a document.
type NodeKind int

// Node kinds.
const (
	KindElement NodeKind = iota
	KindAttr
	KindText
)

func (k NodeKind) String() string {
	switch k {
	case KindElement:
		return "element"
	case KindAttr:
		return "attribute"
	case KindText:
		return "text"
	default:
		return fmt.Sprintf("NodeKind(%d)", int(k))
	}
}

// Node is a single node of a document: an element, an attribute, or a text
// segment. Nodes form a tree through Parent/Children and, additionally, a
// graph through IDREF links (see Document.Links).
type Node struct {
	Kind NodeKind

	// Name is the element or attribute name. Empty for text nodes.
	Name string

	// Value is the attribute value or the text content. Empty for elements.
	Value string

	// Parent is nil for the document root.
	Parent *Node

	// Children holds the element and text children of an element, in
	// document order. Attributes are kept separately in Attrs.
	Children []*Node

	// Attrs holds the attribute nodes of an element, sorted by name.
	Attrs []*Node

	// id is the per-document node identifier assigned at build time. It is
	// stable under canonicalization and is what policies and Merkle proofs
	// refer to.
	id int

	doc *Document
}

// ID returns the per-document node identifier. Identifiers are assigned in
// document order, are dense, and start at 0 for the root.
func (n *Node) ID() int { return n.id }

// Document returns the document the node belongs to.
func (n *Node) Document() *Document { return n.doc }

// Attr returns the value of the named attribute and whether it is present.
func (n *Node) Attr(name string) (string, bool) {
	for _, a := range n.Attrs {
		if a.Name == name {
			return a.Value, true
		}
	}
	return "", false
}

// Text returns the concatenation of all text descendants of n in document
// order. For a text node it returns the node's value.
func (n *Node) Text() string {
	if n.Kind == KindText {
		return n.Value
	}
	var b strings.Builder
	var walk func(*Node)
	walk = func(m *Node) {
		if m.Kind == KindText {
			b.WriteString(m.Value)
			return
		}
		for _, c := range m.Children {
			walk(c)
		}
	}
	walk(n)
	return b.String()
}

// Path returns the absolute element path of n, e.g. "/hospital/patient/name".
// Attribute nodes append "/@name"; text nodes use the parent element's path.
func (n *Node) Path() string {
	if n == nil {
		return ""
	}
	switch n.Kind {
	case KindAttr:
		return n.Parent.Path() + "/@" + n.Name
	case KindText:
		return n.Parent.Path()
	}
	if n.Parent == nil {
		return "/" + n.Name
	}
	return n.Parent.Path() + "/" + n.Name
}

// Depth returns the number of ancestors of n.
func (n *Node) Depth() int {
	d := 0
	for p := n.Parent; p != nil; p = p.Parent {
		d++
	}
	return d
}

// IsAncestorOf reports whether n is a proper ancestor of m.
func (n *Node) IsAncestorOf(m *Node) bool {
	for p := m.Parent; p != nil; p = p.Parent {
		if p == n {
			return true
		}
	}
	return false
}

// ElementChildren returns only the element children of n.
func (n *Node) ElementChildren() []*Node {
	var out []*Node
	for _, c := range n.Children {
		if c.Kind == KindElement {
			out = append(out, c)
		}
	}
	return out
}

// Child returns the first element child with the given name, or nil.
func (n *Node) Child(name string) *Node {
	for _, c := range n.Children {
		if c.Kind == KindElement && c.Name == name {
			return c
		}
	}
	return nil
}

// Link is a graph edge induced by an IDREF(S) attribute: the element holding
// the referring attribute points at the element whose ID attribute matches.
type Link struct {
	From *Node // referring element
	Attr string
	To   *Node // referred element
}

// Document is a parsed XML document: a node tree plus the ID index and the
// IDREF link set that give it the graph structure the paper refers to.
type Document struct {
	// Name identifies the document inside a Store (e.g. a file name or URI).
	Name string

	Root *Node

	// nodes indexes nodes by their dense identifier.
	nodes []*Node

	// byXMLID maps the value of "id" attributes to the owning element.
	byXMLID map[string]*Node

	// Links are the IDREF edges, discovered by Freeze.
	Links []Link
}

// NumNodes returns the number of nodes in the document (elements,
// attributes and text segments).
func (d *Document) NumNodes() int { return len(d.nodes) }

// NodeByID returns the node with the given dense identifier, or nil.
func (d *Document) NodeByID(id int) *Node {
	if id < 0 || id >= len(d.nodes) {
		return nil
	}
	return d.nodes[id]
}

// ElementByXMLID returns the element whose id="..." attribute equals v.
func (d *Document) ElementByXMLID(v string) (*Node, bool) {
	n, ok := d.byXMLID[v]
	return n, ok
}

// Nodes returns all nodes in document order. The returned slice must not be
// modified.
func (d *Document) Nodes() []*Node { return d.nodes }

// Walk calls fn for every node in document order, root first. If fn returns
// false for an element, its subtree (including attributes) is skipped.
func (d *Document) Walk(fn func(*Node) bool) {
	var walk func(*Node)
	walk = func(n *Node) {
		if !fn(n) {
			return
		}
		for _, a := range n.Attrs {
			fn(a)
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	if d.Root != nil {
		walk(d.Root)
	}
}

// Builder incrementally constructs a Document. It is the only way to create
// documents programmatically; Parse uses it internally.
type Builder struct {
	doc  *Document
	cur  *Node
	done bool
}

// NewBuilder returns a Builder for a document with the given name and root
// element name.
func NewBuilder(docName, rootName string) *Builder {
	d := &Document{Name: docName, byXMLID: make(map[string]*Node)}
	root := &Node{Kind: KindElement, Name: rootName, doc: d}
	d.Root = root
	return &Builder{doc: d, cur: root}
}

// Begin opens a child element of the current element and descends into it.
func (b *Builder) Begin(name string) *Builder {
	b.mustOpen()
	n := &Node{Kind: KindElement, Name: name, Parent: b.cur, doc: b.doc}
	b.cur.Children = append(b.cur.Children, n)
	b.cur = n
	return b
}

// End closes the current element, ascending to its parent. Ending the root
// is an error caught by Freeze.
func (b *Builder) End() *Builder {
	b.mustOpen()
	if b.cur.Parent != nil {
		b.cur = b.cur.Parent
	}
	return b
}

// Attrib adds an attribute to the current element.
func (b *Builder) Attrib(name, value string) *Builder {
	b.mustOpen()
	a := &Node{Kind: KindAttr, Name: name, Value: value, Parent: b.cur, doc: b.doc}
	b.cur.Attrs = append(b.cur.Attrs, a)
	return b
}

// Text adds a text child to the current element.
func (b *Builder) Text(s string) *Builder {
	b.mustOpen()
	t := &Node{Kind: KindText, Value: s, Parent: b.cur, doc: b.doc}
	b.cur.Children = append(b.cur.Children, t)
	return b
}

// Element is shorthand for Begin(name).Text(text).End().
func (b *Builder) Element(name, text string) *Builder {
	return b.Begin(name).Text(text).End()
}

func (b *Builder) mustOpen() {
	if b.done {
		panic("xmldoc: Builder used after Freeze")
	}
}

// Freeze finalizes the document: it sorts attributes, assigns dense node
// identifiers in document order, indexes id attributes and resolves IDREF
// links. The Builder must not be used afterwards.
func (b *Builder) Freeze() *Document {
	if b.done {
		panic("xmldoc: Freeze called twice")
	}
	b.done = true
	d := b.doc
	d.index()
	return d
}

// index (re)computes dense ids, the XML-ID index and the IDREF link set.
func (d *Document) index() {
	d.nodes = d.nodes[:0]
	d.byXMLID = make(map[string]*Node)
	var walk func(*Node)
	walk = func(n *Node) {
		n.id = len(d.nodes)
		n.doc = d
		d.nodes = append(d.nodes, n)
		sort.SliceStable(n.Attrs, func(i, j int) bool { return n.Attrs[i].Name < n.Attrs[j].Name })
		for _, a := range n.Attrs {
			a.id = len(d.nodes)
			a.doc = d
			d.nodes = append(d.nodes, a)
			if a.Name == "id" {
				d.byXMLID[a.Value] = n
			}
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	if d.Root != nil {
		walk(d.Root)
	}
	// Resolve IDREF links in a second pass, now that byXMLID is complete.
	d.Links = d.Links[:0]
	for _, n := range d.nodes {
		if n.Kind != KindElement {
			continue
		}
		for _, a := range n.Attrs {
			if a.Name != "idref" && a.Name != "idrefs" {
				continue
			}
			for _, ref := range strings.Fields(a.Value) {
				if to, ok := d.byXMLID[ref]; ok {
					d.Links = append(d.Links, Link{From: n, Attr: a.Name, To: to})
				}
			}
		}
	}
}

// Clone returns a deep copy of the document. Node identifiers are preserved.
func (d *Document) Clone() *Document {
	b := &Builder{doc: &Document{Name: d.Name, byXMLID: make(map[string]*Node)}}
	var copyNode func(src *Node, parent *Node) *Node
	copyNode = func(src *Node, parent *Node) *Node {
		n := &Node{Kind: src.Kind, Name: src.Name, Value: src.Value, Parent: parent, doc: b.doc}
		for _, a := range src.Attrs {
			n.Attrs = append(n.Attrs, &Node{Kind: KindAttr, Name: a.Name, Value: a.Value, Parent: n, doc: b.doc})
		}
		for _, c := range src.Children {
			n.Children = append(n.Children, copyNode(c, n))
		}
		return n
	}
	if d.Root != nil {
		b.doc.Root = copyNode(d.Root, nil)
	}
	b.doc.index()
	return b.doc
}

// Prune returns a deep copy of the document retaining only the nodes for
// which keep returns true, together with all their ancestors (so the result
// is a well-formed document). Attributes and text of retained elements are
// kept only if keep accepts them. If the root itself is not retained and no
// descendant is, Prune returns nil.
//
// Prune is the core of Author-X view computation: the access control engine
// marks the authorized nodes and Prune materializes the subject's view.
func (d *Document) Prune(keep func(*Node) bool) *Document {
	retain := make([]bool, len(d.nodes))
	for _, n := range d.nodes {
		if keep(n) {
			// Keep the node and all its ancestors.
			retain[n.id] = true
			for p := n.Parent; p != nil; p = p.Parent {
				retain[p.id] = true
			}
		}
	}
	if d.Root == nil || !retain[d.Root.id] {
		return nil
	}
	out := &Document{Name: d.Name, byXMLID: make(map[string]*Node)}
	var copyNode func(src *Node, parent *Node) *Node
	copyNode = func(src *Node, parent *Node) *Node {
		n := &Node{Kind: src.Kind, Name: src.Name, Value: src.Value, Parent: parent, doc: out}
		for _, a := range src.Attrs {
			if retain[a.id] {
				n.Attrs = append(n.Attrs, &Node{Kind: KindAttr, Name: a.Name, Value: a.Value, Parent: n, doc: out})
			}
		}
		for _, c := range src.Children {
			if retain[c.id] {
				n.Children = append(n.Children, copyNode(c, n))
			}
		}
		return n
	}
	out.Root = copyNode(d.Root, nil)
	out.index()
	return out
}

// Store is a named collection of documents — the "document set" granularity
// of the Author-X policy model. All methods are safe for concurrent use.
//
// Documents themselves are immutable once frozen; "mutating" a document
// means Put-ting a replacement under the same name. The store therefore
// tracks a generation per document name, advanced whenever the name's
// binding changes (Put, Remove) or its set membership changes (AddToSet) —
// exactly the events that can alter an access decision about the document.
// Decision caches (internal/decisioncache) key cached artifacts on it.
//
// Internally the store is multi-versioned: the whole decision-relevant
// state (documents, set membership, generations) lives in an immutable
// storeVersion behind an atomic pointer. Readers load the pointer and
// never take a lock; writers derive a successor that shares the
// predecessor's trees under mu and publish it stamped with the WAL LSN
// of its journal entry, so version order and replication order
// coincide. Snapshot pins a version when a caller needs several reads to
// observe one consistent state.
type Store struct {
	// mu serializes writers (Put, Remove, AddToSet, the replication apply
	// path) and version installation; readers never take it.
	mu sync.Mutex
	// current is the latest published version. Stored under mu; loaded
	// anywhere.
	current atomic.Pointer[storeVersion] // seclint:atomicptr mu
	// retained holds superseded versions until no snapshot pins them.
	retained []*storeVersion // seclint:guardedby mu
	// vstats counts version lifecycle events.
	vstats StoreVersionStats // seclint:guardedby mu
	// w, when set, receives a journal entry for every mutation (see
	// persist.go); err is the sticky journal failure.
	w   *wal.WAL // seclint:guardedby mu
	err error    // seclint:guardedby mu
}

// storeVersion is one immutable state of the store. Its maps are
// persistent B-trees (internal/pmap): a writer derives the successor by
// copying the storeState value, which shares every tree, and each
// mutation then copies only the O(log n) tree nodes it touches. So
// publishing a version costs the same at 16k documents as at 1k, and
// nothing reachable from a published version is ever written again.
type storeVersion struct {
	storeState
	// pins counts snapshots holding this version live.
	pins atomic.Int64
}

type storeState struct {
	// lsn is the WAL LSN of the journal entry that produced this version
	// (0 for genesis and for stores without a durable backend). Every
	// journal entry describes one complete mutation, so a snapshot of the
	// version at LSN n holds exactly the mutations journaled at or below n
	// — the fence and the truncation point of a fuzzy checkpoint coincide.
	lsn     int64
	gen     uint64
	docs    pmap.Map[string, *Document]
	docGens pmap.Map[string, uint64]
	// sets holds (set, document) membership pairs and memberOf the same
	// pairs reversed, (document, set). Both are ordered by the first name,
	// so a set's members, and a document's sets, are one sorted run. The
	// reverse index lets the policy index find set-level policies without
	// scanning all sets.
	sets, memberOf pmap.Map[namePair, struct{}]
}

type namePair struct{ a, b string }

func compareNamePairs(x, y namePair) int {
	if c := strings.Compare(x.a, y.a); c != 0 {
		return c
	}
	return strings.Compare(x.b, y.b)
}

func newStoreVersion() *storeVersion {
	return &storeVersion{storeState: storeState{
		docs:     pmap.New[string, *Document](strings.Compare),
		docGens:  pmap.New[string, uint64](strings.Compare),
		sets:     pmap.New[namePair, struct{}](compareNamePairs),
		memberOf: pmap.New[namePair, struct{}](compareNamePairs),
	}}
}

// freeze ends v's private phase before publication: its maps give up the
// nodes the writer wrote in place, so successors copied from v copy
// before they write.
func (v *storeVersion) freeze() {
	v.docs = v.docs.Clone()
	v.docGens = v.docGens.Clone()
	v.sets = v.sets.Clone()
	v.memberOf = v.memberOf.Clone()
}

// link wires doc into set in both directions. Private versions only.
func (v *storeVersion) link(set, doc string) {
	v.sets.Set(namePair{set, doc}, struct{}{})
	v.memberOf.Set(namePair{doc, set}, struct{}{})
}

// unlinkDoc drops doc from the sets that contain it — exactly those
// memberOf lists. Private versions only.
func (v *storeVersion) unlinkDoc(doc string) {
	for _, set := range v.setsOf(doc) {
		v.sets.Delete(namePair{set, doc})
		v.memberOf.Delete(namePair{doc, set})
	}
}

// bumpDocGen advances the named document's generation and returns it.
// Private versions only.
func (v *storeVersion) bumpDocGen(name string) uint64 {
	g, _ := v.docGens.Get(name)
	v.docGens.Set(name, g+1)
	return g + 1
}

func (v *storeVersion) docGen(name string) uint64 {
	g, _ := v.docGens.Get(name)
	return g
}

func (v *storeVersion) names() []string {
	out := make([]string, 0, v.docs.Len())
	v.docs.Ascend(func(name string, _ *Document) bool {
		out = append(out, name)
		return true
	})
	return out
}

func (v *storeVersion) setContains(set, doc string) bool {
	_, ok := v.sets.Get(namePair{set, doc})
	return ok
}

// setsOf returns the sets containing doc, sorted; nil for none.
func (v *storeVersion) setsOf(doc string) []string {
	return pairRun(&v.memberOf, doc)
}

// setMembers returns the documents of set, sorted; nil for none.
func (v *storeVersion) setMembers(set string) []string {
	return pairRun(&v.sets, set)
}

// pairRun returns the second names of the pairs whose first name is a,
// in order.
func pairRun(m *pmap.Map[namePair, struct{}], a string) []string {
	var out []string
	m.AscendFrom(namePair{a: a}, func(p namePair, _ struct{}) bool {
		if p.a != a {
			return false
		}
		out = append(out, p.b)
		return true
	})
	return out
}

// NewStore returns an empty document store.
//
// seclint:locked s is not yet published; no other goroutine holds a reference before NewStore returns
func NewStore() *Store {
	s := &Store{}
	s.current.Store(newStoreVersion())
	return s
}

// installLocked publishes v as the current version, stamped with the WAL
// LSN of the journal entry that produced it. A zero lsn (no durable
// backend, or a journal failure already recorded in s.err) keeps the
// predecessor's stamp so version LSNs stay monotone. The superseded
// version is retained until no snapshot pins it. Caller holds s.mu.
//
// seclint:locked caller holds s.mu
func (s *Store) installLocked(lsn int64, v *storeVersion) {
	v.freeze()
	cur := s.current.Load()
	if lsn < cur.lsn {
		lsn = cur.lsn
	}
	v.lsn = lsn
	s.current.Store(v)
	s.retained = append(s.retained, cur)
	s.vstats.Installed++
	s.sweepLocked()
}

// sweepLocked drops retained versions no snapshot pins. Writer-driven:
// it runs at every install, so retention is bounded by the lifetime of
// the snapshots actually held. Caller holds s.mu.
//
// seclint:locked caller holds s.mu
func (s *Store) sweepLocked() {
	kept := s.retained[:0]
	for _, v := range s.retained {
		if v.pins.Load() > 0 {
			kept = append(kept, v)
		} else {
			s.vstats.Reclaimed++
		}
	}
	for i := len(kept); i < len(s.retained); i++ {
		s.retained[i] = nil
	}
	s.retained = kept
}

// StoreVersionStats counts version lifecycle events; see
// (*Store).VersionStats.
type StoreVersionStats struct {
	// Installed and Reclaimed count versions published and swept.
	Installed int64
	Reclaimed int64
	// Retained is the number of superseded versions still held for
	// snapshots; Pinned is the total pin count across all live versions.
	Retained int
	Pinned   int64
}

// VersionStats reports version lifecycle counters — test and operational
// visibility into snapshot retention.
func (s *Store) VersionStats() StoreVersionStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.vstats
	st.Retained = len(s.retained)
	for _, v := range s.retained {
		st.Pinned += v.pins.Load()
	}
	st.Pinned += s.current.Load().pins.Load()
	return st
}

// Put adds or replaces a document, advancing its generation.
//
// seclint:exempt document storage below the access-control gate; accessctl.Engine authorizes before the store mutates
func (s *Store) Put(d *Document) {
	s.mu.Lock()
	defer s.mu.Unlock()
	v := &storeVersion{storeState: s.current.Load().storeState}
	v.docs.Set(d.Name, d)
	v.gen++
	lsn := s.journalLocked(&storeJournal{
		Op: "put", Doc: d.Name, XML: d.Canonical(),
		Gen: v.gen, DocGen: v.bumpDocGen(d.Name),
	})
	s.installLocked(lsn, v)
}

// Get returns the named document.
//
// seclint:exempt document storage below the access-control gate; accessctl.Engine computes authorized views above it
func (s *Store) Get(name string) (*Document, bool) {
	return s.current.Load().docs.Get(name)
}

// Remove deletes the named document and drops it from every set, advancing
// the document's generation.
//
// seclint:exempt document storage below the access-control gate; accessctl.Engine authorizes before the store mutates
func (s *Store) Remove(name string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	v := &storeVersion{storeState: s.current.Load().storeState}
	v.docs.Delete(name)
	v.unlinkDoc(name)
	v.gen++
	lsn := s.journalLocked(&storeJournal{
		Op: "remove", Doc: name, Gen: v.gen, DocGen: v.bumpDocGen(name),
	})
	s.installLocked(lsn, v)
}

// Len returns the number of documents in the store.
func (s *Store) Len() int {
	return s.current.Load().docs.Len()
}

// Generation returns the store-wide mutation counter: it advances on every
// Put, Remove and AddToSet and never repeats.
func (s *Store) Generation() uint64 {
	return s.current.Load().gen
}

// DocGeneration returns the named document's generation: it advances
// whenever the name's binding or set membership changes, and is 0 for
// names the store has never seen. Together with the name it identifies an
// exact decision-relevant state of the document, so caches keyed on
// (name, generation) are invalidated precisely — mutating one document
// does not disturb cached artifacts of any other.
func (s *Store) DocGeneration(name string) uint64 {
	return s.current.Load().docGen(name)
}

// Names returns the document names in sorted order.
func (s *Store) Names() []string {
	return s.current.Load().names()
}

// AddToSet places a document into a named document set, creating the set if
// needed. The document need not exist yet. Membership changes advance the
// document's generation (set-level policies may now cover it).
//
// seclint:exempt set administration on the trusted setup path, not a data entry point
func (s *Store) AddToSet(set, doc string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	v := &storeVersion{storeState: s.current.Load().storeState}
	v.link(set, doc)
	v.gen++
	lsn := s.journalLocked(&storeJournal{
		Op: "addset", Doc: doc, Set: set, Gen: v.gen, DocGen: v.bumpDocGen(doc),
	})
	s.installLocked(lsn, v)
}

// SetContains reports whether the named set contains the document.
func (s *Store) SetContains(set, doc string) bool {
	return s.current.Load().setContains(set, doc)
}

// SetsOf returns the names of the sets containing the document, sorted.
// It returns nil for documents in no set.
func (s *Store) SetsOf(doc string) []string {
	return s.current.Load().setsOf(doc)
}

// SetMembers returns the sorted document names of a set.
func (s *Store) SetMembers(set string) []string {
	return s.current.Load().setMembers(set)
}

// StoreSnapshot is a pinned, immutable view of the store at one version.
// Every method observes the same state: a decision evaluated against a
// snapshot sees documents, set membership and generations that all belong
// to one point in the mutation order, no matter how many writers commit
// meanwhile. Release it when done so the version can be reclaimed;
// reads are lock-free throughout.
type StoreSnapshot struct {
	v        *storeVersion
	released atomic.Bool
}

// Snapshot pins the current version and returns a consistent read view.
func (s *Store) Snapshot() *StoreSnapshot {
	for {
		v := s.current.Load()
		v.pins.Add(1)
		// A writer may have published a successor between the load and the
		// pin; re-check so the pin provably lands on a version that was
		// current while pinned.
		if s.current.Load() == v {
			return &StoreSnapshot{v: v}
		}
		v.pins.Add(-1)
	}
}

// Release unpins the snapshot. Safe to call more than once.
func (sn *StoreSnapshot) Release() {
	if sn.released.CompareAndSwap(false, true) {
		sn.v.pins.Add(-1)
	}
}

// LSN returns the WAL LSN of the journal entry that produced the pinned
// version (0 for genesis or an in-memory store).
func (sn *StoreSnapshot) LSN() int64 { return sn.v.lsn }

// Get returns the named document as of the snapshot.
//
// seclint:exempt document storage below the access-control gate; accessctl.Engine computes authorized views above it
func (sn *StoreSnapshot) Get(name string) (*Document, bool) {
	return sn.v.docs.Get(name)
}

// Len returns the number of documents as of the snapshot.
func (sn *StoreSnapshot) Len() int { return sn.v.docs.Len() }

// Generation returns the store-wide mutation counter as of the snapshot.
func (sn *StoreSnapshot) Generation() uint64 { return sn.v.gen }

// DocGeneration returns the named document's generation as of the
// snapshot.
func (sn *StoreSnapshot) DocGeneration(name string) uint64 {
	return sn.v.docGen(name)
}

// Names returns the document names in sorted order as of the snapshot.
func (sn *StoreSnapshot) Names() []string { return sn.v.names() }

// SetContains reports whether the named set contains the document as of
// the snapshot.
func (sn *StoreSnapshot) SetContains(set, doc string) bool {
	return sn.v.setContains(set, doc)
}

// SetsOf returns the names of the sets containing the document as of the
// snapshot, sorted; nil for documents in no set.
func (sn *StoreSnapshot) SetsOf(doc string) []string {
	return sn.v.setsOf(doc)
}

// SetMembers returns the sorted document names of a set as of the
// snapshot.
func (sn *StoreSnapshot) SetMembers(set string) []string {
	return sn.v.setMembers(set)
}
