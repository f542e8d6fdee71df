package reldb

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"webdbsec/internal/pmap"
)

// Table is a heap of rows with optional hash and ordered indexes. Rows are
// addressed by a stable rowID (never reused), which the transaction layer
// uses for write sets and locks.
//
// Rows and index entries live in persistent B-trees (internal/pmap), so a
// table state is a handful of tree roots. A table reachable from a
// published dbVersion is frozen — immutable forever — and all reads on it
// are lock-free. Mutation happens only on private working copies (a
// transaction's write set, recovery staging, a follower's apply overlay)
// that exactly one goroutine owns: clone shares every tree with the frozen
// original, and each Insert, Update or Delete copies only the O(log n)
// tree nodes on its path, so a commit costs the same at 100k rows as at
// 1k. Committing freezes the copy and installs it into a new version. The
// frozen flag turns a violation of that ownership discipline into a panic
// instead of a data race.
type Table struct {
	Name   string
	Schema Schema

	// frozen marks the table immutable: it is reachable from a published
	// version and may be read by any number of goroutines, but never
	// written again.
	frozen bool

	rows   pmap.Map[int64, Row]
	nextID int64

	indexes []index
}

// index maps (column value, rowID) pairs, in value order, for one column.
// Both index kinds share the structure; the kind decides which predicates
// the planner serves from it: equality for hash indexes, ranges for
// ordered ones.
type index struct {
	name    string
	col     int
	ordered bool
	entries pmap.Map[indexKey, struct{}]
}

type indexKey struct {
	v  Value
	id int64
}

func compareIndexKeys(a, b indexKey) int {
	if c := Compare(a.v, b.v); c != 0 {
		return c
	}
	return cmp.Compare(a.id, b.id)
}

// NewTable creates an empty, unfrozen table.
func NewTable(name string, schema Schema) *Table {
	return &Table{Name: name, Schema: schema, rows: pmap.New[int64, Row](cmp.Compare[int64])}
}

// freeze marks the table immutable and returns it. Its trees give up the
// nodes the working copy wrote in place, so later clones copy before
// they write.
func (t *Table) freeze() *Table {
	t.frozen = true
	t.rows = t.rows.Clone()
	for i := range t.indexes {
		t.indexes[i].entries = t.indexes[i].entries.Clone()
	}
	return t
}

// clone returns a private, unfrozen copy the caller may mutate. It shares
// the row and index trees with the original: the copy's mutations copy
// the tree nodes they touch, so the original never changes.
func (t *Table) clone() *Table {
	c := *t
	c.frozen = false
	c.rows = t.rows.Clone()
	c.indexes = append([]index(nil), t.indexes...)
	for i := range c.indexes {
		c.indexes[i].entries = t.indexes[i].entries.Clone()
	}
	return &c
}

// mutable panics when the table is frozen — the copy-on-write discipline
// guard (a frozen table may be shared by any number of readers).
func (t *Table) mutable() {
	if t.frozen {
		panic("reldb: write to frozen table " + t.Name + " (mutate a working copy instead)")
	}
}

// CreateHashIndex builds a hash index on the column, indexing existing
// rows. Only legal on a private working copy.
func (t *Table) CreateHashIndex(col string) error {
	return t.createIndex(col, false)
}

// CreateOrderedIndex builds an ordered index on the column. Only legal on
// a private working copy.
func (t *Table) CreateOrderedIndex(col string) error {
	return t.createIndex(col, true)
}

func (t *Table) createIndex(col string, ordered bool) error {
	t.mutable()
	ci := t.Schema.ColIndex(col)
	if ci < 0 {
		return fmt.Errorf("reldb: table %s has no column %s", t.Name, col)
	}
	idx := index{name: col, col: ci, ordered: ordered, entries: pmap.New[indexKey, struct{}](compareIndexKeys)}
	t.rows.Ascend(func(id int64, r Row) bool {
		idx.entries.Set(indexKey{r[ci], id}, struct{}{})
		return true
	})
	if i := t.findIndex(col, ordered); i >= 0 {
		t.indexes[i] = idx
	} else {
		t.indexes = append(t.indexes, idx)
	}
	return nil
}

// findIndex returns the position of the column's index of the given kind,
// or -1.
func (t *Table) findIndex(col string, ordered bool) int {
	for i := range t.indexes {
		if t.indexes[i].name == col && t.indexes[i].ordered == ordered {
			return i
		}
	}
	return -1
}

// reindex moves the row's entry in every index from its old row to its
// new one; a nil old row only adds, a nil new row only drops. An index
// whose column value is unchanged is left alone.
func (t *Table) reindex(id int64, old, r Row) {
	for i := range t.indexes {
		idx := &t.indexes[i]
		if old != nil && r != nil && old[idx.col] == r[idx.col] {
			continue
		}
		if old != nil {
			idx.entries.Delete(indexKey{old[idx.col], id})
		}
		if r != nil {
			idx.entries.Set(indexKey{r[idx.col], id}, struct{}{})
		}
	}
}

// Insert adds a row and returns its rowID. Only legal on a private working
// copy.
//
// seclint:exempt physical row storage; grants and row policies are enforced by SecureDB above the engine
func (t *Table) Insert(r Row) (int64, error) {
	t.mutable()
	if err := t.Schema.CheckRow(r); err != nil {
		return 0, err
	}
	t.nextID++
	t.insertAt(t.nextID, r)
	return t.nextID, nil
}

// insertAt stores a row under a specific id (Insert, and the
// recovery/replica path).
func (t *Table) insertAt(id int64, r Row) {
	t.mutable()
	r = r.Clone()
	t.rows.Set(id, r)
	if id > t.nextID {
		t.nextID = id
	}
	t.reindex(id, nil, r)
}

// Get returns a copy of the row with the given id. Lock-free.
//
// seclint:exempt physical row storage; grants and row policies are enforced by SecureDB above the engine
func (t *Table) Get(id int64) (Row, bool) {
	r, ok := t.rows.Get(id)
	if !ok {
		return nil, false
	}
	return r.Clone(), true
}

// Update replaces the row with the given id, returning the old row. Only
// legal on a private working copy.
//
// seclint:exempt physical row storage; grants and row policies are enforced by SecureDB above the engine
func (t *Table) Update(id int64, r Row) (Row, error) {
	t.mutable()
	if err := t.Schema.CheckRow(r); err != nil {
		return nil, err
	}
	old, ok := t.rows.Get(id)
	if !ok {
		return nil, fmt.Errorf("reldb: table %s has no row %d", t.Name, id)
	}
	r = r.Clone()
	t.rows.Set(id, r)
	t.reindex(id, old, r)
	return old, nil
}

// Delete removes the row with the given id, returning the old row. Only
// legal on a private working copy.
//
// seclint:exempt physical row storage; grants and row policies are enforced by SecureDB above the engine
func (t *Table) Delete(id int64) (Row, error) {
	t.mutable()
	old, ok := t.rows.Delete(id)
	if !ok {
		return nil, fmt.Errorf("reldb: table %s has no row %d", t.Name, id)
	}
	t.reindex(id, old, nil)
	return old, nil
}

// Len returns the number of rows. Lock-free.
func (t *Table) Len() int {
	return t.rows.Len()
}

// Scan calls fn for every (rowID, row) pair in rowID order until fn
// returns false; fn must not mutate the row. Lock-free: on a frozen table
// the iteration sees exactly the version's state no matter what commits
// concurrently.
//
// seclint:exempt physical row storage; grants and row policies are enforced by SecureDB above the engine
func (t *Table) Scan(fn func(id int64, r Row) bool) {
	t.rows.Ascend(fn)
}

// LookupEq uses a hash index (if present) to find rowIDs whose column
// equals v, in rowID order; ok is false when no usable index exists.
// Lock-free.
func (t *Table) LookupEq(col string, v Value) (ids []int64, ok bool) {
	i := t.findIndex(col, false)
	if i < 0 {
		return nil, false
	}
	// Equal values are adjacent and ordered by rowID within the run.
	t.indexes[i].entries.AscendFrom(indexKey{v, math.MinInt64}, func(k indexKey, _ struct{}) bool {
		if Compare(k.v, v) != 0 {
			return false
		}
		ids = append(ids, k.id)
		return true
	})
	return ids, true
}

// LookupRange uses an ordered index to find rowIDs with lo <= col <= hi,
// in rowID order; nil bounds are open. ok is false when no ordered index
// exists. Lock-free.
func (t *Table) LookupRange(col string, lo, hi *Value) (ids []int64, ok bool) {
	i := t.findIndex(col, true)
	if i < 0 {
		return nil, false
	}
	collect := func(k indexKey, _ struct{}) bool {
		if hi != nil && Compare(k.v, *hi) > 0 {
			return false
		}
		ids = append(ids, k.id)
		return true
	}
	if lo != nil {
		t.indexes[i].entries.AscendFrom(indexKey{*lo, math.MinInt64}, collect)
	} else {
		t.indexes[i].entries.Ascend(collect)
	}
	slices.Sort(ids)
	return ids, true
}

// HasHashIndex reports whether the column has a hash index. Lock-free.
func (t *Table) HasHashIndex(col string) bool {
	return t.findIndex(col, false) >= 0
}

// HasOrderedIndex reports whether the column has an ordered index.
// Lock-free.
func (t *Table) HasOrderedIndex(col string) bool {
	return t.findIndex(col, true) >= 0
}
