// Package pmap is a persistent ordered map: a B-tree whose mutations copy
// only the nodes on the path from the root to the change (path copying)
// and share every other node with the versions they started from.
//
// Clone takes an O(1) snapshot. Afterwards the snapshot keeps reading
// exactly the contents it had however the original is mutated, and vice
// versa: a Map writes only nodes it copied itself since its last Clone
// (tagged with its owner token, as in google/btree's copy-on-write
// context), and copies any other node before writing it. So a run of
// mutations between snapshots — a bulk load, a recovery replay — copies
// each node at most once, while a single mutation after a snapshot
// copies the O(log n) nodes on its path.
//
// Copying a Map by assignment does not take a snapshot once the Map has
// been mutated: both copies would write the nodes it owns. Take versions
// with Clone. Reads never write, so any number of goroutines may read a
// snapshot while another goroutine mutates the Map it came from.
//
// Iteration is in key order, so ordered scans need no collect-and-sort.
package pmap

// degree is the B-tree's minimum degree: every node but the root holds
// between minItems and maxItems items. 16 keeps a path copy under 1 KiB
// per level for small items, and 100k keys within five levels.
const (
	degree   = 16
	maxItems = 2*degree - 1
	minItems = degree - 1
)

// Map is a persistent ordered map from K to V. The zero Map is not
// usable; construct one with New.
type Map[K, V any] struct {
	root *node[K, V]
	n    int
	cmp  func(a, b K) int
	// owner tags the nodes this Map copied since its last Clone; only
	// those may be written in place. Nil until the first mutation.
	owner *owner
}

// owner is an identity token. It has non-zero size so that every
// allocation is a distinct pointer.
type owner struct{ _ byte }

type item[K, V any] struct {
	k K
	v V
}

// node is written only by the Map whose owner token it carries, and only
// until that Map's next Clone.
type node[K, V any] struct {
	items    []item[K, V]
	children []*node[K, V] // nil for leaves; len(items)+1 otherwise
	owner    *owner
}

// New returns an empty map ordered by cmp, which must be a strict weak
// order returning a negative, zero or positive result.
func New[K, V any](cmp func(a, b K) int) Map[K, V] {
	return Map[K, V]{cmp: cmp}
}

// Clone returns a snapshot of m in O(1). From then on m and the snapshot
// share every node, and each copies a shared node before writing it.
func (m *Map[K, V]) Clone() Map[K, V] {
	if m.owner != nil {
		m.owner = nil
	}
	return *m
}

// Len returns the number of keys.
func (m *Map[K, V]) Len() int { return m.n }

// Get returns the value stored under k.
func (m *Map[K, V]) Get(k K) (v V, ok bool) {
	for n := m.root; n != nil; {
		i, found := m.search(n, k)
		if found {
			return n.items[i].v, true
		}
		if n.children == nil {
			break
		}
		n = n.children[i]
	}
	return v, false
}

// Set stores v under k and returns the value it replaced, if any.
func (m *Map[K, V]) Set(k K, v V) (old V, replaced bool) {
	if m.root == nil {
		m.root = &node[K, V]{items: []item[K, V]{{k, v}}, owner: m.own()}
		m.n = 1
		return old, false
	}
	root := m.writable(m.root)
	if len(root.items) == maxItems {
		mid, right := root.split()
		root = &node[K, V]{items: []item[K, V]{mid}, children: []*node[K, V]{root, right}, owner: root.owner}
	}
	old, replaced = m.insert(root, k, v)
	m.root = root
	if !replaced {
		m.n++
	}
	return old, replaced
}

// insert stores (k, v) in the subtree under n, a writable node. Full
// children are split on the way down, so a leaf always has room.
func (m *Map[K, V]) insert(n *node[K, V], k K, v V) (old V, replaced bool) {
	for {
		i, found := m.search(n, k)
		if found {
			old, n.items[i].v = n.items[i].v, v
			return old, true
		}
		if n.children == nil {
			n.items = insertAt(n.items, i, item[K, V]{k, v})
			return old, false
		}
		child := m.writable(n.children[i])
		n.children[i] = child
		if len(child.items) == maxItems {
			mid, right := child.split()
			n.items = insertAt(n.items, i, mid)
			n.children = insertAt(n.children, i+1, right)
			switch c := m.cmp(k, mid.k); {
			case c == 0:
				old, n.items[i].v = n.items[i].v, v
				return old, true
			case c > 0:
				child = right
			}
		}
		n = child
	}
}

// Delete removes k and returns the value it held, if any. Deleting a
// missing key copies nothing.
func (m *Map[K, V]) Delete(k K) (old V, ok bool) {
	if _, ok := m.Get(k); !ok {
		return old, false
	}
	root := m.writable(m.root)
	out := m.remove(root, k, false)
	if len(root.items) == 0 {
		if root.children == nil {
			root = nil
		} else {
			root = root.children[0]
		}
	}
	m.root = root
	m.n--
	return out.v, true
}

// remove deletes k (or, with max set, the largest key) from the subtree
// under n, a writable node, and returns the removed item. The key is known
// to be present. A child is topped up above minItems before the descent,
// so the leaf removal at the bottom never underflows.
func (m *Map[K, V]) remove(n *node[K, V], k K, max bool) item[K, V] {
	for {
		i, found := len(n.items), false
		if !max {
			i, found = m.search(n, k)
		}
		if n.children == nil {
			if max {
				i = len(n.items) - 1
			}
			out := n.items[i]
			n.items = removeAt(n.items, i)
			return out
		}
		if len(n.children[i].items) <= minItems {
			m.grow(n, i)
			continue
		}
		child := m.writable(n.children[i])
		n.children[i] = child
		if found {
			// Replace the separator with its predecessor, the largest key
			// of the left subtree.
			out := n.items[i]
			n.items[i] = m.remove(child, k, true)
			return out
		}
		n = child
	}
}

// grow gives n.children[i] more than minItems items by moving one item
// through n from a sibling that can spare it, or else by merging the
// child with a sibling and the separator between them. n is writable;
// every other node written is made writable first.
func (m *Map[K, V]) grow(n *node[K, V], i int) {
	switch {
	case i > 0 && len(n.children[i-1].items) > minItems:
		child, left := m.writable(n.children[i]), m.writable(n.children[i-1])
		n.children[i], n.children[i-1] = child, left
		last := len(left.items) - 1
		child.items = insertAt(child.items, 0, n.items[i-1])
		n.items[i-1] = left.items[last]
		left.items = removeAt(left.items, last)
		if left.children != nil {
			child.children = insertAt(child.children, 0, left.children[last+1])
			left.children = removeAt(left.children, last+1)
		}
	case i < len(n.items) && len(n.children[i+1].items) > minItems:
		child, right := m.writable(n.children[i]), m.writable(n.children[i+1])
		n.children[i], n.children[i+1] = child, right
		child.items = append(child.items, n.items[i])
		n.items[i] = right.items[0]
		right.items = removeAt(right.items, 0)
		if right.children != nil {
			child.children = append(child.children, right.children[0])
			right.children = removeAt(right.children, 0)
		}
	default:
		if i == len(n.items) {
			i--
		}
		child, right := m.writable(n.children[i]), n.children[i+1]
		child.items = append(child.items, n.items[i])
		child.items = append(child.items, right.items...)
		if child.children != nil {
			child.children = append(child.children, right.children...)
		}
		n.items = removeAt(n.items, i)
		n.children = removeAt(n.children, i+1)
		n.children[i] = child
	}
}

// Ascend calls fn for every entry in key order until fn returns false.
func (m *Map[K, V]) Ascend(fn func(k K, v V) bool) {
	if m.root != nil {
		m.ascend(m.root, nil, fn)
	}
}

// AscendFrom calls fn in key order for every entry whose key is >= from,
// until fn returns false.
func (m *Map[K, V]) AscendFrom(from K, fn func(k K, v V) bool) {
	if m.root != nil {
		m.ascend(m.root, &from, fn)
	}
}

func (m *Map[K, V]) ascend(n *node[K, V], from *K, fn func(k K, v V) bool) bool {
	i := 0
	if from != nil {
		i, _ = m.search(n, *from)
	}
	for ; i <= len(n.items); i++ {
		if n.children != nil {
			if !m.ascend(n.children[i], from, fn) {
				return false
			}
			// Every later child and item is above items[i] >= from.
			from = nil
		}
		if i < len(n.items) && !fn(n.items[i].k, n.items[i].v) {
			return false
		}
	}
	return true
}

// search returns the index of the first item whose key is >= k, and
// whether that key equals k.
func (m *Map[K, V]) search(n *node[K, V], k K) (int, bool) {
	lo, hi := 0, len(n.items)
	for lo < hi {
		h := int(uint(lo+hi) >> 1)
		if m.cmp(n.items[h].k, k) < 0 {
			lo = h + 1
		} else {
			hi = h
		}
	}
	return lo, lo < len(n.items) && m.cmp(n.items[lo].k, k) == 0
}

// own returns m's owner token, minting one if m has none.
func (m *Map[K, V]) own() *owner {
	if m.owner == nil {
		m.owner = new(owner)
	}
	return m.owner
}

// writable returns n if m owns it, else a copy of n that m owns, with
// room for one more item and child and sharing n's children.
func (m *Map[K, V]) writable(n *node[K, V]) *node[K, V] {
	o := m.own()
	if n.owner == o {
		return n
	}
	c := &node[K, V]{items: append(make([]item[K, V], 0, len(n.items)+1), n.items...), owner: o}
	if n.children != nil {
		c.children = append(make([]*node[K, V], 0, len(n.children)+1), n.children...)
	}
	return c
}

// split divides a full writable node around its median: n keeps the
// lower half, and the median and a new node holding the upper half, with
// n's owner, are returned.
func (n *node[K, V]) split() (item[K, V], *node[K, V]) {
	const mid = maxItems / 2
	med := n.items[mid]
	right := &node[K, V]{items: append(make([]item[K, V], 0, maxItems-mid), n.items[mid+1:]...), owner: n.owner}
	clear(n.items[mid:])
	n.items = n.items[:mid]
	if n.children != nil {
		right.children = append(make([]*node[K, V], 0, maxItems-mid+1), n.children[mid+1:]...)
		clear(n.children[mid+1:])
		n.children = n.children[:mid+1]
	}
	return med, right
}

func insertAt[T any](s []T, i int, x T) []T {
	var zero T
	s = append(s, zero)
	copy(s[i+1:], s[i:])
	s[i] = x
	return s
}

// removeAt deletes s[i], clearing the vacated slot so the backing array
// keeps no reference to it.
func removeAt[T any](s []T, i int) []T {
	copy(s[i:], s[i+1:])
	var zero T
	s[len(s)-1] = zero
	return s[:len(s)-1]
}
