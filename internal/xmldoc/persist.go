package xmldoc

import (
	"encoding/json"
	"fmt"

	"webdbsec/internal/wal"
)

// Snapshot+journal persistence for the document store. Documents travel as
// their canonical serialization (canon.go) and are re-parsed on load;
// since Canonical is also the representation that is hashed and signed,
// what is persisted is exactly what the integrity machinery vouches for.
// (Whitespace-only text nodes are not representable in canonical form and
// do not survive a reload — they carry no policy-relevant content.)
//
// Every journal entry records the store generation and the touched
// document's generation after the mutation, and OpenStore restores both
// counters, so generation-keyed decision caches built over a reopened
// store observe the same (name, generation) → state mapping as before the
// restart.

// storeJournal is one journal entry.
type storeJournal struct {
	Op     string // "put" | "remove" | "addset"
	Doc    string
	Set    string `json:",omitempty"`
	XML    string `json:",omitempty"`
	Gen    uint64
	DocGen uint64
}

// storeSnap is a checkpoint snapshot of the whole store.
type storeSnap struct {
	Gen     uint64
	DocGens map[string]uint64
	Docs    map[string]string
	Sets    map[string][]string
}

// OpenStore recovers a document store from w and wires it to keep
// journaling there. The caller owns w's lifecycle but must not use it
// directly afterwards. Recovery stages into one private version published
// at the end, stamped with the last replayed LSN, so post-recovery
// mutations continue the version sequence exactly where the journal ends.
//
// seclint:locked s is not yet published; no other goroutine holds a reference before OpenStore returns
func OpenStore(w *wal.WAL) (*Store, error) {
	s := NewStore()
	v := newStoreVersion()
	if payload, snapLSN, ok := w.Snapshot(); ok {
		var snap storeSnap
		if err := json.Unmarshal(payload, &snap); err != nil {
			return nil, fmt.Errorf("xmldoc: decode snapshot: %w", err)
		}
		if err := stageSnap(v, &snap); err != nil {
			return nil, err
		}
		v.lsn = int64(snapLSN)
	}
	err := w.Replay(func(lsn uint64, payload []byte) error {
		var rec storeJournal
		if err := json.Unmarshal(payload, &rec); err != nil {
			return fmt.Errorf("xmldoc: decode journal at lsn %d: %w", lsn, err)
		}
		switch rec.Op {
		case "put":
			d, err := ParseString(rec.Doc, rec.XML)
			if err != nil {
				return fmt.Errorf("xmldoc: replay put %s: %w", rec.Doc, err)
			}
			v.docs.Set(rec.Doc, d)
		case "remove":
			v.docs.Delete(rec.Doc)
			v.unlinkDoc(rec.Doc)
		case "addset":
			v.link(rec.Set, rec.Doc)
		default:
			return fmt.Errorf("xmldoc: unknown journal op %q at lsn %d", rec.Op, lsn)
		}
		v.docGens.Set(rec.Doc, rec.DocGen)
		v.gen = rec.Gen
		v.lsn = int64(lsn)
		return nil
	})
	if err != nil {
		return nil, err
	}
	s.w = w
	v.freeze()
	s.current.Store(v)
	return s, nil
}

// stageSnap decodes a checkpoint snapshot into the private staging
// version v.
func stageSnap(v *storeVersion, snap *storeSnap) error {
	for name, xml := range snap.Docs {
		d, err := ParseString(name, xml)
		if err != nil {
			return fmt.Errorf("xmldoc: restore %s: %w", name, err)
		}
		v.docs.Set(name, d)
	}
	for set, docs := range snap.Sets {
		for _, doc := range docs {
			v.link(set, doc)
		}
	}
	for name, g := range snap.DocGens {
		v.docGens.Set(name, g)
	}
	v.gen = snap.Gen
	return nil
}

// Checkpoint writes a snapshot of the store and truncates the journal at
// the snapshotted version's LSN. The checkpoint is fuzzy: it pins the
// current version and releases mu before encoding, so mutations keep
// committing while the snapshot streams out. Because every journal entry
// is one complete mutation, the snapshot at LSN n plus the journal tail
// above n reconstructs every later state — nothing blocks, nothing tears.
func (s *Store) Checkpoint() error {
	w, v, err := s.pinForCheckpoint()
	if err != nil {
		return err
	}
	defer v.pins.Add(-1)
	snap := storeSnap{
		Gen:     v.gen,
		DocGens: make(map[string]uint64, v.docGens.Len()),
		Docs:    make(map[string]string, v.docs.Len()),
		Sets:    make(map[string][]string),
	}
	v.docGens.Ascend(func(name string, g uint64) bool {
		snap.DocGens[name] = g
		return true
	})
	v.docs.Ascend(func(name string, d *Document) bool {
		snap.Docs[name] = d.Canonical()
		return true
	})
	v.sets.Ascend(func(p namePair, _ struct{}) bool {
		snap.Sets[p.a] = append(snap.Sets[p.a], p.b)
		return true
	})
	payload, err := json.Marshal(&snap)
	if err != nil {
		return fmt.Errorf("xmldoc: encode snapshot: %w", err)
	}
	if err := w.CheckpointAt(payload, uint64(v.lsn)); err != nil {
		s.mu.Lock()
		s.err = err
		s.mu.Unlock()
		return err
	}
	return nil
}

// pinForCheckpoint pins the current version under the writer mutex and
// returns it with the journal backend. The caller unpins.
func (s *Store) pinForCheckpoint() (*wal.WAL, *storeVersion, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.w == nil {
		return nil, nil, fmt.Errorf("xmldoc: checkpoint: no durable backend")
	}
	if s.err != nil {
		return nil, nil, s.err
	}
	v := s.current.Load()
	v.pins.Add(1)
	return s.w, v, nil
}

// Err returns the sticky journal error, if any.
func (s *Store) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// journalLocked appends a journal entry for a mutation that already
// happened and returns its LSN — the stamp for the version the mutation
// installs. It returns 0 (keep the predecessor's stamp) for in-memory
// stores and on failure; failures stick.
//
// seclint:locked caller holds s.mu
func (s *Store) journalLocked(rec *storeJournal) int64 {
	if s.w == nil || s.err != nil {
		return 0
	}
	payload, err := json.Marshal(rec)
	if err != nil {
		s.err = err
		return 0
	}
	lsn, err := s.w.Append(payload)
	if err != nil {
		s.err = err
		return 0
	}
	return int64(lsn)
}
