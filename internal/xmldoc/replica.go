package xmldoc

import (
	"encoding/json"
	"fmt"
)

// Replica-side replay for the document store: the replication layer ships
// the leader's journal entries (the same storeJournal frames persist.go
// writes) and a follower applies them here, one at a time, without
// journaling again — the replication layer owns the follower's local WAL.
// Generation counters travel inside every entry, so a generation-keyed
// decision cache on the replica observes the same (name, generation) →
// state mapping as on the leader.

// ApplyReplicated applies one shipped journal entry. Entries must arrive
// in the order the leader journaled them. Each entry installs a new store
// version stamped with the shipped LSN, so the replica's version sequence
// mirrors the leader's and replica readers pin snapshots exactly as
// leader readers do.
func (s *Store) ApplyReplicated(lsn uint64, payload []byte) error {
	var rec storeJournal
	if err := json.Unmarshal(payload, &rec); err != nil {
		return fmt.Errorf("xmldoc: decode replicated entry at lsn %d: %w", lsn, err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	v := &storeVersion{storeState: s.current.Load().storeState}
	switch rec.Op {
	case "put":
		d, err := ParseString(rec.Doc, rec.XML)
		if err != nil {
			return fmt.Errorf("xmldoc: replicate put %s: %w", rec.Doc, err)
		}
		v.docs.Set(rec.Doc, d)
	case "remove":
		v.docs.Delete(rec.Doc)
		v.unlinkDoc(rec.Doc)
	case "addset":
		v.link(rec.Set, rec.Doc)
	default:
		return fmt.Errorf("xmldoc: unknown replicated op %q at lsn %d", rec.Op, lsn)
	}
	v.docGens.Set(rec.Doc, rec.DocGen)
	v.gen = rec.Gen
	s.installLocked(int64(lsn), v)
	return nil
}

// RestoreReplicated replaces the store's contents from a leader checkpoint
// snapshot (full resync). The replacement is one version install: readers
// holding pinned snapshots keep their pre-resync view until they release.
func (s *Store) RestoreReplicated(lsn uint64, snapshot []byte) error {
	var snap storeSnap
	// An empty snapshot resets to genesis (a never-checkpointed leader
	// resyncs divergent replicas by wiping and re-streaming its log).
	if len(snapshot) > 0 {
		if err := json.Unmarshal(snapshot, &snap); err != nil {
			return fmt.Errorf("xmldoc: decode replicated snapshot: %w", err)
		}
	}
	v := newStoreVersion()
	if err := stageSnap(v, &snap); err != nil {
		return err
	}
	v.lsn = int64(lsn)
	v.freeze()
	s.mu.Lock()
	defer s.mu.Unlock()
	// A resync may rewind the LSN (divergence repair), so bypass
	// installLocked's monotone stamp and publish v as-is.
	cur := s.current.Load()
	s.current.Store(v)
	s.retained = append(s.retained, cur)
	s.vstats.Installed++
	s.sweepLocked()
	return nil
}
