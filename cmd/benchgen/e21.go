package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"webdbsec/internal/reldb"
	"webdbsec/internal/wal"
)

// E21 measures the MVCC read path (PR 7): snapshot reads against
// committing writers, versus the pre-MVCC locked read path, and the
// fuzzy-checkpoint stall profile. Before PR 7, reads and commits
// serialized through the database's reader/writer lock — a committer
// holding the write side across its durability barrier stalled every
// reader behind the fsync. MVCC readers pin an immutable version and
// never touch a lock, so read latency should be independent of writer
// activity. The locked baseline is emulated faithfully around the same
// engine: readers take an RWMutex read-side around each SELECT, writers
// take it write-side across their whole transaction (insert + durable
// commit), reproducing the old serialization.

// e21ReadRow is one (table size, reader count) row: the same Zipf
// point-query workload against 4 committing writers, under the locked
// emulation and the MVCC path. The read table and every writer's table
// hold TableRows rows.
type e21ReadRow struct {
	TableRows       int     `json:"table_rows"`
	Readers         int     `json:"readers"`
	Writers         int     `json:"writers"`
	LockedP50US     float64 `json:"locked_read_p50_us"`
	LockedP99US     float64 `json:"locked_read_p99_us"`
	LockedReadsSec  float64 `json:"locked_reads_per_sec"`
	MVCCP50US       float64 `json:"mvcc_read_p50_us"`
	MVCCP99US       float64 `json:"mvcc_read_p99_us"`
	MVCCReadsSec    float64 `json:"mvcc_reads_per_sec"`
	P50Speedup      float64 `json:"p50_speedup"`
	MVCCCommitsSec  float64 `json:"mvcc_commits_per_sec"`
	LockedCommitSec float64 `json:"locked_commits_per_sec"`
}

// e21CommitRow re-measures the E19 grouped commit path on the MVCC
// engine — the no-write-regression half of the acceptance bar, compared
// against BENCH_PR4.json.
type e21CommitRow struct {
	TableRows     int     `json:"table_rows"`
	Committers    int     `json:"committers"`
	Commits       int     `json:"commits"`
	CommitsPerSec float64 `json:"commits_per_sec"`
}

// e21Checkpoint is the fuzzy-checkpoint stall profile: commit throughput
// with and without back-to-back checkpoints streaming concurrently, and
// the worst gap any committer saw between consecutive commits.
type e21Checkpoint struct {
	Writers           int     `json:"writers"`
	CommitsSecNoCkpt  float64 `json:"commits_per_sec_no_checkpoint"`
	CommitsSecCkpt    float64 `json:"commits_per_sec_during_checkpoints"`
	Checkpoints       int     `json:"checkpoints"`
	MeanCheckpointMS  float64 `json:"mean_checkpoint_ms"`
	MaxCommitStallCk  float64 `json:"max_commit_stall_ms_during_checkpoints"`
	MaxCommitStallRef float64 `json:"max_commit_stall_ms_no_checkpoint"`
}

// e21OpenDB opens a durable database in dir with the read table t
// (rows Zipf-queried keys, hash-indexed) and one private table per
// writer, also holding rows rows.
func e21OpenDB(dir string, rows, writers int) (*reldb.Database, *wal.WAL, error) {
	w, err := wal.Open(wal.Options{FS: wal.DirFS(dir), Policy: wal.SyncAlways})
	if err != nil {
		return nil, nil, err
	}
	db, err := reldb.OpenDatabase(w)
	if err != nil {
		return nil, nil, err
	}
	if _, err := db.Exec("CREATE TABLE t (k TEXT, v INT)"); err != nil {
		return nil, nil, err
	}
	if _, err := db.Exec("CREATE HASH INDEX ON t (k)"); err != nil {
		return nil, nil, err
	}
	if err := fillTable(db, "t", rows); err != nil {
		return nil, nil, err
	}
	for g := 0; g < writers; g++ {
		if _, err := db.Exec(fmt.Sprintf("CREATE TABLE w%d (k TEXT, v INT)", g)); err != nil {
			return nil, nil, err
		}
		if err := fillTable(db, fmt.Sprintf("w%d", g), rows); err != nil {
			return nil, nil, err
		}
	}
	return db, w, nil
}

func e21Pct(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p * float64(len(sorted)-1))
	return sorted[i]
}

// e21ReadRun drives readers Zipf point queries against writers committing
// continuously for the given duration and returns read p50/p99, read
// throughput and commit throughput. locked selects the pre-PR7
// emulation. Readers issue at randomized ~2kHz arrivals (sleep jittered
// per op) rather than a tight closed loop: a closed loop re-issues the
// moment the previous read returns, which clusters issue times into the
// lock-free gaps between commits and undercounts the stall (coordinated
// omission); randomized arrivals are uncorrelated with the writer lock
// cycle, so the percentiles answer "what does a read issued at a random
// instant experience".
func e21ReadRun(readers, writers, rows int, duration time.Duration, locked bool) (p50, p99 time.Duration, readsSec, commitsSec float64, err error) {
	dir, err := os.MkdirTemp("", "e21-")
	if err != nil {
		return 0, 0, 0, 0, err
	}
	defer os.RemoveAll(dir)
	db, w, err := e21OpenDB(dir, rows, writers)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	defer w.Close()

	var rw sync.RWMutex // the pre-PR7 database lock, used only when locked
	var stop atomic.Bool
	var commits atomic.Int64
	errs := make([]error, writers+readers)
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				if locked {
					rw.Lock()
				}
				txn := db.Begin()
				_, werr := txn.Exec(fmt.Sprintf("INSERT INTO w%d VALUES ('k%d', %d)", g, i, i))
				if werr == nil {
					werr = txn.Commit()
				} else {
					txn.Abort()
				}
				if locked {
					rw.Unlock()
				}
				if werr != nil {
					errs[g] = werr
					return
				}
				commits.Add(1)
			}
		}(g)
	}
	lats := make([][]time.Duration, readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(1000 + r)))
			zipf := rand.NewZipf(rng, 1.2, 1, uint64(rows-1))
			for !stop.Load() {
				time.Sleep(time.Duration(200+rng.Intn(600)) * time.Microsecond)
				q := fmt.Sprintf("SELECT v FROM t WHERE k = 'k%d'", zipf.Uint64())
				t0 := time.Now()
				if locked {
					rw.RLock()
				}
				_, rerr := db.Exec(q)
				if locked {
					rw.RUnlock()
				}
				lats[r] = append(lats[r], time.Since(t0))
				if rerr != nil {
					errs[writers+r] = rerr
					return
				}
			}
		}(r)
	}
	time.Sleep(duration)
	stop.Store(true)
	wg.Wait()
	for _, e := range errs {
		if e != nil {
			return 0, 0, 0, 0, e
		}
	}
	var all []time.Duration
	for _, l := range lats {
		all = append(all, l...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	secs := duration.Seconds()
	return e21Pct(all, 0.50), e21Pct(all, 0.99),
		float64(len(all)) / secs, float64(commits.Load()) / secs, nil
}

// e21CheckpointRun measures commit throughput over duration with writers
// committing continuously, optionally with fuzzy checkpoints streaming
// back-to-back the whole time, and the worst per-committer gap between
// consecutive commits — the stall a checkpoint inflicts, if any.
func e21CheckpointRun(writers int, duration time.Duration, checkpoint bool) (commitsSec float64, ckpts int, meanCkptMS, maxStallMS float64, err error) {
	dir, err := os.MkdirTemp("", "e21ck-")
	if err != nil {
		return 0, 0, 0, 0, err
	}
	defer os.RemoveAll(dir)
	db, w, err := e21OpenDB(dir, 64, writers)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	defer w.Close()

	var stop atomic.Bool
	var commits atomic.Int64
	stalls := make([]time.Duration, writers)
	errs := make([]error, writers+1)
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			last := time.Now()
			for i := 0; !stop.Load(); i++ {
				txn := db.Begin()
				_, werr := txn.Exec(fmt.Sprintf("INSERT INTO w%d VALUES ('k%d', %d)", g, i, i))
				if werr == nil {
					werr = txn.Commit()
				} else {
					txn.Abort()
				}
				if werr != nil {
					errs[g] = werr
					return
				}
				commits.Add(1)
				now := time.Now()
				if gap := now.Sub(last); gap > stalls[g] {
					stalls[g] = gap
				}
				last = now
			}
		}(g)
	}
	var ckptTotal time.Duration
	if checkpoint {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				t0 := time.Now()
				if cerr := db.Checkpoint(); cerr != nil {
					errs[writers] = cerr
					return
				}
				ckptTotal += time.Since(t0)
				ckpts++
			}
		}()
	}
	time.Sleep(duration)
	stop.Store(true)
	wg.Wait()
	for _, e := range errs {
		if e != nil {
			return 0, 0, 0, 0, e
		}
	}
	var maxStall time.Duration
	for _, s := range stalls {
		if s > maxStall {
			maxStall = s
		}
	}
	if ckpts > 0 {
		meanCkptMS = float64(ckptTotal.Microseconds()) / 1000 / float64(ckpts)
	}
	return float64(commits.Load()) / duration.Seconds(), ckpts, meanCkptMS,
		float64(maxStall.Microseconds()) / 1000, nil
}

// e21TableSizes is the table-size sweep of the read and commit rows.
// Commit cost used to grow with it (every commit copied its table), which
// a single small table hid.
func e21TableSizes(quick bool) []int {
	if quick {
		return []int{512, 4096}
	}
	return []int{512, 10_000}
}

func e21ReadRows(quick bool) ([]e21ReadRow, error) {
	const writers = 4
	duration := 600 * time.Millisecond
	counts := []int{1, 4, 16, 64}
	if quick {
		duration = 200 * time.Millisecond
		counts = []int{1, 16}
	}
	var rows []e21ReadRow
	for _, tableRows := range e21TableSizes(quick) {
		for _, readers := range counts {
			lp50, lp99, lrs, lcs, err := e21ReadRun(readers, writers, tableRows, duration, true)
			if err != nil {
				return nil, err
			}
			mp50, mp99, mrs, mcs, err := e21ReadRun(readers, writers, tableRows, duration, false)
			if err != nil {
				return nil, err
			}
			speedup := 0.0
			if mp50 > 0 {
				speedup = float64(lp50) / float64(mp50)
			}
			rows = append(rows, e21ReadRow{
				TableRows: tableRows, Readers: readers, Writers: writers,
				LockedP50US: float64(lp50.Nanoseconds()) / 1e3, LockedP99US: float64(lp99.Nanoseconds()) / 1e3,
				LockedReadsSec: lrs, LockedCommitSec: lcs,
				MVCCP50US: float64(mp50.Nanoseconds()) / 1e3, MVCCP99US: float64(mp99.Nanoseconds()) / 1e3,
				MVCCReadsSec: mrs, MVCCCommitsSec: mcs,
				P50Speedup: speedup,
			})
		}
	}
	return rows, nil
}

func e21CommitRows(quick bool) ([]e21CommitRow, error) {
	totalCommits := 960
	if quick {
		totalCommits = 192
	}
	var rows []e21CommitRow
	for _, tableRows := range e21TableSizes(quick) {
		for _, committers := range []int{1, 8, 64} {
			// 64 private tables of the largest size would hold most of a
			// million rows; the smallest size stays comparable with E19.
			if committers == 64 && tableRows > 512 {
				continue
			}
			ops, _, err := e19Run(committers, totalCommits, 0, tableRows)
			if err != nil {
				return nil, err
			}
			rows = append(rows, e21CommitRow{
				TableRows:     tableRows,
				Committers:    committers,
				Commits:       totalCommits / committers * committers,
				CommitsPerSec: ops,
			})
		}
	}
	return rows, nil
}

func e21CheckpointProfile(quick bool) (e21Checkpoint, error) {
	const writers = 4
	duration := 600 * time.Millisecond
	if quick {
		duration = 200 * time.Millisecond
	}
	refCS, _, _, refStall, err := e21CheckpointRun(writers, duration, false)
	if err != nil {
		return e21Checkpoint{}, err
	}
	ckCS, ckpts, meanMS, ckStall, err := e21CheckpointRun(writers, duration, true)
	if err != nil {
		return e21Checkpoint{}, err
	}
	return e21Checkpoint{
		Writers:           writers,
		CommitsSecNoCkpt:  refCS,
		CommitsSecCkpt:    ckCS,
		Checkpoints:       ckpts,
		MeanCheckpointMS:  meanMS,
		MaxCommitStallCk:  ckStall,
		MaxCommitStallRef: refStall,
	}, nil
}

func runE21(quick bool) {
	readRows, err := e21ReadRows(quick)
	if err != nil {
		fmt.Fprintf(os.Stderr, "E21: %v\n", err)
		return
	}
	t := &table{header: []string{"table rows", "readers", "writers", "locked p50", "locked p99", "mvcc p50", "mvcc p99", "p50 speedup", "locked reads/s", "mvcc reads/s", "mvcc commits/s"}}
	for _, r := range readRows {
		t.add(fmt.Sprint(r.TableRows), fmt.Sprint(r.Readers), fmt.Sprint(r.Writers),
			dur(time.Duration(r.LockedP50US*1e3)), dur(time.Duration(r.LockedP99US*1e3)),
			dur(time.Duration(r.MVCCP50US*1e3)), dur(time.Duration(r.MVCCP99US*1e3)),
			fmt.Sprintf("%.1fx", r.P50Speedup),
			fmt.Sprintf("%.0f", r.LockedReadsSec), fmt.Sprintf("%.0f", r.MVCCReadsSec),
			fmt.Sprintf("%.0f", r.MVCCCommitsSec))
	}
	t.print()

	commitRows, err := e21CommitRows(quick)
	if err != nil {
		fmt.Fprintf(os.Stderr, "E21: %v\n", err)
		return
	}
	ct := &table{header: []string{"table rows", "committers", "commits", "commits/s (vs E19)"}}
	for _, r := range commitRows {
		ct.add(fmt.Sprint(r.TableRows), fmt.Sprint(r.Committers), fmt.Sprint(r.Commits), fmt.Sprintf("%.0f", r.CommitsPerSec))
	}
	fmt.Println()
	ct.print()

	ck, err := e21CheckpointProfile(quick)
	if err != nil {
		fmt.Fprintf(os.Stderr, "E21: %v\n", err)
		return
	}
	fmt.Printf("\n  fuzzy checkpoints during %d-writer commits: %d checkpoints (mean %.2fms),\n", ck.Writers, ck.Checkpoints, ck.MeanCheckpointMS)
	fmt.Printf("  commits/s %.0f without vs %.0f during; max commit stall %.2fms vs %.2fms baseline\n",
		ck.CommitsSecNoCkpt, ck.CommitsSecCkpt, ck.MaxCommitStallRef, ck.MaxCommitStallCk)
}

// e21Snapshot is the record -snapshot -run E21 writes (BENCH_PR7.json).
type e21Snapshot struct {
	Experiment  string         `json:"experiment"`
	Description string         `json:"description"`
	ReadRows    []e21ReadRow   `json:"read_rows"`
	CommitRows  []e21CommitRow `json:"commit_rows"`
	Checkpoint  e21Checkpoint  `json:"checkpoint"`
}

// writeSnapshotE21 measures E21 and writes the JSON record to path.
func writeSnapshotE21(path string, quick bool) error {
	readRows, err := e21ReadRows(quick)
	if err != nil {
		return err
	}
	commitRows, err := e21CommitRows(quick)
	if err != nil {
		return err
	}
	ck, err := e21CheckpointProfile(quick)
	if err != nil {
		return err
	}
	snap := e21Snapshot{
		Experiment:  "E21",
		Description: "MVCC snapshot reads vs the pre-PR7 locked read path under committing writers (Zipf point queries), grouped commit throughput on the MVCC engine, and the fuzzy-checkpoint stall profile",
		ReadRows:    readRows,
		CommitRows:  commitRows,
		Checkpoint:  ck,
	}
	data, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
