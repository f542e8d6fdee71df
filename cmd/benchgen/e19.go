package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"

	"webdbsec/internal/reldb"
	"webdbsec/internal/wal"
)

// E19 measures what the group-commit pipeline buys on the durable commit
// path: concurrent committers against a real filesystem under SyncAlways,
// grouped (default pipeline) vs baseline (MaxBatchBytes=1, one fsync per
// frame — the PR 3 behaviour). Each committer gets a private table so the
// strict 2PL table locks don't serialize the fsyncs artificially; the
// contention under study is the disk barrier, not the lock manager.

// e19Measurement is one committer-count row of the E19 experiment.
type e19Measurement struct {
	Committers         int     `json:"committers"`
	Commits            int     `json:"commits"`
	BaselineCommitsSec float64 `json:"baseline_commits_per_sec"`
	GroupedCommitsSec  float64 `json:"grouped_commits_per_sec"`
	Speedup            float64 `json:"speedup"`
	BaselineFsyncs     uint64  `json:"baseline_fsyncs"`
	GroupedFsyncs      uint64  `json:"grouped_fsyncs"`
	FsyncsSaved        uint64  `json:"fsyncs_saved"`
	MeanBatchFrames    float64 `json:"mean_batch_frames"`
	MaxBatchFrames     int     `json:"max_batch_frames"`
}

// e19Run drives totalCommits single-insert transactions through a fresh
// durable database split across the committers and returns commits/sec
// plus the WAL's pipeline counters. maxBatchBytes=0 uses the default
// (grouped); 1 is the fsync-per-frame baseline. Each committer's table
// starts with tableRows rows, so commit cost can be read against table
// size.
func e19Run(committers, totalCommits, maxBatchBytes, tableRows int) (float64, wal.Stats, error) {
	dir, err := os.MkdirTemp("", "e19-")
	if err != nil {
		return 0, wal.Stats{}, err
	}
	defer os.RemoveAll(dir)
	w, err := wal.Open(wal.Options{FS: wal.DirFS(dir), Policy: wal.SyncAlways, MaxBatchBytes: maxBatchBytes})
	if err != nil {
		return 0, wal.Stats{}, err
	}
	db, err := reldb.OpenDatabase(w)
	if err != nil {
		return 0, wal.Stats{}, err
	}
	for g := 0; g < committers; g++ {
		if _, err := db.Exec(fmt.Sprintf("CREATE TABLE t%d (k TEXT, v INT)", g)); err != nil {
			return 0, wal.Stats{}, err
		}
		if err := fillTable(db, fmt.Sprintf("t%d", g), tableRows); err != nil {
			return 0, wal.Stats{}, err
		}
	}
	per := totalCommits / committers
	var wg sync.WaitGroup
	errs := make([]error, committers)
	start := time.Now()
	for g := 0; g < committers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				txn := db.Begin()
				if _, err := txn.Exec(fmt.Sprintf("INSERT INTO t%d VALUES ('k%d', %d)", g, i, i)); err != nil {
					errs[g] = err
					txn.Abort()
					return
				}
				if err := txn.Commit(); err != nil {
					errs[g] = err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	elapsed := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return 0, wal.Stats{}, err
		}
	}
	st := w.Stats()
	if err := w.Close(); err != nil {
		return 0, wal.Stats{}, err
	}
	return float64(per*committers) / elapsed.Seconds(), st, nil
}

// fillTable inserts rows (k TEXT, v INT) rows into table in one
// transaction: one commit, and one fsync, whatever the size.
func fillTable(db *reldb.Database, table string, rows int) error {
	txn := db.Begin()
	for i := 0; i < rows; i++ {
		if _, err := txn.Exec(fmt.Sprintf("INSERT INTO %s VALUES ('k%d', %d)", table, i, i)); err != nil {
			txn.Abort()
			return err
		}
	}
	return txn.Commit()
}

// e19Measure produces the row for one committer count: baseline and
// grouped throughput over the same commit budget, plus the grouped run's
// batch shape.
func e19Measure(committers, totalCommits int) (e19Measurement, error) {
	baseOps, baseStats, err := e19Run(committers, totalCommits, 1, 0)
	if err != nil {
		return e19Measurement{}, err
	}
	groupOps, groupStats, err := e19Run(committers, totalCommits, 0, 0)
	if err != nil {
		return e19Measurement{}, err
	}
	mean := 0.0
	if groupStats.Batches > 0 {
		mean = float64(groupStats.BatchFrames) / float64(groupStats.Batches)
	}
	return e19Measurement{
		Committers:         committers,
		Commits:            totalCommits / committers * committers,
		BaselineCommitsSec: baseOps,
		GroupedCommitsSec:  groupOps,
		Speedup:            groupOps / baseOps,
		BaselineFsyncs:     baseStats.Fsyncs,
		GroupedFsyncs:      groupStats.Fsyncs,
		FsyncsSaved:        groupStats.FsyncsSaved,
		MeanBatchFrames:    mean,
		MaxBatchFrames:     groupStats.MaxBatch,
	}, nil
}

func e19Rows(quick bool) ([]e19Measurement, error) {
	totalCommits := 960
	if quick {
		totalCommits = 192
	}
	var rows []e19Measurement
	for _, c := range []int{1, 8, 64} {
		m, err := e19Measure(c, totalCommits)
		if err != nil {
			return nil, err
		}
		rows = append(rows, m)
	}
	return rows, nil
}

func runE19(quick bool) {
	rows, err := e19Rows(quick)
	if err != nil {
		fmt.Fprintf(os.Stderr, "E19: %v\n", err)
		return
	}
	t := &table{header: []string{"committers", "baseline c/s", "grouped c/s", "speedup", "fsyncs base→grp", "saved", "mean batch", "max batch"}}
	for _, m := range rows {
		t.add(fmt.Sprint(m.Committers),
			fmt.Sprintf("%.0f", m.BaselineCommitsSec),
			fmt.Sprintf("%.0f", m.GroupedCommitsSec),
			fmt.Sprintf("%.1fx", m.Speedup),
			fmt.Sprintf("%d→%d", m.BaselineFsyncs, m.GroupedFsyncs),
			fmt.Sprint(m.FsyncsSaved),
			fmt.Sprintf("%.1f", m.MeanBatchFrames),
			fmt.Sprint(m.MaxBatchFrames))
	}
	t.print()
}

// e19Snapshot is the record -snapshot -run E19 writes (BENCH_PR4.json):
// baseline is the fsync-per-frame commit path this PR started from,
// grouped the batched pipeline.
type e19Snapshot struct {
	Experiment  string           `json:"experiment"`
	Description string           `json:"description"`
	Rows        []e19Measurement `json:"rows"`
}

// writeSnapshotE19 measures E19 and writes the JSON record to path.
func writeSnapshotE19(path string, quick bool) error {
	rows, err := e19Rows(quick)
	if err != nil {
		return err
	}
	snap := e19Snapshot{
		Experiment:  "E19",
		Description: "durable commit throughput under SyncAlways: fsync-per-frame baseline vs group commit, by concurrent committer count",
		Rows:        rows,
	}
	data, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
