package reldb

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// mvccOp is one unit of writer work: the statements of one transaction,
// committed or (abort set) rolled back.
type mvccOp struct {
	stmts []string
	abort bool
}

// mvccOps generates a deterministic stream of INSERT, UPDATE and DELETE
// transactions over table r (k INT, cat TEXT, v INT). UPDATEs move rows
// between hash-index keys and along the ordered index; DELETEs take
// narrow ranges, so the table neither drains nor only grows.
func mvccOps(seed int64, n int) []mvccOp {
	rng := rand.New(rand.NewSource(seed))
	stmt := func() string {
		switch rng.Intn(5) {
		case 0, 1:
			return fmt.Sprintf("INSERT INTO r VALUES (%d, 'c%d', %d)", rng.Intn(100), rng.Intn(10), rng.Intn(1000))
		case 2:
			return fmt.Sprintf("UPDATE r SET v = %d WHERE cat = 'c%d'", rng.Intn(1000), rng.Intn(10))
		case 3:
			lo := rng.Intn(1000)
			return fmt.Sprintf("UPDATE r SET cat = 'c%d' WHERE v >= %d AND v <= %d", rng.Intn(10), lo, lo+30)
		default:
			lo := rng.Intn(1000)
			return fmt.Sprintf("DELETE FROM r WHERE v >= %d AND v <= %d", lo, lo+8)
		}
	}
	ops := make([]mvccOp, n)
	for i := range ops {
		k := 1
		if rng.Intn(4) == 0 {
			k = 2 + rng.Intn(3)
		}
		for j := 0; j < k; j++ {
			ops[i].stmts = append(ops[i].stmts, stmt())
		}
		ops[i].abort = k > 1 && rng.Intn(3) == 0
	}
	return ops
}

// mvccDB creates table r with a hash index on cat, an ordered index on v
// and rows initial rows.
func mvccDB(t *testing.T, rows int) *Database {
	t.Helper()
	db := NewDatabase()
	mustExec(t, db, "CREATE TABLE r (k INT, cat TEXT, v INT)")
	mustExec(t, db, "CREATE HASH INDEX ON r (cat)")
	mustExec(t, db, "CREATE ORDERED INDEX ON r (v)")
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < rows; i++ {
		mustExec(t, db, fmt.Sprintf("INSERT INTO r VALUES (%d, 'c%d', %d)", i, rng.Intn(10), rng.Intn(1000)))
	}
	return db
}

func applyOp(db *Database, op mvccOp) error {
	txn := db.Begin()
	for _, src := range op.stmts {
		if _, err := txn.Exec(src); err != nil {
			txn.Abort()
			return fmt.Errorf("%s: %w", src, err)
		}
	}
	if op.abort {
		txn.Abort()
		return nil
	}
	return txn.Commit()
}

// answers renders everything a reader can ask of table r: the full scan
// in rowID order, every hash-index equality and a spread of ordered-index
// ranges.
func answers(s *Snapshot) string {
	tb, ok := s.Table("r")
	if !ok {
		return "no table r"
	}
	var b strings.Builder
	tb.Scan(func(id int64, r Row) bool {
		fmt.Fprint(&b, id, r, ";")
		return true
	})
	for c := 0; c < 11; c++ {
		ids, _ := tb.LookupEq("cat", Str(fmt.Sprintf("c%d", c)))
		fmt.Fprint(&b, "\neq c", c, ids)
	}
	for lo := -50; lo < 1050; lo += 137 {
		l, h := Int(int64(lo)), Int(int64(lo+90))
		ids, _ := tb.LookupRange("v", &l, &h)
		fmt.Fprint(&b, "\nrange ", lo, ids)
	}
	above := Int(900)
	ids, _ := tb.LookupRange("v", &above, nil)
	fmt.Fprint(&b, "\nabove ", ids)
	return b.String()
}

// TestSnapshotUnaffectedByLaterCommits pins snapshots along a stream of
// INSERT/UPDATE/DELETE commits (and aborts) on a table with both index
// kinds. After every commit, every snapshot pinned so far must still give
// exactly the Scan, LookupEq and LookupRange answers it gave when pinned.
func TestSnapshotUnaffectedByLaterCommits(t *testing.T) {
	db := mvccDB(t, 300)
	type pinned struct {
		snap *Snapshot
		want string
	}
	var pins []pinned
	defer func() {
		for _, p := range pins {
			p.snap.Release()
		}
	}()
	for i, op := range mvccOps(1, 120) {
		if i%12 == 0 {
			s := db.Snapshot()
			pins = append(pins, pinned{s, answers(s)})
		}
		if err := applyOp(db, op); err != nil {
			t.Fatal(err)
		}
		for j, p := range pins {
			if got := answers(p.snap); got != p.want {
				t.Fatalf("after op %d, snapshot %d (lsn %d) changed:\nwas %s\nnow %s", i, j, p.snap.LSN(), p.want, got)
			}
		}
	}
	cur := db.Snapshot()
	defer cur.Release()
	if answers(cur) == pins[0].want {
		t.Fatal("120 commits left the table unchanged; the test exercised nothing")
	}
}

// TestConcurrentSnapshotsMatchSerialReplay runs readers concurrently with
// a committing writer. Each reader pins snapshots and records what it
// sees at the snapshot's LSN; afterwards the same operation stream is
// replayed serially on a fresh database, and every reader observation
// must equal the replay's state at that LSN.
func TestConcurrentSnapshotsMatchSerialReplay(t *testing.T) {
	ops := mvccOps(2, 150)
	db := mvccDB(t, 200)
	start := db.Snapshot()
	lsns := []int64{start.LSN()} // lsns[i]: the version after ops[:i]
	start.Release()

	type seen struct {
		lsn     int64
		answers string
	}
	const readers = 4
	observed := make([][]seen, readers)
	var done atomic.Bool
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for !done.Load() {
				s := db.Snapshot()
				observed[r] = append(observed[r], seen{s.LSN(), answers(s)})
				s.Release()
			}
		}(r)
	}
	for _, op := range ops {
		if err := applyOp(db, op); err != nil {
			t.Error(err)
			break
		}
		// Only this goroutine writes, so the current version is exactly
		// the one this op installed.
		s := db.Snapshot()
		lsns = append(lsns, s.LSN())
		s.Release()
	}
	done.Store(true)
	wg.Wait()
	if t.Failed() {
		return
	}

	replay := mvccDB(t, 200)
	want := make(map[int64]string, len(lsns))
	for i, lsn := range lsns {
		if i > 0 {
			if err := applyOp(replay, ops[i-1]); err != nil {
				t.Fatal(err)
			}
		}
		s := replay.Snapshot()
		want[lsn] = answers(s)
		s.Release()
	}
	total := 0
	for r := range observed {
		for _, o := range observed[r] {
			w, ok := want[o.lsn]
			if !ok {
				t.Fatalf("reader %d pinned lsn %d, which no commit installed", r, o.lsn)
			}
			if o.answers != w {
				t.Fatalf("reader %d at lsn %d diverges from the serial replay:\nread   %s\nreplay %s", r, o.lsn, o.answers, w)
			}
			total++
		}
	}
	if total == 0 {
		t.Fatal("readers made no observations")
	}
}
