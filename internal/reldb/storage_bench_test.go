package reldb

import (
	"fmt"
	"testing"
)

// Storage-layer benchmarks swept over table size. A commit and a point
// read should cost the same at 100k rows as at 1k (commit: O(log n) node
// copies; read: one index descent or one ordered walk of the rows).

var benchTableSizes = []int{1_000, 10_000, 100_000}

// benchResult keeps the compiler from discarding measured calls.
var benchResult *Result

// benchDB builds table t (id INT, k TEXT, name TEXT) with a hash index on
// k and n rows, all inserted in one transaction so the fixture costs one
// commit whatever its size.
func benchDB(b *testing.B, n int) *Database {
	b.Helper()
	db := NewDatabase()
	for _, ddl := range []string{"CREATE TABLE t (id INT, k TEXT, name TEXT)", "CREATE HASH INDEX ON t (k)"} {
		if _, err := db.Exec(ddl); err != nil {
			b.Fatal(err)
		}
	}
	txn := db.Begin()
	for i := 0; i < n; i++ {
		ins := &InsertStmt{Table: "t", Values: []Value{Int(int64(i)), Str(fmt.Sprintf("k%d", i)), Str(fmt.Sprintf("n%d", i))}}
		if _, err := txn.ExecStmt(ins); err != nil {
			b.Fatal(err)
		}
	}
	if err := txn.Commit(); err != nil {
		b.Fatal(err)
	}
	return db
}

// benchStmts parses one statement per key i in [0, 64), spread over the
// table, so the timed loop does no parsing.
func benchStmts(b *testing.B, n int, format string) []Stmt {
	b.Helper()
	out := make([]Stmt, 64)
	for i := range out {
		st, err := Parse(fmt.Sprintf(format, (i*7919)%n))
		if err != nil {
			b.Fatal(err)
		}
		out[i] = st
	}
	return out
}

func runStmts(b *testing.B, db *Database, stmts []Stmt) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := db.ExecStmt(stmts[i%len(stmts)])
		if err != nil {
			b.Fatal(err)
		}
		benchResult = res
	}
}

// BenchmarkCommitVsTableSize times one autocommitted write: a one-row
// INSERT, and an UPDATE located through the hash index.
func BenchmarkCommitVsTableSize(b *testing.B) {
	for _, n := range benchTableSizes {
		b.Run(fmt.Sprintf("insert/rows=%d", n), func(b *testing.B) {
			db := benchDB(b, n)
			runStmts(b, db, benchStmts(b, n, "INSERT INTO t VALUES (%d, 'new', 'new')"))
		})
		b.Run(fmt.Sprintf("update-hash/rows=%d", n), func(b *testing.B) {
			db := benchDB(b, n)
			runStmts(b, db, benchStmts(b, n, "UPDATE t SET name = 'upd' WHERE k = 'k%d'"))
		})
	}
}

// BenchmarkPointSelectVsTableSize times a one-row SELECT: by an
// unindexed column (a full scan, linear in the table) and by the
// hash-indexed column (flat in the table).
func BenchmarkPointSelectVsTableSize(b *testing.B) {
	for _, n := range benchTableSizes {
		b.Run(fmt.Sprintf("scan/rows=%d", n), func(b *testing.B) {
			db := benchDB(b, n)
			runStmts(b, db, benchStmts(b, n, "SELECT id FROM t WHERE name = 'n%d'"))
		})
		b.Run(fmt.Sprintf("hash-eq/rows=%d", n), func(b *testing.B) {
			db := benchDB(b, n)
			runStmts(b, db, benchStmts(b, n, "SELECT id FROM t WHERE k = 'k%d'"))
		})
	}
}
