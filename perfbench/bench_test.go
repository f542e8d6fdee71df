package main

import (
	"context"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"webdbsec/internal/credential"
	"webdbsec/internal/synth"
)

// warmOracle returns an oracle whose histories sit at the read
// workload's fixed point, and the rows it models.
func warmOracle() (*sdbOracle, []synth.Person) {
	people := synth.People(1, 200)
	wl := readMix(rand.New(rand.NewSource(7)), people, counts{open: 10})
	o := newSDBOracle(people)
	for _, op := range warmPasses(wl.catalog, people) {
		o.expectOnly(op.sdb)
	}
	o.freeze()
	return o, people
}

// now is a read window that opens and closes at the call.
func now() window {
	t := time.Now()
	return window{sent: t, end: t}
}

func TestOracleCatchesRowsForRefusedQuery(t *testing.T) {
	o, people := warmOracle()
	p := people[0]
	refused := selectReq(subjAna, p, "name", "age", "disease")
	if err := o.check(refused, sdbOutcome{refused: true}, now()); err != nil {
		t.Fatalf("required refusal rejected: %v", err)
	}
	leak := sdbOutcome{rows: [][]string{{"40", p.Disease}}}
	if err := o.check(refused, leak, now()); err == nil || !strings.Contains(err.Error(), "policy violation") {
		t.Fatalf("rows served for a refused query were accepted: %v", err)
	}
	// A 4xx whose body carries a row is a leak too, whatever the status.
	body := []byte("age\tdisease\n40\t" + p.Disease + "\n")
	if _, err := parseSDB(refused, http.StatusForbidden, body); err == nil {
		t.Fatal("refusal carrying rows was accepted")
	}
	// The masked read must come back with disease blanked.
	masked := selectReq(subjAna, p, "name", "name", "disease")
	if err := o.check(masked, sdbOutcome{rows: [][]string{{p.Name, p.Disease}}}, now()); err == nil {
		t.Fatal("unmasked private pair was accepted")
	}
	if err := o.check(masked, sdbOutcome{rows: [][]string{{p.Name, "NULL"}}, masked: []string{"disease"}}, now()); err != nil {
		t.Fatalf("correct masked answer rejected: %v", err)
	}
	if err := o.check(selectReq(subjMallory, p, "name", "age"), sdbOutcome{rows: [][]string{{"40"}}}, now()); err == nil {
		t.Fatal("rows served to a subject without a grant were accepted")
	}
}

func TestOracleCatchesStaleAgeAfterAckedUpdate(t *testing.T) {
	o, people := warmOracle()
	p := people[0]
	read := selectReq(subjAna, p, "name", "zip", "age")
	answer := func(age int) sdbOutcome {
		return sdbOutcome{rows: [][]string{{p.Zip, strconv.Itoa(age)}}}
	}
	before := now()
	upd := &sdbReq{kind: kUpdate, subj: subjDBA, where: [2]string{"name", p.Name}, age: p.Age + 1}
	v := o.issue(upd)
	// A read that overlaps the UPDATE may see either age.
	racing := window{sent: before.sent, end: time.Now()}
	for _, age := range []int{p.Age, p.Age + 1} {
		if err := o.check(read, answer(age), racing); err != nil {
			t.Fatalf("racing read of age %d rejected: %v", age, err)
		}
	}
	acked := time.Now()
	o.ack(v, acked)
	if err := o.check(upd, sdbOutcome{affected: 1}, window{sent: v.issued, end: acked}); err != nil {
		t.Fatalf("acknowledged UPDATE rejected: %v", err)
	}
	// A read sent after the acknowledgement must see the new age.
	after := window{sent: acked.Add(time.Millisecond), end: acked.Add(2 * time.Millisecond)}
	if err := o.check(read, answer(p.Age), after); err == nil {
		t.Fatal("stale age served after an acknowledged UPDATE was accepted")
	}
	if err := o.check(read, answer(p.Age+1), after); err != nil {
		t.Fatalf("fresh age rejected: %v", err)
	}
	// A read answered before the UPDATE was sent cannot see its age.
	if err := o.check(read, answer(p.Age+1), before); err == nil {
		t.Fatal("age of an UPDATE sent after the answer was accepted")
	}
}

func TestCheckerCatchesTamperedMerkleView(t *testing.T) {
	ca, err := credential.NewAuthority("bench")
	if err != nil {
		t.Fatal(err)
	}
	reqs, err := newRequestors(ca, 2)
	if err != nil {
		t.Fatal(err)
	}
	st, err := newUDDIStack(4, ca)
	if err != nil {
		t.Fatal(err)
	}
	serve := func(r *uddiReq) (int, []byte) {
		rec := httptest.NewRecorder()
		st.rs.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/", strings.NewReader(r.envelope())))
		return rec.Code, rec.Body.Bytes()
	}
	partner, member := reqs[0], reqs[1]
	q := &uddiReq{who: partner, key: entryKey(2)}
	code, body := serve(q)
	if _, err := checkUDDI(q, code, body, st.dir); err != nil {
		t.Fatalf("honest answer rejected: %v", err)
	}
	tampered := strings.Replace(string(body), "ops@be-00002.example", "ops@evil.example", 1)
	if tampered == string(body) {
		t.Fatal("test did not tamper with the view")
	}
	if _, err := checkUDDI(q, code, []byte(tampered), st.dir); err == nil {
		t.Fatal("tampered Merkle view was accepted")
	}
	// A partner's answer handed to a non-partner serves bindings the
	// policy withholds from it.
	if _, err := checkUDDI(&uddiReq{who: member, key: entryKey(2)}, code, body, st.dir); err == nil || !strings.Contains(err.Error(), "policy violation") {
		t.Fatalf("bindings served to a non-partner were accepted: %v", err)
	}
}

// TestWorkloadsEmitEveryMetric runs every workload end to end at a small
// request count with the traced replay on, and checks that every named
// metric is reported with its unit and every answer was correct.
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and launches the servers")
	}
	for _, sp := range specs {
		t.Run(sp.name, func(t *testing.T) {
			rep, err := runWorkload(context.Background(), config{workload: sp.name, seed: 3, seconds: 1, trace: 1, root: ".."})
			if err != nil {
				t.Fatal(err)
			}
			if rep.failed != 0 || rep.attempted == 0 {
				t.Fatalf("attempted %d, failed %d", rep.attempted, rep.failed)
			}
			for _, set := range []struct {
				got  map[string]metric
				want [][2]string
			}{{rep.e2e, e2eMetrics}, {rep.layers, layerMetrics}} {
				if len(set.got) != len(set.want) {
					t.Errorf("%d metrics, want %d", len(set.got), len(set.want))
				}
				for _, m := range set.want {
					if got, ok := set.got[m[0]]; !ok || got.Unit != m[1] {
						t.Errorf("metric %s: got %+v, want unit %s", m[0], got, m[1])
					}
				}
			}
			for _, m := range e2eMetrics {
				if rep.e2e[m[0]].Value <= 0 {
					t.Errorf("end-to-end metric %s = %v, want > 0", m[0], rep.e2e[m[0]].Value)
				}
			}
		})
	}
}
