package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"webdbsec/internal/authtoken"
	"webdbsec/internal/reldb"
	"webdbsec/internal/synth"
)

// subject is a securedb client identity. Roles ride in the form fields
// beside the token, as the token binds the subject's fingerprint.
type subject struct {
	id    string
	roles []string
	// mints is false for a subject the grant catalog refuses a token.
	mints bool
}

var (
	subjAna     = &subject{id: "ana", roles: []string{"analyst"}, mints: true}
	subjRes     = &subject{id: "res", roles: []string{"researcher"}, mints: true}
	subjDBA     = &subject{id: "dba", roles: []string{"analyst"}, mints: true}
	subjMallory = &subject{id: "mallory", roles: []string{"analyst"}}
	sdbSubjects = []*subject{subjAna, subjRes, subjDBA, subjMallory}
)

type sdbKind int

const (
	kSelect sdbKind = iota
	kAgg
	kUpdate
	kInsert
	kDelete
)

// sdbReq is one securedb request in structured form; the SQL text is
// rendered from it and the oracle reasons over the structure.
type sdbReq struct {
	kind  sdbKind
	subj  *subject
	cols  []string // kSelect
	agg   string   // kAgg: COUNT(*) or MAX(age)
	where [2]string
	age   int          // kUpdate: new age
	row   synth.Person // kInsert
}

func (r *sdbReq) path() string {
	switch r.kind {
	case kSelect:
		return "/query"
	case kAgg:
		return "/agg"
	}
	return "/exec"
}

func (r *sdbReq) sql() string {
	pred := fmt.Sprintf("%s = %s", r.where[0], reldb.QuoteString(r.where[1]))
	switch r.kind {
	case kSelect:
		return fmt.Sprintf("SELECT %s FROM patients WHERE %s", strings.Join(r.cols, ", "), pred)
	case kAgg:
		return fmt.Sprintf("SELECT %s FROM patients WHERE %s", r.agg, pred)
	case kUpdate:
		return fmt.Sprintf("UPDATE patients SET age = %d WHERE %s", r.age, pred)
	case kInsert:
		return fmt.Sprintf("INSERT INTO patients VALUES (%s, %s, %d, %s)",
			reldb.QuoteString(r.row.Name), reldb.QuoteString(r.row.Zip), r.row.Age, reldb.QuoteString(r.row.Disease))
	default:
		return fmt.Sprintf("DELETE FROM patients WHERE %s", pred)
	}
}

// sdbOutcome is an answer in comparable form, whether it came over HTTP
// or from an in-process call.
type sdbOutcome struct {
	refused  bool
	rows     [][]string
	masked   []string
	affected int
}

func (a sdbOutcome) equal(b sdbOutcome) bool {
	if a.refused != b.refused || a.affected != b.affected || len(a.rows) != len(b.rows) ||
		strings.Join(a.masked, ",") != strings.Join(b.masked, ",") {
		return false
	}
	for i := range a.rows {
		if strings.Join(a.rows[i], "\t") != strings.Join(b.rows[i], "\t") {
			return false
		}
	}
	return true
}

// ---- oracle ----

// The demo policy as the oracle models it, independently of the
// server's privacy and inference packages: the attribute sets that are
// private to everyone, the set only researchers may see, and the
// re-identification rule name ∧ zip → identity.
var (
	privateSets    = [][]string{{"name", "disease"}, {"identity", "disease"}}
	researcherSets = [][]string{{"zip", "disease"}}
)

func hasRole(s *subject, role string) bool {
	for _, r := range s.roles {
		if r == role {
			return true
		}
	}
	return false
}

func containsAll(set map[string]bool, attrs []string) bool {
	for _, a := range attrs {
		if !set[a] {
			return false
		}
	}
	return true
}

func mayRelease(s *subject, attrs map[string]bool) bool {
	for _, p := range privateSets {
		if containsAll(attrs, p) {
			return false
		}
	}
	for _, p := range researcherSets {
		if containsAll(attrs, p) && !hasRole(s, "researcher") {
			return false
		}
	}
	return true
}

func closure(attrs map[string]bool) map[string]bool {
	out := make(map[string]bool, len(attrs)+1)
	for a := range attrs {
		out[a] = true
	}
	if out["name"] && out["zip"] {
		out["identity"] = true
	}
	return out
}

// ageVersion is one value a row's age was set to, by the load or by an
// UPDATE sent at issued and acknowledged at acked. A zero acked means no
// acknowledgement has been seen, so the UPDATE may commit at any time.
type ageVersion struct {
	age           int
	issued, acked time.Time
}

// window is when a read was sent and when its answer had been read.
type window struct{ sent, end time.Time }

// sdbOracle holds the expected state of the demo table and of each
// subject's release history.
type sdbOracle struct {
	mu     sync.Mutex
	people map[string]synth.Person // seclint:guardedby mu
	// ages lists every version of each row's age in issue order: its load
	// value and each UPDATE sent so far.
	ages map[string][]*ageVersion   // seclint:guardedby mu
	hist map[string]map[string]bool // seclint:guardedby mu
	// frozen is set once warm-up has reached the fixed point; after it
	// an allowed release that would grow a history is a benchmark error,
	// because concurrent order could then change outcomes.
	frozen bool // seclint:guardedby mu
}

// newSDBOracle models the freshly loaded demo.
//
// seclint:locked o is not yet published
func newSDBOracle(rows []synth.Person) *sdbOracle {
	o := &sdbOracle{people: map[string]synth.Person{}, ages: map[string][]*ageVersion{}, hist: map[string]map[string]bool{}}
	loaded := time.Now()
	for _, p := range rows {
		o.people[p.Name] = p
		o.ages[p.Name] = []*ageVersion{{age: p.Age, acked: loaded}}
	}
	return o
}

func (o *sdbOracle) freeze() {
	o.mu.Lock()
	o.frozen = true
	o.mu.Unlock()
}

// issue records an UPDATE before it is sent, so a concurrent read may
// already see its value. It returns the new version, nil for any other
// request.
func (o *sdbOracle) issue(r *sdbReq) *ageVersion {
	if r.kind != kUpdate {
		return nil
	}
	v := &ageVersion{age: r.age, issued: time.Now()}
	o.mu.Lock()
	o.ages[r.where[1]] = append(o.ages[r.where[1]], v)
	o.mu.Unlock()
	return v
}

// ack records that the UPDATE of version v was acknowledged at end: a
// read sent after end may no longer see any version this UPDATE was
// sent after.
func (o *sdbOracle) ack(v *ageVersion, end time.Time) {
	o.mu.Lock()
	v.acked = end
	o.mu.Unlock()
}

func hasGrant(s *subject) bool { return s.mints }

// visibleAges returns the ages a read over win may see in a row: those
// of versions sent before the answer was read and not yet overwritten
// when the read was sent. A version is overwritten once another UPDATE,
// sent after this version's acknowledgement, has itself been
// acknowledged.
//
// seclint:locked caller holds o.mu
func (o *sdbOracle) visibleAges(name string, win window) []int {
	vs := o.ages[name]
	var out []int
	for _, v := range vs {
		if !v.issued.Before(win.end) {
			continue
		}
		stale := false
		for _, w := range vs {
			if !v.acked.IsZero() && !w.acked.IsZero() && w.issued.After(v.acked) && w.acked.Before(win.sent) {
				stale = true
				break
			}
		}
		if !stale {
			out = append(out, v.age)
		}
	}
	return out
}

// cell returns the acceptable renderings of one column of a row to a
// read over win.
//
// seclint:locked caller holds o.mu
func (o *sdbOracle) cell(p synth.Person, col string, win window) []string {
	switch col {
	case "name":
		return []string{p.Name}
	case "zip":
		return []string{p.Zip}
	case "disease":
		return []string{p.Disease}
	case "age":
		var out []string
		for _, a := range o.visibleAges(p.Name, win) {
			out = append(out, strconv.Itoa(a))
		}
		return out
	}
	return nil
}

// matching returns the rows whose col equals val.
//
// seclint:locked caller holds o.mu
func (o *sdbOracle) matching(col, val string) []synth.Person {
	if col == "name" {
		if p, ok := o.people[val]; ok {
			return []synth.Person{p}
		}
		return nil
	}
	var out []synth.Person
	for _, p := range o.people {
		var v string
		switch col {
		case "zip":
			v = p.Zip
		case "disease":
			v = p.Disease
		}
		if v == val {
			out = append(out, p)
		}
	}
	return out
}

// check decides whether got, answered over win, is a correct answer to
// r. A refusal is correct exactly when the policy requires one; rows
// served where the policy requires a refusal are a violation.
func (o *sdbOracle) check(r *sdbReq, got sdbOutcome, win window) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	switch r.kind {
	case kSelect:
		return o.checkSelect(r, got, win)
	case kAgg:
		return o.checkAgg(r, got, win)
	}
	if got.refused {
		return fmt.Errorf("%s by %s refused", r.sql(), r.subj.id)
	}
	if got.affected != 1 {
		return fmt.Errorf("%s: %d rows affected, want 1", r.sql(), got.affected)
	}
	switch r.kind {
	case kInsert:
		o.people[r.row.Name] = r.row
		o.ages[r.row.Name] = []*ageVersion{{age: r.row.Age, acked: win.end}}
	case kDelete:
		delete(o.people, r.where[1])
		delete(o.ages, r.where[1])
	}
	return nil
}

// checkSelect checks a /query answer and, before the freeze, grows the
// subject's history.
//
// seclint:locked caller holds o.mu
func (o *sdbOracle) checkSelect(r *sdbReq, got sdbOutcome, win window) error {
	refuse := func(why string) error {
		if got.refused {
			return nil
		}
		return fmt.Errorf("policy violation: %q by %s served %d rows, want refusal (%s)", r.sql(), r.subj.id, len(got.rows), why)
	}
	if !hasGrant(r.subj) {
		return refuse("no grant")
	}
	maskedIdx, closed, allowed := o.release(r)
	if !allowed {
		return refuse("inference")
	}
	var masked []string
	for i, c := range r.cols {
		if maskedIdx[i] {
			masked = append(masked, c)
		}
	}
	if got.refused {
		return fmt.Errorf("%q by %s refused, want an answer", r.sql(), r.subj.id)
	}
	if strings.Join(got.masked, ",") != strings.Join(masked, ",") {
		return fmt.Errorf("%q by %s masked %v, want %v", r.sql(), r.subj.id, got.masked, masked)
	}
	var want [][][]string
	for _, p := range o.matching(r.where[0], r.where[1]) {
		row := make([][]string, len(r.cols))
		for i, c := range r.cols {
			if maskedIdx[i] {
				row[i] = []string{"NULL"}
			} else {
				row[i] = o.cell(p, c, win)
			}
		}
		want = append(want, row)
	}
	if err := matchRows(got.rows, want); err != nil {
		return fmt.Errorf("%q by %s: %v", r.sql(), r.subj.id, err)
	}
	hist := o.hist[r.subj.id]
	if hist == nil {
		hist = map[string]bool{}
		o.hist[r.subj.id] = hist
	}
	for a := range closed {
		if !hist[a] {
			if o.frozen {
				return fmt.Errorf("benchmark error: %q grows %s's history after warm-up", r.sql(), r.subj.id)
			}
			hist[a] = true
		}
	}
	return nil
}

// checkAgg checks an /agg answer.
//
// seclint:locked caller holds o.mu
func (o *sdbOracle) checkAgg(r *sdbReq, got sdbOutcome, win window) error {
	if !hasGrant(r.subj) {
		if got.refused {
			return nil
		}
		return fmt.Errorf("policy violation: %q by %s answered, want refusal", r.sql(), r.subj.id)
	}
	if got.refused {
		return fmt.Errorf("%q by %s refused, want an answer", r.sql(), r.subj.id)
	}
	rows := o.matching(r.where[0], r.where[1])
	var want []string
	switch {
	case r.agg == "COUNT(*)":
		want = []string{strconv.Itoa(len(rows))}
	case len(rows) == 0:
		want = []string{"NULL"}
	default: // MAX(age)
		want = o.possibleMax(rows, win)
	}
	if len(got.rows) != 1 || len(got.rows[0]) != 1 || !containsStr(want, got.rows[0][0]) {
		return fmt.Errorf("%q: got %v, want one of %v", r.sql(), got.rows, want)
	}
	return nil
}

// possibleMax returns every value MAX(age) over rows may take for a read
// over win: an age some row may show that is at least the smallest age
// each other row may show.
//
// seclint:locked caller holds o.mu
func (o *sdbOracle) possibleMax(rows []synth.Person, win window) []string {
	floor := -1
	var all []int
	for _, p := range rows {
		lowest := -1
		for _, a := range o.visibleAges(p.Name, win) {
			all = append(all, a)
			if lowest < 0 || a < lowest {
				lowest = a
			}
		}
		floor = max(floor, lowest)
	}
	var out []string
	for _, n := range all {
		if n >= floor {
			out = append(out, strconv.Itoa(n))
		}
	}
	return out
}

// matchRows pairs every served row with a distinct expected row.
func matchRows(got [][]string, want [][][]string) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d rows, want %d", len(got), len(want))
	}
	used := make([]bool, len(want))
next:
	for _, g := range got {
		for j, w := range want {
			if used[j] || len(w) != len(g) {
				continue
			}
			ok := true
			for c := range g {
				if !containsStr(w[c], g[c]) {
					ok = false
					break
				}
			}
			if ok {
				used[j] = true
				continue next
			}
		}
		return fmt.Errorf("row %v matches no expected row", g)
	}
	return nil
}

func containsStr(set []string, s string) bool {
	for _, v := range set {
		if v == s {
			return true
		}
	}
	return false
}

// ---- workload sequences ----

// sdbWorkload is the generated request sequence of a securedb workload.
type sdbWorkload struct {
	// catalog is replayed in order during warm-up until a pass changes
	// no history; warm is a short closed-loop mix that arms both
	// workers' token chains.
	catalog []*sdbReq
	warm    []*op
	open    []*op
	closed  []*op
	writes  []*op // separate open-loop write phase (sdb-read-1k)
}

func selectReq(s *subject, p synth.Person, where string, cols ...string) *sdbReq {
	val := p.Name
	if where == "zip" {
		val = p.Zip
	}
	return &sdbReq{kind: kSelect, subj: s, cols: cols, where: [2]string{where, val}}
}

func sdbOp(r *sdbReq) *op {
	c := classRead
	if r.kind >= kUpdate {
		c = classWrite
	}
	o := newOp(c)
	o.sdb = r
	return o
}

// readMix builds the sdb-read-1k request sequence. The catalog holds 140
// SELECT texts over 20 people, plus 14 aggregates and 20 mallory texts,
// so it fits the server's 256-entry parse cache.
func readMix(rng *rand.Rand, people []synth.Person, c counts) *sdbWorkload {
	w := &sdbWorkload{}
	picked := rng.Perm(len(people))[:20]
	var ps []synth.Person
	for _, i := range picked {
		ps = append(ps, people[i])
	}
	// Catalog order fixes the histories' fixed point: ana learns name
	// (through the masked read) and zip before it asks for age with
	// disease, so that request is refused from then on; res learns zip
	// and disease before it asks for name.
	var anaOK, resOK, masked, refused []*sdbReq
	for _, p := range ps {
		masked = append(masked, selectReq(subjAna, p, "name", "name", "disease"))
		anaOK = append(anaOK, selectReq(subjAna, p, "name", "zip", "age"), selectReq(subjAna, p, "zip", "age"))
		resOK = append(resOK, selectReq(subjRes, p, "name", "zip", "disease"), selectReq(subjRes, p, "zip", "age", "disease"))
	}
	for _, p := range ps {
		refused = append(refused, selectReq(subjAna, p, "name", "age", "disease"), selectReq(subjRes, p, "name", "name"))
	}
	var mallory []*sdbReq
	for _, p := range ps {
		mallory = append(mallory, selectReq(subjMallory, p, "name", "age"))
	}
	w.catalog = append(append(append(append(append(w.catalog, masked...), anaOK...), resOK...), refused...), mallory...)
	allowed := append(append([]*sdbReq(nil), anaOK...), resOK...)
	var aggs []*sdbReq
	for _, d := range synth.Diseases {
		for _, fn := range []string{"COUNT(*)", "MAX(age)"} {
			aggs = append(aggs, &sdbReq{kind: kAgg, subj: subjAna, agg: fn, where: [2]string{"disease", d}})
		}
	}
	next := func() *op {
		u := rng.Float64()
		var r *sdbReq
		switch {
		case u < 0.70:
			r = allowed[rng.Intn(len(allowed))]
		case u < 0.80:
			r = masked[rng.Intn(len(masked))]
		case u < 0.90:
			r = refused[rng.Intn(len(refused))]
		case u < 0.95:
			a := *aggs[rng.Intn(len(aggs))]
			if rng.Intn(2) == 1 {
				a.subj = subjRes
			}
			r = &a
		default:
			r = mallory[rng.Intn(len(mallory))]
		}
		return sdbOp(r)
	}
	for i := 0; i < c.warm; i++ {
		w.warm = append(w.warm, next())
	}
	for i := 0; i < c.open; i++ {
		w.open = append(w.open, next())
	}
	for i := 0; i < c.closed; i++ {
		w.closed = append(w.closed, next())
	}
	for i := 0; i < c.writes; i++ {
		p := people[rng.Intn(len(people))]
		w.writes = append(w.writes, sdbOp(&sdbReq{kind: kUpdate, subj: subjDBA, where: [2]string{"name", p.Name}, age: 18 + rng.Intn(70)}))
	}
	return w
}

// mixedMix builds the sdb-mixed-10k sequence: 80% point reads by a name
// drawn from every row, 20% writes (every fifth request, so a phase's
// write count is fixed). Writes are UPDATEs of age and
// INSERTs of fresh rows, each INSERT followed by a DELETE of its row a
// few requests later, so the table returns to its load size at the end
// of every phase.
func mixedMix(rng *rand.Rand, people []synth.Person, c counts, seed int64) *sdbWorkload {
	w := &sdbWorkload{}
	p0 := people[0]
	w.catalog = []*sdbReq{
		selectReq(subjAna, p0, "name", "zip", "age"),
		selectReq(subjRes, p0, "name", "age", "disease"),
	}
	fresh := 0
	phase := func(n int) []*op {
		var out []*op
		var pending []*op // INSERTs whose DELETE is not yet emitted
		for len(out) < n {
			if len(out)%5 != 4 {
				p := people[rng.Intn(len(people))]
				if rng.Intn(2) == 0 {
					out = append(out, sdbOp(selectReq(subjAna, p, "name", "zip", "age")))
				} else {
					out = append(out, sdbOp(selectReq(subjRes, p, "name", "age", "disease")))
				}
				continue
			}
			switch u := rng.Float64(); {
			case u < 0.5:
				p := people[rng.Intn(len(people))]
				out = append(out, sdbOp(&sdbReq{kind: kUpdate, subj: subjDBA, where: [2]string{"name", p.Name}, age: 18 + rng.Intn(70)}))
			case u < 0.75 || len(pending) == 0:
				fresh++
				row := synth.Person{Name: fmt.Sprintf("bench-%d-%06d", seed, fresh), Zip: "00000", Age: 18 + rng.Intn(70), Disease: "flu"}
				o := sdbOp(&sdbReq{kind: kInsert, subj: subjDBA, row: row})
				pending = append(pending, o)
				out = append(out, o)
			default:
				ins := pending[0]
				pending = pending[1:]
				out = append(out, deleteOf(ins))
			}
		}
		for _, ins := range pending {
			out = append(out, deleteOf(ins))
		}
		return out
	}
	w.warm = phase(c.warm)
	w.open = phase(c.open)
	w.closed = phase(c.closed)
	return w
}

func deleteOf(ins *op) *op {
	d := sdbOp(&sdbReq{kind: kDelete, subj: subjDBA, where: [2]string{"name", ins.sdb.row.Name}})
	d.after = ins
	return d
}

// warmPasses replays the catalog against a fresh model until a pass
// grows no history, and returns the resulting op sequence.
func warmPasses(catalog []*sdbReq, people []synth.Person) []*op {
	model := newSDBOracle(people)
	var ops []*op
	for pass := 0; pass < 8; pass++ {
		before := model.histSize()
		for _, r := range catalog {
			ops = append(ops, sdbOp(r))
			model.expectOnly(r)
		}
		if pass > 0 && model.histSize() == before {
			break
		}
	}
	return ops
}

func (o *sdbOracle) histSize() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	n := 0
	for _, h := range o.hist {
		n += len(h)
	}
	return n
}

// expectOnly advances the model's history as if r were answered
// correctly (the answer itself is not checked).
func (o *sdbOracle) expectOnly(r *sdbReq) {
	if r.kind != kSelect || !hasGrant(r.subj) {
		return
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	if _, closed, allowed := o.release(r); allowed {
		o.hist[r.subj.id] = closed
	}
}

// release models the privacy filter and the inference check for a
// SELECT: columns are masked greedily, later columns first, wherever
// they would complete a set the subject may not see; the released
// columns joined with the subject's history are closed under the rules
// and must still be releasable. It returns the masked column indexes,
// the closure, and whether the release is allowed.
//
// seclint:locked caller holds o.mu
func (o *sdbOracle) release(r *sdbReq) (map[int]bool, map[string]bool, bool) {
	released := map[string]bool{}
	masked := map[int]bool{}
	for i, c := range r.cols {
		trial := map[string]bool{c: true}
		for a := range released {
			trial[a] = true
		}
		if mayRelease(r.subj, trial) {
			released[c] = true
		} else {
			masked[i] = true
		}
	}
	for a := range o.hist[r.subj.id] {
		released[a] = true
	}
	closed := closure(released)
	return masked, closed, mayRelease(r.subj, closed)
}

// ---- HTTP target ----

type sdbTarget struct {
	srv    *server
	base   string
	oracle *sdbOracle
}

func (t *sdbTarget) alive() error { return t.srv.alive() }

func (t *sdbTarget) send(ctx context.Context, w *worker, o *op) (time.Time, func() error, error) {
	r := o.sdb
	v := t.oracle.issue(r)
	sent := time.Now()
	got, err := t.do(ctx, w, r)
	end := time.Now()
	if err != nil {
		return end, nil, err
	}
	if v != nil && !got.refused && got.affected == 1 {
		t.oracle.ack(v, end)
	}
	return end, func() error { return t.oracle.check(r, got, window{sent: sent, end: end}) }, nil
}

// mint runs the explicit slow path: POST /token.
func (t *sdbTarget) mint(ctx context.Context, w *worker, s *subject) (string, int, error) {
	form := url.Values{"subject": {s.id}, "roles": {strings.Join(s.roles, ",")}}
	status, body, _, err := post(ctx, w.client, t.base+"/token", form, "")
	if err != nil || status != http.StatusOK {
		return "", status, err
	}
	var mr authtoken.MintResponse
	if err := json.Unmarshal(body, &mr); err != nil {
		return "", status, fmt.Errorf("mint %s: %w", s.id, err)
	}
	return mr.Token, status, nil
}

// do sends r on w's token chain for its subject. A 401 to a presented
// token with no successor closes the chain: the worker re-mints and
// retries once.
func (t *sdbTarget) do(ctx context.Context, w *worker, r *sdbReq) (sdbOutcome, error) {
	form := url.Values{"subject": {r.subj.id}, "roles": {strings.Join(r.subj.roles, ",")}, "sql": {r.sql()}}
	for attempt := 0; ; attempt++ {
		tok := ""
		if r.subj.mints {
			tok = w.tokens[r.subj.id]
			if tok == "" {
				var status int
				var err error
				tok, status, err = t.mint(ctx, w, r.subj)
				if err != nil || status != http.StatusOK {
					return sdbOutcome{}, fmt.Errorf("mint %s: status %d: %v", r.subj.id, status, err)
				}
			}
		}
		status, body, succ, err := post(ctx, w.client, t.base+r.path(), form, tok)
		if err != nil {
			return sdbOutcome{}, err
		}
		if succ != "" {
			w.tokens[r.subj.id] = succ
		} else if tok != "" {
			delete(w.tokens, r.subj.id)
			if status == http.StatusUnauthorized && attempt == 0 {
				continue
			}
		}
		return parseSDB(r, status, body)
	}
}

// post sends a form POST with an optional token and returns the status,
// body and successor token.
func post(ctx context.Context, c *http.Client, u string, form url.Values, tok string) (int, []byte, string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, u, strings.NewReader(form.Encode()))
	if err != nil {
		return 0, nil, "", err
	}
	req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
	if tok != "" {
		req.Header.Set(authtoken.TokenHeader, tok)
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, "", err
	}
	return resp.StatusCode, body, resp.Header.Get(authtoken.TokenHeader), nil
}

// parseSDB turns a securedb HTTP answer into an outcome. Any 4xx is a
// refusal, which must carry no rows; a 5xx is a failure.
func parseSDB(r *sdbReq, status int, body []byte) (sdbOutcome, error) {
	text := strings.TrimRight(string(body), "\n")
	switch {
	case status >= 400 && status < 500:
		if strings.Contains(text, "\n") || strings.Contains(text, "\t") {
			return sdbOutcome{}, fmt.Errorf("policy violation: %q refused with %d but the body carries rows: %q", r.sql(), status, text)
		}
		return sdbOutcome{refused: true}, nil
	case status != http.StatusOK:
		return sdbOutcome{}, fmt.Errorf("%q: status %d: %s", r.sql(), status, text)
	}
	if r.path() == "/exec" {
		var n int
		if _, err := fmt.Sscanf(text, "ok, %d row(s) affected", &n); err != nil {
			return sdbOutcome{}, fmt.Errorf("%q: unexpected answer %q", r.sql(), text)
		}
		return sdbOutcome{affected: n}, nil
	}
	lines := strings.Split(text, "\n")
	var out sdbOutcome
	for _, l := range lines[1:] {
		if m, ok := strings.CutPrefix(l, "# masked by privacy constraints: "); ok {
			out.masked = strings.Split(m, ", ")
			continue
		}
		if strings.HasPrefix(l, "# ") {
			continue
		}
		out.rows = append(out.rows, strings.Split(l, "\t"))
	}
	sortRows(out.rows)
	return out, nil
}

func sortRows(rows [][]string) {
	sort.Slice(rows, func(i, j int) bool { return strings.Join(rows[i], "\t") < strings.Join(rows[j], "\t") })
}
