package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"webdbsec/internal/audit"
	"webdbsec/internal/authtoken"
	"webdbsec/internal/core"
	"webdbsec/internal/credential"
	"webdbsec/internal/inference"
	"webdbsec/internal/keymgmt"
	"webdbsec/internal/policy"
	"webdbsec/internal/privacy"
	"webdbsec/internal/reldb"
	"webdbsec/internal/synth"
	"webdbsec/internal/sysr"
	"webdbsec/internal/uddi"
	"webdbsec/internal/wal"
	"webdbsec/internal/wsa"
	"webdbsec/internal/wsig"
)

// The traced run rebuilds each server's pipeline in-process from the
// layers' public functions and replays the workload's request sequence
// twice on fresh instances: once through the same entry points the
// server calls (untraced), once through the individual stage calls with
// a span around each. Spans live in memory until the run ends.

// tokenTTL matches both servers' -tokenttl default.
const tokenTTL = 2 * time.Minute

// span is one timed call. Spans of one request share req; the request's
// root span has parent -1.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer records spans relative to its creation. A nil tracer records
// nothing, which is how the untraced replay runs the same code.
type tracer struct {
	t0    time.Time
	spans []span
	req   int
	root  int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens request req's root span.
func (t *tracer) begin(req int) {
	if t == nil {
		return
	}
	t.req = req
	t.root = len(t.spans)
	now := int64(time.Since(t.t0))
	t.spans = append(t.spans, span{ID: t.root, Parent: -1, Req: req, Name: "request", Start: now, End: now})
}

// end closes the current root span.
func (t *tracer) end() {
	if t == nil {
		return
	}
	t.spans[t.root].End = int64(time.Since(t.t0))
}

// stage times fn as a child of the current request.
func (t *tracer) stage(name string, fn func()) {
	if t == nil {
		fn()
		return
	}
	start := int64(time.Since(t.t0))
	fn()
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: t.root, Req: t.req, Name: name, Start: start, End: int64(time.Since(t.t0))})
}

// durations groups the child spans of requests >= fromReq by name.
func (t *tracer) durations(fromReq int) map[string][]time.Duration {
	out := map[string][]time.Duration{}
	for _, s := range t.spans {
		if s.Parent >= 0 && s.Req >= fromReq {
			out[s.Name] = append(out[s.Name], time.Duration(s.End-s.Start))
		}
	}
	for _, d := range out {
		sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	}
	return out
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerStats collects the per-layer metrics of a traced run.
type layerStats map[string]metric

func (l layerStats) set(name string, v float64, unit string) { l[name] = metric{Value: v, Unit: unit} }

// times reports a stage's p50 and p99 in µs. A p99 with fewer than
// minTail samples beyond it is flagged on stderr.
func (l layerStats) times(name string, d []time.Duration) {
	p50, _ := quantile(d, 0.50)
	p99, beyond := quantile(d, 0.99)
	if len(d) > 0 && beyond < minTail {
		warnf("%s.p99: underpowered (%d samples)", name, len(d))
	}
	l.set(name+".p50", us(p50), "us")
	l.set(name+".p99", us(p99), "us")
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// replayResult is one replay's outcome sequence and cost.
type replayResult struct {
	outcomes []string
	// wall is the measured part's time, minus bookkeeping calls the
	// traced replay makes outside its spans.
	wall time.Duration
	// pipeline holds per-request in-process times of measured reads.
	pipeline      []time.Duration
	allocs, bytes float64
	failed        int
	firstFailure  string
	measured      int
	stats         layerStats
	tracer        *tracer
}

func (r *replayResult) fail(i int, err error) {
	r.failed++
	if r.firstFailure == "" {
		r.firstFailure = fmt.Sprintf("request %d: %v", i, err)
	}
}

// ---- securedb ----

// grantGate mirrors securedb's mint gate: a token only for a subject
// holding a Select grant on the demo table.
type grantGate struct{ w *core.SecureWebDB }

func (g grantGate) AllowMint(s *policy.Subject) bool {
	return g.w.DB().Grants().HasPrivilege(s.ID, sysr.Select, "patients")
}

// sdbStack is securedb's durable single-node configuration, built from
// public calls the way cmd/securedb does it.
type sdbStack struct {
	w               *core.SecureWebDB
	db              *reldb.Database
	svc             *authtoken.Service
	dbWAL, auditWAL *wal.WAL
	loadInsert      []time.Duration
}

func newSDBStack(dir string, people []synth.Person) (*sdbStack, error) {
	policyAlways, err := wal.ParseSyncPolicy("always")
	if err != nil {
		return nil, err
	}
	s := &sdbStack{}
	s.dbWAL, err = wal.Open(wal.Options{FS: wal.DirFS(filepath.Join(dir, "db")), Policy: policyAlways, MaxBatchBytes: 1 << 20})
	if err != nil {
		return nil, err
	}
	s.auditWAL, err = wal.Open(wal.Options{FS: wal.DirFS(filepath.Join(dir, "audit")), Policy: policyAlways, MaxBatchBytes: 1 << 20})
	if err != nil {
		s.dbWAL.Close()
		return nil, err
	}
	if err := s.open(people); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

func (s *sdbStack) open(people []synth.Person) error {
	var err error
	s.db, err = reldb.OpenDatabase(s.dbWAL)
	if err != nil {
		return err
	}
	auditLog, err := audit.OpenLog(s.auditWAL)
	if err != nil {
		return err
	}
	s.w = core.NewSecureWebDB(core.Config{DB: reldb.NewSecureDB(s.db, nil), Audit: auditLog})
	if err := s.loadDemo(people); err != nil {
		return err
	}
	ring, err := keymgmt.NewMintKeyring(2)
	if err != nil {
		return err
	}
	minter, err := authtoken.NewMinter(ring, credential.NewVerifier(), grantGate{w: s.w}, tokenTTL)
	if err != nil {
		return err
	}
	s.svc = &authtoken.Service{Gate: &authtoken.Gate{Verifier: authtoken.NewVerifier(ring, tokenTTL, 0, 0), Minter: minter}}
	return nil
}

func (s *sdbStack) close() {
	if s.dbWAL != nil {
		s.dbWAL.Close()
	}
	if s.auditWAL != nil {
		s.auditWAL.Close()
	}
}

// loadDemo installs securedb's demo configuration: the table and rows,
// grants, row policy, three privacy constraints and the
// re-identification rule. The last decile of the row inserts is timed.
func (s *sdbStack) loadDemo(people []synth.Person) error {
	w := s.w
	dba := &policy.Subject{ID: "dba"}
	if err := w.DB().CreateTable(dba, "CREATE TABLE patients (name TEXT, zip TEXT, age INT, disease TEXT)"); err != nil {
		return err
	}
	for i, p := range people {
		stmt := fmt.Sprintf("INSERT INTO patients VALUES (%s, %s, %d, %s)",
			reldb.QuoteString(p.Name), reldb.QuoteString(p.Zip), p.Age, reldb.QuoteString(p.Disease))
		t0 := time.Now()
		if _, err := w.DB().Exec(dba, stmt); err != nil {
			return err
		}
		if i >= len(people)*9/10 {
			s.loadInsert = append(s.loadInsert, time.Since(t0))
		}
	}
	for _, grantee := range []string{"ana", "res"} {
		if err := w.DB().Grants().Grant("dba", grantee, sysr.Select, "patients", false); err != nil {
			return err
		}
	}
	pred := reldb.MustParse("SELECT * FROM patients WHERE age >= 0").(*reldb.SelectStmt).Where
	if err := w.DB().AddRowPolicy(&reldb.RowPolicy{
		Name: "analysts-see-all", Table: "patients",
		Subject: policy.SubjectSpec{Roles: []string{"analyst", "researcher"}}, Pred: pred,
	}); err != nil {
		return err
	}
	for _, c := range []*privacy.Constraint{
		{Name: "name-disease-private", Attrs: []string{"name", "disease"}, Class: privacy.Private},
		{Name: "zip-disease-research", Attrs: []string{"zip", "disease"}, Class: privacy.SemiPrivate, NeedToKnow: []string{"researcher"}},
		{Name: "identity-disease-private", Attrs: []string{"identity", "disease"}, Class: privacy.Private},
	} {
		if err := w.Privacy().Add(c); err != nil {
			return err
		}
	}
	return w.Inference().AddRule(&inference.Rule{Name: "reidentification", Body: []string{"name", "zip"}, Head: "identity"})
}

// authorize runs the token gate on a request shaped like the server's:
// form fields plus the token header. It returns the serving subject and
// the successor token.
func authorize(svc *authtoken.Service, s *policy.Subject, tok, walletEnc string) (*policy.Subject, string, bool) {
	form := url.Values{"subject": {s.ID}, "roles": {strings.Join(s.Roles, ",")}}
	req := httptest.NewRequest(http.MethodPost, "/", strings.NewReader(form.Encode()))
	req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
	if tok != "" {
		req.Header.Set(authtoken.TokenHeader, tok)
	}
	if walletEnc != "" {
		req.Header.Set(authtoken.WalletHeader, walletEnc)
	}
	rec := httptest.NewRecorder()
	subj, ok := svc.Authorize(rec, req)
	return subj, rec.Header().Get(authtoken.TokenHeader), ok
}

func (s *sdbStack) mint(sub *subject) (string, error) {
	t, err := s.svc.Gate.Minter.Mint(&policy.Subject{ID: sub.id, Roles: sub.roles}, time.Now())
	if err != nil {
		return "", err
	}
	return t.EncodeString(), nil
}

func resultOutcome(res *reldb.Result, masked []string) sdbOutcome {
	out := sdbOutcome{masked: masked}
	for _, row := range res.Rows {
		cells := make([]string, len(row))
		for i, v := range row {
			cells[i] = v.String()
		}
		out.rows = append(out.rows, cells)
	}
	sortRows(out.rows)
	return out
}

// sdbCounters are the cumulative counters read around the measured part.
type sdbCounters struct {
	gate           authtoken.GateStats
	parse          uint64
	parseHits      uint64
	dbWAL, auditW  wal.Stats
	checks, refuse int
}

func (s *sdbStack) counters() sdbCounters {
	ps := s.w.DB().ParseCacheStats()
	return sdbCounters{gate: s.svc.Gate.Stats(), parse: ps.Hits + ps.Misses, parseHits: ps.Hits, dbWAL: s.dbWAL.Stats(), auditW: s.auditWAL.Stats()}
}

// replaySDB replays ops on a fresh stack. measuredFrom is the index of
// the first measured op; ops before it are warm-up. With tr nil the
// stages run through core.Query/Execute, otherwise stage by stage.
func replaySDB(ctx context.Context, dir string, people []synth.Person, ops []*op, warmCatalog, measuredFrom int, tr *tracer) (*replayResult, error) {
	st, err := newSDBStack(dir, people)
	if err != nil {
		return nil, err
	}
	defer st.close()
	rr := &replayResult{stats: layerStats{}, tracer: tr}
	oracle := newSDBOracle(people)
	tokens := map[string]string{}
	for _, sub := range sdbSubjects {
		if sub.mints {
			if tokens[sub.id], err = st.mint(sub); err != nil {
				return nil, err
			}
		}
	}
	var before sdbCounters
	var mem0 runtime.MemStats
	var start time.Time
	var extra time.Duration
	var examined, returned float64
	var parseTimes []time.Duration
	checks, refusals := 0, 0
	for i, o := range ops {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if i == warmCatalog {
			oracle.freeze()
		}
		if i == measuredFrom {
			before = st.counters()
			runtime.ReadMemStats(&mem0)
			start = time.Now()
		}
		r := o.sdb
		v := oracle.issue(r)
		sql := r.sql()
		t0 := time.Now()
		tr.begin(i)
		var subj *policy.Subject
		var succ string
		ok := false
		tr.stage("authtoken.authorize", func() {
			subj, succ, ok = authorize(st.svc, &policy.Subject{ID: r.subj.id, Roles: r.subj.roles}, tokens[r.subj.id], "")
		})
		if !ok {
			tr.end()
			rr.fail(i, fmt.Errorf("authorize %s refused", r.subj.id))
			rr.outcomes = append(rr.outcomes, "unauthorized")
			continue
		}
		if succ != "" {
			tokens[r.subj.id] = succ
		}
		var got sdbOutcome
		var missBefore uint64
		if tr != nil && r.kind == kSelect {
			missBefore = st.w.DB().ParseCacheStats().Misses
		}
		switch {
		case r.kind == kAgg:
			tr.stage("reldb.agg", func() {
				res, err := st.w.DB().ExecAggregateSecure(subj, sql)
				if err != nil {
					got = sdbOutcome{refused: true}
				} else {
					got = resultOutcome(res, nil)
				}
			})
		case tr == nil && r.kind == kSelect:
			out, err := st.w.Query(subj, sql)
			if err != nil {
				got = sdbOutcome{refused: true}
			} else {
				got = resultOutcome(out.Result, out.MaskedColumns)
			}
		case tr == nil:
			res, err := st.w.Execute(subj, sql)
			if err != nil {
				got = sdbOutcome{refused: true}
			} else {
				got = sdbOutcome{affected: res.Affected}
			}
		case r.kind == kSelect:
			got, checks, refusals = tracedQuery(st, tr, subj, sql, checks, refusals)
		default:
			var res *reldb.Result
			var err error
			tr.stage("reldb.commit", func() { res, err = st.w.DB().Exec(subj, sql) })
			verdict := "permit"
			if err != nil {
				verdict = "deny"
				got = sdbOutcome{refused: true}
			} else {
				got = sdbOutcome{affected: res.Affected}
			}
			tr.stage("audit.append", func() { st.w.Audit().Append(subj.ID, "execute", sql, verdict) })
		}
		tr.end()
		elapsed := time.Since(t0)
		answered := t0.Add(elapsed)
		if v != nil && !got.refused && got.affected == 1 {
			oracle.ack(v, answered)
		}
		if i >= measuredFrom && o.class == classRead {
			rr.pipeline = append(rr.pipeline, elapsed)
		}
		if tr != nil && r.kind == kSelect && i >= measuredFrom {
			// Bookkeeping outside the spans: the plan's examined rows and
			// a timed parse of every text that missed the parse cache.
			b0 := time.Now()
			if plan, err := st.db.Explain(sql); err == nil && !got.refused {
				examined += float64(plan.EstRows)
				returned += float64(len(got.rows))
			}
			if st.w.DB().ParseCacheStats().Misses > missBefore {
				p0 := time.Now()
				if _, err := reldb.Parse(sql); err != nil {
					return nil, err
				}
				parseTimes = append(parseTimes, time.Since(p0))
			}
			extra += time.Since(b0)
		}
		rr.outcomes = append(rr.outcomes, fmt.Sprintf("%v|%v|%v|%d", got.refused, got.rows, got.masked, got.affected))
		if err := oracle.check(r, got, window{sent: t0, end: answered}); err != nil {
			rr.fail(i, err)
		}
	}
	rr.wall = time.Since(start) - extra
	rr.measured = len(ops) - measuredFrom
	var mem1 runtime.MemStats
	runtime.ReadMemStats(&mem1)
	n := float64(rr.measured)
	rr.allocs = float64(mem1.Mallocs-mem0.Mallocs) / n
	rr.bytes = float64(mem1.TotalAlloc-mem0.TotalAlloc) / n
	if tr == nil {
		return rr, nil
	}
	after := st.counters()
	l := rr.stats
	d := tr.durations(measuredFrom)
	l.times("authtoken.authorize_us", d["authtoken.authorize"])
	l.times("reldb.exec_us", d["reldb.exec"])
	l.times("reldb.commit_us", d["reldb.commit"])
	l.times("privacy.filter_us", d["privacy.filter"])
	l.times("inference.check_us", d["inference.check"])
	l.times("audit.append_us", d["audit.append"])
	sort.Slice(parseTimes, func(i, j int) bool { return parseTimes[i] < parseTimes[j] })
	l.times("reldb.parse_us", parseTimes)
	p50, _ := quantile(st.loadInsert, 0.5)
	l.set("reldb.load_insert_us", us(p50), "us")
	gateFast := float64(after.gate.FastPath - before.gate.FastPath)
	gateSlow := float64(after.gate.SlowPath - before.gate.SlowPath)
	l.set("authtoken.mints_per_req", ratio(float64(after.gate.Mint.Minted-before.gate.Mint.Minted), n), "1/req")
	l.set("authtoken.fast_path_ratio", ratio(gateFast, gateFast+gateSlow), "ratio")
	l.set("reldb.rows_examined_per_row", ratio(examined, returned), "ratio")
	l.set("reldb.parse_cache_hit_ratio", ratio(float64(after.parseHits-before.parseHits), float64(after.parse-before.parse)), "ratio")
	l.set("reldb.versions_retained", float64(st.db.VersionStats().Retained), "count")
	l.set("inference.refused_ratio", ratio(float64(refusals), float64(checks)), "ratio")
	l.set("audit.resident_records", float64(st.w.Audit().Len()), "count")
	commits := float64(len(d["reldb.commit"]))
	l.set("wal.db.fsyncs_per_commit", ratio(float64(after.dbWAL.Fsyncs-before.dbWAL.Fsyncs), commits), "ratio")
	l.set("wal.audit.fsyncs_per_req", ratio(float64(after.auditW.Fsyncs-before.auditW.Fsyncs), n), "1/req")
	l.set("wal.audit.batch_records", ratio(float64(after.auditW.BatchFrames-before.auditW.BatchFrames), float64(after.auditW.Batches-before.auditW.Batches)), "records")
	l.set("wal.bytes_per_req", ratio(float64(after.dbWAL.BytesWritten-before.dbWAL.BytesWritten+after.auditW.BytesWritten-before.auditW.BytesWritten), n), "B/req")
	return rr, nil
}

// tracedQuery runs core.Query's stages one by one: access-controlled
// execution, privacy filter, inference check, audit append.
func tracedQuery(st *sdbStack, tr *tracer, subj *policy.Subject, sql string, checks, refusals int) (sdbOutcome, int, int) {
	w := st.w
	var res *reldb.Result
	var err error
	tr.stage("reldb.exec", func() { res, err = w.DB().Exec(subj, sql) })
	if err != nil {
		tr.stage("audit.append", func() { w.Audit().Append(subj.ID, "query", sql, "deny:access") })
		return sdbOutcome{refused: true}, checks, refusals
	}
	var masked []string
	tr.stage("privacy.filter", func() { masked = w.Privacy().FilterResult(subj, res) })
	maskedSet := map[string]bool{}
	for _, m := range masked {
		maskedSet[m] = true
	}
	var released []string
	for _, c := range res.Columns {
		if !maskedSet[c] {
			released = append(released, c)
		}
	}
	var dec inference.Decision
	tr.stage("inference.check", func() { dec = w.Inference().Check(subj, released) })
	checks++
	if !dec.Allowed {
		refusals++
		tr.stage("audit.append", func() { w.Audit().Append(subj.ID, "query", sql, "deny:inference:"+dec.Violation) })
		return sdbOutcome{refused: true}, checks, refusals
	}
	tr.stage("audit.append", func() { w.Audit().Append(subj.ID, "query", sql, "permit") })
	return resultOutcome(res, masked), checks, refusals
}

// ---- uddiserver ----

// walletGate mirrors uddiserver's mint gate: an identified sender whose
// wallet carried at least one verified credential.
type walletGate struct{}

func (walletGate) AllowMint(s *policy.Subject) bool {
	return s.ID != "" && s.Wallet != nil && len(s.Wallet.Credentials) > 0
}

// uddiStack is uddiserver's untrusted-agency configuration. Its
// RegistryServer has no auth of its own: authentication is timed as a
// separate stage through the same token service the server mounts.
type uddiStack struct {
	agency  *uddi.UntrustedAgency
	rs      *wsa.RegistryServer
	svc     *authtoken.Service
	dir     *wsig.KeyDirectory
	publish []time.Duration
}

func newUDDIStack(entries int, ca *credential.Authority) (*uddiStack, error) {
	base := policy.NewBase(nil)
	base.MustAdd(&policy.Policy{
		Name: "entries-public", Subject: policy.SubjectSpec{IDs: []string{"*"}},
		Object: policy.ObjectSpec{Doc: "*"}, Priv: policy.Read, Sign: policy.Permit, Prop: policy.Cascade,
	})
	base.MustAdd(&policy.Policy{
		Name: "bindings-partner-only", Subject: policy.SubjectSpec{NotRoles: []string{"partner"}},
		Object: policy.ObjectSpec{Doc: "*", Path: "//bindingTemplate"}, Priv: policy.Read, Sign: policy.Deny, Prop: policy.Cascade,
	})
	s := &uddiStack{agency: uddi.NewUntrustedAgency(base), dir: wsig.NewKeyDirectory()}
	prov, err := uddi.NewProvider(providerName)
	if err != nil {
		return nil, err
	}
	s.dir.RegisterSigner(prov.Signer())
	for i := 0; i < entries; i++ {
		entry, err := prov.Sign(synth.Entity(entryKey(i), "logistics", 2))
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		if err := s.agency.Publish(entry); err != nil {
			return nil, err
		}
		if i >= entries*9/10 {
			s.publish = append(s.publish, time.Since(t0))
		}
	}
	s.rs = &wsa.RegistryServer{Registry: uddi.NewRegistry(nil), Agency: s.agency}
	ring, err := keymgmt.NewMintKeyring(2)
	if err != nil {
		return nil, err
	}
	cv := credential.NewVerifier()
	cv.TrustAuthority(ca)
	minter, err := authtoken.NewMinter(ring, cv, walletGate{}, tokenTTL)
	if err != nil {
		return nil, err
	}
	s.svc = &authtoken.Service{Gate: &authtoken.Gate{Verifier: authtoken.NewVerifier(ring, tokenTTL, 0, 0), Minter: minter}}
	return s, nil
}

// replayUDDI replays ops on a fresh agency; see replaySDB.
func replayUDDI(ctx context.Context, entries int, ca *credential.Authority, ops []*op, measuredFrom int, tr *tracer) (*replayResult, error) {
	st, err := newUDDIStack(entries, ca)
	if err != nil {
		return nil, err
	}
	rr := &replayResult{stats: layerStats{}, tracer: tr}
	tokens := map[string]string{}
	for _, q := range uniqueRequestors(ops) {
		t, err := st.svc.Gate.Minter.Mint(&policy.Subject{ID: q.id, Roles: q.roles(), Wallet: q.wallet}, time.Now())
		if err != nil {
			return nil, err
		}
		tokens[q.id] = t.EncodeString()
	}
	var gate0 authtoken.GateStats
	var cache0 uddiCacheCounters
	var mem0 runtime.MemStats
	var start time.Time
	var extra time.Duration
	for i, o := range ops {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if i == measuredFrom {
			gate0 = st.svc.Gate.Stats()
			cache0 = cacheCounters(st.agency)
			runtime.ReadMemStats(&mem0)
			start = time.Now()
		}
		r := o.uddi
		t0 := time.Now()
		tr.begin(i)
		who := &policy.Subject{ID: r.who.id, Roles: r.who.roles()}
		wallet := ""
		if tokens[r.who.id] == "" {
			wallet = r.who.walletEnc
		}
		var succ string
		ok := false
		tr.stage("authtoken.authorize", func() { _, succ, ok = authorize(st.svc, who, tokens[r.who.id], wallet) })
		tokens[r.who.id] = succ
		if !ok {
			tr.end()
			rr.fail(i, fmt.Errorf("authorize %s refused", r.who.id))
			rr.outcomes = append(rr.outcomes, "unauthorized")
			continue
		}
		rec := httptest.NewRecorder()
		tr.stage("wsa.serve", func() {
			req := httptest.NewRequest(http.MethodPost, "/", strings.NewReader(r.envelope()))
			req.Header.Set("Content-Type", "application/xml")
			st.rs.ServeHTTP(rec, req)
		})
		served := time.Since(t0)
		if !r.save {
			// RegistryServer holds the concrete agency, so the Query it
			// made cannot be wrapped: uddi.query_us times the same call
			// repeated here. Both replays make it, so both run against
			// the same decision-cache state, and neither counts it in
			// its wall time.
			q0 := time.Now()
			tr.stage("uddi.query", func() { _, err = st.agency.Query(who, r.key) })
			if i >= measuredFrom {
				extra += time.Since(q0)
			}
			if err != nil {
				rr.fail(i, err)
			}
		}
		var got uddiOutcome
		var cerr error
		if r.save {
			cerr = checkSave(r, rec.Code, rec.Body.Bytes())
		} else {
			var res *uddi.AuthenticatedResult
			tr.stage("merkle.verify", func() { res, cerr = verifyAnswer(rec.Code, rec.Body.Bytes(), st.dir) })
			if cerr == nil {
				got, cerr = checkView(r, res)
			}
		}
		tr.end()
		if i >= measuredFrom && o.class == classRead {
			rr.pipeline = append(rr.pipeline, served)
		}
		if cerr != nil {
			rr.fail(i, cerr)
		}
		rr.outcomes = append(rr.outcomes, fmt.Sprintf("%v|%v|%v", r.save, cerr == nil, got.bindings))
	}
	rr.wall = time.Since(start) - extra
	rr.measured = len(ops) - measuredFrom
	var mem1 runtime.MemStats
	runtime.ReadMemStats(&mem1)
	n := float64(rr.measured)
	rr.allocs = float64(mem1.Mallocs-mem0.Mallocs) / n
	rr.bytes = float64(mem1.TotalAlloc-mem0.TotalAlloc) / n
	if tr == nil {
		return rr, nil
	}
	gate1 := st.svc.Gate.Stats()
	cache1 := cacheCounters(st.agency)
	l := rr.stats
	d := tr.durations(measuredFrom)
	l.times("authtoken.authorize_us", d["authtoken.authorize"])
	l.times("wsa.serve_us", d["wsa.serve"])
	l.times("uddi.query_us", d["uddi.query"])
	l.times("merkle.verify_us", d["merkle.verify"])
	p50, _ := quantile(st.publish, 0.5)
	l.set("uddi.publish_us", us(p50), "us")
	fast := float64(gate1.FastPath - gate0.FastPath)
	slow := float64(gate1.SlowPath - gate0.SlowPath)
	l.set("authtoken.mints_per_req", ratio(float64(gate1.Mint.Minted-gate0.Mint.Minted), n), "1/req")
	l.set("authtoken.fast_path_ratio", ratio(fast, fast+slow), "ratio")
	// Every extra uddi.query call re-reads the labels wsa.serve just
	// cached; those hits are the benchmark's, not the workload's.
	hits := float64(cache1.hits-cache0.hits) - float64(len(d["uddi.query"]))
	l.set("decisioncache.labels_hit_ratio", ratio(hits, hits+float64(cache1.misses-cache0.misses)), "ratio")
	l.set("decisioncache.evictions_per_req", ratio(float64(cache1.evictions-cache0.evictions), n), "1/req")
	return rr, nil
}

type uddiCacheCounters struct{ hits, misses, evictions uint64 }

func cacheCounters(a *uddi.UntrustedAgency) uddiCacheCounters {
	s := a.CacheStats().Labels
	return uddiCacheCounters{hits: s.Hits, misses: s.Misses, evictions: s.Evictions}
}

func uniqueRequestors(ops []*op) []*requestor {
	seen := map[*requestor]bool{}
	var out []*requestor
	for _, o := range ops {
		if q := o.uddi.who; !seen[q] {
			seen[q] = true
			out = append(out, q)
		}
	}
	return out
}
