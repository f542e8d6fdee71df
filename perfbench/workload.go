package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"math/rand"
	"net/http"
	"net/url"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"webdbsec/internal/credential"
	"webdbsec/internal/synth"
	"webdbsec/internal/wsig"
)

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	root     string
}

// inFlight is the generator's concurrency: the box's two vCPUs.
const inFlight = 2

// The in-process replays cover warm-up and at most these many requests
// of the open-loop mix and of the write phase, which keeps a traced run
// of sdb-mixed-10k well inside three minutes.
const (
	replayOpen   = 2000
	replayWrites = 1000
)

// replayed returns the measured requests the in-process replays send.
func replayed(open, writes []*op) []*op {
	return append(append([]*op(nil), open[:min(len(open), replayOpen)]...), writes[:min(len(writes), replayWrites)]...)
}

// counts are the fixed request counts of a run's phases.
type counts struct{ warm, open, closed, writes int }

// spec is one workload. The open-loop rates are constants, so every
// commit is offered the same load; see README.md for how they were chosen.
type spec struct {
	name string
	uddi bool
	// rows is the securedb -people count or the uddiserver -demo count.
	rows int
	// rate is the open-loop rate of the mix phase; writeRate that of the
	// separate write phase of workloads whose mix has no writes.
	rate, writeRate float64
	// base holds the request counts of a 10-second run. Each latency
	// class gets at least 1000 open-loop samples, so its p99 has ten
	// samples beyond it.
	base counts
	// launches is how many times a -trace 0 run launches the server to
	// time set-up; it reports the median and measures on the last launch.
	// Cheap set-ups launch more often.
	launches int
}

var specs = []spec{
	{name: "sdb-read-1k", rows: 1000, rate: 250, writeRate: 300, launches: 7,
		base: counts{warm: 200, open: 2500, closed: 6000, writes: 1200}},
	{name: "sdb-mixed-10k", rows: 10000, rate: 120, launches: 2,
		base: counts{warm: 100, open: 5000, closed: 1500}},
	{name: "uddi-auth-4k", uddi: true, rows: 4000, rate: 250, writeRate: 400, launches: 3,
		base: counts{warm: 300, open: 2500, closed: 5000, writes: 1200}},
}

func lookupSpec(name string) (spec, error) {
	var names []string
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
		names = append(names, s.name)
	}
	return spec{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// scaled sizes the counts for a run of the given length.
func (s spec) scaled(seconds int) counts {
	f := func(n int) int {
		if n == 0 {
			return 0
		}
		v := n * seconds / 10
		if v < 1 {
			v = 1
		}
		return v
	}
	return counts{warm: f(s.base.warm), open: f(s.base.open), closed: f(s.base.closed), writes: f(s.base.writes)}
}

// End-to-end and per-layer metric names with their units. Every run
// reports every name of its kind; a layer the workload does not run
// reports 0. The open-loop p99s are reported with the per-layer metrics,
// which carry no regression bound: on a shared 2-vCPU host their
// run-to-run spread is wider than any bound a regression gate can use.
var e2eMetrics = [][2]string{
	{"setup_s", "s"}, {"read_p50_ms", "ms"}, {"write_p50_ms", "ms"},
	{"capacity_rps", "req/s"}, {"server_cpu_us_per_req", "us"}, {"server_rss_mb", "MiB"},
}

var layerMetrics = func() [][2]string {
	var out [][2]string
	for _, t := range []string{
		"authtoken.authorize_us", "reldb.exec_us", "reldb.parse_us", "reldb.commit_us", "privacy.filter_us",
		"inference.check_us", "audit.append_us", "wsa.serve_us", "uddi.query_us", "merkle.verify_us",
	} {
		out = append(out, [2]string{t + ".p50", "us"}, [2]string{t + ".p99", "us"})
	}
	return append(out, [][2]string{
		{"authtoken.mints_per_req", "1/req"}, {"authtoken.fast_path_ratio", "ratio"},
		{"reldb.rows_examined_per_row", "ratio"}, {"reldb.parse_cache_hit_ratio", "ratio"},
		{"reldb.load_insert_us", "us"}, {"reldb.versions_retained", "count"},
		{"inference.refused_ratio", "ratio"}, {"audit.resident_records", "count"},
		{"wal.db.fsyncs_per_commit", "ratio"}, {"wal.audit.fsyncs_per_req", "1/req"},
		{"wal.audit.batch_records", "records"}, {"wal.bytes_per_req", "B/req"},
		{"uddi.publish_us", "us"}, {"decisioncache.labels_hit_ratio", "ratio"}, {"decisioncache.evictions_per_req", "1/req"},
		{"pipeline.allocs_per_req", "1/req"}, {"pipeline.bytes_per_req", "B/req"}, {"http.overhead_us", "us"},
		{"read_p99_ms", "ms"}, {"write_p99_ms", "ms"},
		{"gen.late_p99_ms", "ms"}, {"trace.overhead_ratio", "ratio"}, {"failed_ratio", "ratio"},
	}...)
}()

// report is everything one run measured.
type report struct {
	env               map[string]any
	e2e, layers       map[string]metric
	attempted, failed int64
}

func sortedKeys(m map[string]metric) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// phaseResult carries what the HTTP phases measured.
type phaseResult struct {
	setups       []float64
	open, writes []sample
	closed       []sample
	rssMiB       float64
	// cpuPerReq is the server's CPU time over the measured phases per
	// request sent in them.
	cpuPerReq time.Duration
	// Per segment: the open-loop read and write latencies (write phase
	// included), the closed-loop throughput, and the share of the
	// machine's CPU time the hypervisor gave to other guests.
	segReads, segWrites [][]time.Duration
	segRates, segSteal  []float64
	// steal is the stolen share over all measured phases.
	steal float64
}

func runWorkload(ctx context.Context, cfg config) (*report, error) {
	sp, err := lookupSpec(cfg.workload)
	if err != nil {
		return nil, err
	}
	root, err := filepath.Abs(cfg.root)
	if err != nil {
		return nil, err
	}
	for _, need := range []string{"go.mod", "cmd/securedb", "cmd/uddiserver"} {
		if _, err := os.Stat(filepath.Join(root, need)); err != nil {
			return nil, fmt.Errorf("%s is not a repository checkout: %v", root, err)
		}
	}
	work := filepath.Join(root, ".bench_build", fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	bin := filepath.Join(work, "bin")
	if err := buildServers(ctx, root, bin); err != nil {
		return nil, err
	}
	c := sp.scaled(cfg.seconds)
	run := &workloadRun{cfg: cfg, sp: sp, c: c, work: work, bin: bin, quick: cfg.seconds < 10,
		rng: rand.New(rand.NewSource(cfg.seed))}
	rep := &report{e2e: map[string]metric{}, layers: map[string]metric{}}
	rep.env = environment(root, cfg, sp, c)
	if sp.uddi {
		err = run.uddi(ctx, rep)
	} else {
		err = run.sdb(ctx, rep)
	}
	if err != nil {
		return nil, err
	}
	for _, m := range layerMetrics {
		if _, ok := rep.layers[m[0]]; !ok {
			rep.layers[m[0]] = metric{Value: 0, Unit: m[1]}
		}
	}
	rep.layers["failed_ratio"] = metric{Value: ratio(float64(rep.failed), float64(rep.attempted)), Unit: "ratio"}
	return rep, nil
}

// workloadRun is one run's state.
type workloadRun struct {
	cfg   config
	sp    spec
	c     counts
	work  string
	bin   string
	quick bool
	rng   *rand.Rand
	gen   *loadGen
}

// launches starts the server as often as the spec says (once with -trace 1),
// timing each from launch to its first correct answer, and keeps the
// last one running.
func (r *workloadRun) launches(ctx context.Context, start func(i int) (*server, func() error, error)) (*server, []float64, error) {
	n := r.sp.launches
	if r.cfg.trace == 1 {
		n = 1
	}
	var setups []float64
	for i := 0; i < n; i++ {
		srv, probe, err := start(i)
		if err != nil {
			return nil, nil, err
		}
		d, err := srv.waitReady(ctx, 150*time.Second, probe)
		if err != nil {
			srv.stop()
			return nil, nil, err
		}
		setups = append(setups, d.Seconds())
		if i < n-1 {
			srv.stop()
			continue
		}
		return srv, setups, nil
	}
	return nil, nil, fmt.Errorf("no launch")
}

// segments is how many parts the open-loop mix, the closed loop and the
// write phase are cut into. The parts take turns, so each phase samples
// the host across the whole run rather than in one stretch.
const segments = 20

// phases runs warm-up, then the open-loop mix, the closed loop and the
// write phase in turns, failing on a dead server.
func (r *workloadRun) phases(ctx context.Context, srv *server, warm, open, closed, writes []*op) (*phaseResult, error) {
	var pr phaseResult
	var err error
	if _, err = r.gen.run(ctx, warm, 0); err != nil {
		return nil, err
	}
	cpu0, err := srv.cpuTime()
	if err != nil {
		return nil, err
	}
	part := func(ops []*op, k int) []*op { return ops[k*len(ops)/segments : (k+1)*len(ops)/segments] }
	host0 := hostTicks()
	for k := 0; k < segments; k++ {
		seg0 := hostTicks()
		o, err := r.gen.run(ctx, part(open, k), r.sp.rate)
		if err != nil {
			return nil, err
		}
		pr.open = append(pr.open, o...)
		c, err := r.gen.run(ctx, part(closed, k), 0)
		if err != nil {
			return nil, err
		}
		pr.closed = append(pr.closed, c...)
		var s []sample
		if w := part(writes, k); len(w) > 0 {
			if s, err = r.gen.run(ctx, w, r.sp.writeRate); err != nil {
				return nil, err
			}
			pr.writes = append(pr.writes, s...)
		}
		pr.segReads = append(pr.segReads, latencies(o, classRead))
		pr.segWrites = append(pr.segWrites, append(latencies(o, classWrite), latencies(s, classWrite)...))
		pr.segRates = append(pr.segRates, throughput(c))
		pr.segSteal = append(pr.segSteal, stealSince(seg0))
	}
	pr.steal = stealSince(host0)
	cpu1, err := srv.cpuTime()
	if err != nil {
		return nil, err
	}
	pr.cpuPerReq = (cpu1 - cpu0) / time.Duration(len(open)+len(closed)+len(writes))
	if pr.rssMiB, err = srv.peakRSSMiB(); err != nil {
		return nil, err
	}
	return &pr, nil
}

// endToEnd turns the phases into the end-to-end metrics.
//
// Host stalls (the hypervisor running other guests, shared-disk
// contention) only ever slow a segment down, and on a shared host they
// can cover most of a run. So the p50s are the lower quartile over the
// segments of each segment's median latency, and capacity is the upper
// quartile of the segments' throughputs: each follows the server as long
// as a quarter of the run was undisturbed. A server that is slower
// throughout moves them as it moves the median; a server whose own
// stalls hit some segments shows in the p99s.
func (r *workloadRun) endToEnd(pr *phaseResult, rep *report) error {
	readP50s, err := segmentP50s("read_p50_ms", pr.segReads, r.quick)
	if err != nil {
		return err
	}
	writeP50s, err := segmentP50s("write_p50_ms", pr.segWrites, r.quick)
	if err != nil {
		return err
	}
	for k := range pr.segRates {
		r50, _ := quantile(sortedDurations(pr.segReads[k]), 0.5)
		w50, _ := quantile(sortedDurations(pr.segWrites[k]), 0.5)
		warnf("segment %d: read p50 %.2f ms, write p50 %.2f ms, capacity %.0f req/s, host steal %.2f",
			k, ms(r50), ms(w50), pr.segRates[k], pr.segSteal[k])
	}
	vals := map[string]float64{
		"setup_s":               median(pr.setups),
		"read_p50_ms":           quantileOf(readP50s, 0.25),
		"write_p50_ms":          quantileOf(writeP50s, 0.25),
		"capacity_rps":          quantileOf(pr.segRates, 0.75),
		"server_rss_mb":         pr.rssMiB,
		"server_cpu_us_per_req": us(pr.cpuPerReq),
	}
	reads := latencies(pr.open, classRead)
	writes := latencies(append(append([]sample(nil), pr.open...), pr.writes...), classWrite)
	for _, p := range []struct {
		name string
		d    []time.Duration
	}{{"read_p99_ms", reads}, {"write_p99_ms", writes}} {
		v, err := pctMS(p.name, p.d, 0.99, r.quick)
		if err != nil {
			return err
		}
		vals[p.name] = v
	}
	for _, m := range e2eMetrics {
		rep.e2e[m[0]] = metric{Value: vals[m[0]], Unit: m[1]}
	}
	rep.env["host_steal_ratio"] = pr.steal
	for _, name := range []string{"read_p99_ms", "write_p99_ms"} {
		rep.layers[name] = metric{Value: vals[name], Unit: "ms"}
	}
	lates := make([]time.Duration, 0, len(pr.open)+len(pr.writes))
	for _, s := range append(append([]sample(nil), pr.open...), pr.writes...) {
		lates = append(lates, s.late)
	}
	sort.Slice(lates, func(i, j int) bool { return lates[i] < lates[j] })
	late, _ := quantile(lates, 0.99)
	rep.layers["gen.late_p99_ms"] = metric{Value: float64(late) / float64(time.Millisecond), Unit: "ms"}
	return nil
}

// compareReplays checks that the untraced and traced replays produced
// the same outcome sequence and derives the cross-run layer metrics.
func (r *workloadRun) compareReplays(rep *report, plain, traced *replayResult) error {
	failed := plain.failed + traced.failed
	for _, rr := range []*replayResult{plain, traced} {
		if rr.firstFailure != "" {
			warnf("in-process replay: %s", rr.firstFailure)
		}
	}
	if len(plain.outcomes) != len(traced.outcomes) {
		failed++
		warnf("in-process replays differ in length: %d vs %d", len(plain.outcomes), len(traced.outcomes))
	} else {
		for i := range plain.outcomes {
			if plain.outcomes[i] != traced.outcomes[i] {
				failed++
				if failed == 1 {
					warnf("in-process replays differ at request %d: %s vs %s", i, plain.outcomes[i], traced.outcomes[i])
				}
			}
		}
	}
	rep.failed += int64(failed)
	for k, v := range traced.stats {
		rep.layers[k] = v
	}
	pipe50, _ := quantile(sortedDurations(plain.pipeline), 0.5)
	rep.layers["pipeline.allocs_per_req"] = metric{Value: plain.allocs, Unit: "1/req"}
	rep.layers["pipeline.bytes_per_req"] = metric{Value: plain.bytes, Unit: "B/req"}
	rep.layers["http.overhead_us"] = metric{Value: rep.e2e["read_p50_ms"].Value*1000 - us(pipe50), Unit: "us"}
	rep.layers["trace.overhead_ratio"] = metric{Value: traced.wall.Seconds()/plain.wall.Seconds() - 1, Unit: "ratio"}
	path := filepath.Join(r.cfg.root, ".bench_build", "spans", fmt.Sprintf("%s-seed%d.jsonl", r.sp.name, r.cfg.seed))
	return traced.tracer.write(path)
}

func median(v []float64) float64 { return quantileOf(v, 0.5) }

// quantileOf returns the q-quantile of v, interpolating linearly between
// the closest ranks.
func quantileOf(v []float64, q float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 == len(s) {
		return s[lo]
	}
	return s[lo] + (s[lo+1]-s[lo])*(pos-float64(lo))
}

// ---- securedb workloads ----

func (r *workloadRun) sdb(ctx context.Context, rep *report) error {
	people := synth.People(1, r.sp.rows)
	var wl *sdbWorkload
	if r.sp.name == "sdb-read-1k" {
		wl = readMix(r.rng, people, r.c)
	} else {
		wl = mixedMix(r.rng, people, r.c, r.cfg.seed)
	}
	warmOps := warmPasses(wl.catalog, people)
	var base string
	srv, setups, err := r.launches(ctx, func(i int) (*server, func() error, error) {
		port, err := freePort()
		if err != nil {
			return nil, nil, err
		}
		addr := fmt.Sprintf("127.0.0.1:%d", port)
		base = "http://" + addr
		srv, err := startServer(fmt.Sprintf("securedb-%d", i), filepath.Join(r.bin, "securedb"), r.work,
			"-addr", addr, "-people", strconv.Itoa(r.sp.rows), "-data", filepath.Join(r.work, fmt.Sprintf("data-%d", i)))
		if err != nil {
			return nil, nil, err
		}
		probeURL := base
		return srv, func() error { return sdbProbe(ctx, probeURL, len(people)) }, nil
	})
	if err != nil {
		return err
	}
	defer srv.stop()
	t := &sdbTarget{srv: srv, base: base, oracle: newSDBOracle(people)}
	r.gen = newLoadGen(t, inFlight)
	defer r.gen.close()
	// Arm every worker's token chains, and check that the subject with
	// no grant is refused a token.
	for _, w := range r.gen.workers {
		for _, s := range sdbSubjects {
			tok, status, err := t.mint(ctx, w, s)
			switch {
			case err != nil:
				return err
			case s.mints && status != http.StatusOK:
				r.gen.record(nil, fmt.Errorf("mint %s: status %d", s.id, status))
			case !s.mints && status != http.StatusForbidden:
				r.gen.record(nil, fmt.Errorf("policy violation: mint for %s answered %d, want 403", s.id, status))
			default:
				r.gen.record(nil, nil)
			}
			if tok != "" {
				w.tokens[s.id] = tok
			}
		}
	}
	if err := r.gen.sequential(ctx, warmOps); err != nil {
		return err
	}
	t.oracle.freeze()
	pr, err := r.phases(ctx, srv, wl.warm, wl.open, wl.closed, wl.writes)
	if err != nil {
		return err
	}
	srv.stop()
	pr.setups = setups
	rep.attempted, rep.failed = r.gen.attempted.Load(), r.gen.failed.Load()
	for _, f := range r.gen.firstFailures() {
		warnf("failed: %s", f)
	}
	if err := r.endToEnd(pr, rep); err != nil {
		return err
	}
	if r.cfg.trace == 0 {
		return nil
	}
	ops := append(append(append([]*op(nil), warmOps...), wl.warm...), replayed(wl.open, wl.writes)...)
	measuredFrom := len(warmOps) + len(wl.warm)
	plain, err := replaySDB(ctx, filepath.Join(r.work, "replay-plain"), people, ops, len(warmOps), measuredFrom, nil)
	if err != nil {
		return err
	}
	traced, err := replaySDB(ctx, filepath.Join(r.work, "replay-traced"), people, ops, len(warmOps), measuredFrom, newTracer())
	if err != nil {
		return err
	}
	return r.compareReplays(rep, plain, traced)
}

// sdbProbe is the readiness check: mint a token for ana and count the
// rows through /agg. Only the right count ends set-up.
func sdbProbe(ctx context.Context, base string, rows int) error {
	c := &http.Client{Timeout: 5 * time.Second}
	defer c.CloseIdleConnections()
	w := &worker{client: c, tokens: map[string]string{}}
	t := &sdbTarget{base: base}
	tok, status, err := t.mint(ctx, w, subjAna)
	if err != nil || status != http.StatusOK {
		return fmt.Errorf("mint: status %d: %v", status, err)
	}
	form := url.Values{"subject": {subjAna.id}, "roles": {strings.Join(subjAna.roles, ",")}, "sql": {"SELECT COUNT(*) FROM patients"}}
	status, body, _, err := post(ctx, c, base+"/agg", form, tok)
	if err != nil {
		return err
	}
	lines := strings.Split(strings.TrimSpace(string(body)), "\n")
	if status != http.StatusOK || len(lines) != 2 || lines[1] != strconv.Itoa(rows) {
		return fmt.Errorf("probe answered %d %q, want %d rows", status, body, rows)
	}
	return nil
}

// ---- uddi workload ----

func (r *workloadRun) uddi(ctx context.Context, rep *report) error {
	ca, err := credential.NewAuthority("bench")
	if err != nil {
		return err
	}
	reqs, err := newRequestors(ca, 32)
	if err != nil {
		return err
	}
	wl := uddiMix(r.rng, reqs, r.sp.rows, r.c)
	var t *uddiTarget
	srv, setups, err := r.launches(ctx, func(i int) (*server, func() error, error) {
		port, err := freePort()
		if err != nil {
			return nil, nil, err
		}
		addr := fmt.Sprintf("127.0.0.1:%d", port)
		srv, err := startServer(fmt.Sprintf("uddiserver-%d", i), filepath.Join(r.bin, "uddiserver"), r.work,
			"-addr", addr, "-mode", "untrusted", "-demo", strconv.Itoa(r.sp.rows),
			"-trustca", "bench="+hex.EncodeToString(ca.PublicKey()))
		if err != nil {
			return nil, nil, err
		}
		t = &uddiTarget{srv: srv, url: "http://" + addr + "/"}
		return srv, func() error { return uddiProbe(ctx, t, reqs[0]) }, nil
	})
	if err != nil {
		return err
	}
	defer srv.stop()
	r.gen = newLoadGen(t, inFlight)
	defer r.gen.close()
	// Each worker qualifies every requestor once on its wallet; from then
	// on the requestor rides its token chain.
	for _, w := range r.gen.workers {
		for _, q := range reqs {
			o := uddiOp(&uddiReq{who: q, key: entryKey(0)})
			_, err := sendChecked(ctx, t, w, o)
			r.gen.record(o, err)
		}
	}
	pr, err := r.phases(ctx, srv, wl.warm, wl.open, wl.closed, wl.writes)
	if err != nil {
		return err
	}
	srv.stop()
	pr.setups = setups
	rep.attempted, rep.failed = r.gen.attempted.Load(), r.gen.failed.Load()
	for _, f := range r.gen.firstFailures() {
		warnf("failed: %s", f)
	}
	if err := r.endToEnd(pr, rep); err != nil {
		return err
	}
	if r.cfg.trace == 0 {
		return nil
	}
	ops := append(append([]*op(nil), wl.warm...), replayed(wl.open, wl.writes)...)
	plain, err := replayUDDI(ctx, r.sp.rows, ca, ops, len(wl.warm), nil)
	if err != nil {
		return err
	}
	traced, err := replayUDDI(ctx, r.sp.rows, ca, ops, len(wl.warm), newTracer())
	if err != nil {
		return err
	}
	return r.compareReplays(rep, plain, traced)
}

// uddiProbe is the readiness check: read the provider key the server
// printed, then fetch one entry on a wallet and verify it.
func uddiProbe(ctx context.Context, t *uddiTarget, q *requestor) error {
	var key []byte
	for _, line := range strings.Split(t.srv.stdoutText(), "\n") {
		if b, err := hex.DecodeString(strings.TrimSpace(line)); err == nil && len(b) == 32 {
			key = b
		}
	}
	if key == nil {
		return fmt.Errorf("no provider key printed yet")
	}
	dir := wsig.NewKeyDirectory()
	dir.Register(providerName, key)
	c := &http.Client{Timeout: 5 * time.Second}
	defer c.CloseIdleConnections()
	w := &worker{client: c, tokens: map[string]string{}}
	probe := &uddiTarget{srv: t.srv, url: t.url, dir: dir}
	if _, err := sendChecked(ctx, probe, w, uddiOp(&uddiReq{who: q, key: entryKey(0)})); err != nil {
		return err
	}
	t.dir = dir
	return nil
}

// environment is the block every result carries (as the line before it).
func environment(root string, cfg config, sp spec, c counts) map[string]any {
	env := map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"workload":   sp.name,
		"seed":       cfg.seed,
		"seconds":    cfg.seconds,
		"trace":      cfg.trace,
		"in_flight":  inFlight,
		"rate_rps":   sp.rate,
		"counts":     map[string]int{"warm": c.warm, "open": c.open, "closed": c.closed, "writes": c.writes},
		"tree":       treeHash(root),
	}
	if sp.uddi {
		env["entries"] = sp.rows
	} else {
		env["rows"] = sp.rows
		env["walsync"] = "always"
	}
	if out, err := exec.Command("go", "env", "GOVERSION").Output(); err == nil {
		env["go"] = strings.TrimSpace(string(out))
	}
	if raw, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		env["kernel"] = strings.TrimSpace(string(raw))
	}
	env["git_sha"], env["git_dirty"] = "none", false
	if _, err := os.Stat(filepath.Join(root, ".git")); err != nil {
		return env
	}
	if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
		env["git_sha"] = strings.TrimSpace(string(out))
		if st, err := exec.Command("git", "-C", root, "status", "--porcelain").Output(); err == nil {
			env["git_dirty"] = len(strings.TrimSpace(string(st))) > 0
		}
	}
	return env
}

// treeHash identifies the measured source even outside git: a SHA-256
// over the path and content of every Go source and module file.
func treeHash(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != root {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		h.Write([]byte(rel))
		h.Write(raw)
		return nil
	})
	if err != nil {
		return "error: " + err.Error()
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
