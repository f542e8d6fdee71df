package main

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// opClass splits requests into the two latency families the benchmark
// reports.
type opClass int

const (
	classRead opClass = iota
	classWrite
)

// op is one request of a workload's sequence. Exactly one of sdb and
// uddi is set. The sequence is fixed by the seed before any request is
// sent, so both commits under comparison send the same requests.
type op struct {
	class opClass
	sdb   *sdbReq
	uddi  *uddiReq
	// after, when set, must have completed before this op is sent (a
	// DELETE waits for the INSERT of its row).
	after *op
	done  chan struct{}
}

func newOp(class opClass) *op { return &op{class: class, done: make(chan struct{})} }

// target is a served system under test. send sends one op over HTTP as
// a worker and returns when the answer had been read, with a check that
// judges the answer against the oracle; an error from send itself is a
// request that got no answer to judge. The generator runs the check
// after the answer's time was taken, and after the whole phase in a
// closed loop, so neither latency nor capacity counts the oracle's work.
// A nil check error is a correct answer, a refusal the policy requires
// included.
type target interface {
	send(ctx context.Context, w *worker, o *op) (time.Time, func() error, error)
	// alive reports a dead server process.
	alive() error
}

// sendChecked sends o and judges its answer at once.
func sendChecked(ctx context.Context, t target, w *worker, o *op) (time.Time, error) {
	end, check, err := t.send(ctx, w, o)
	if err != nil {
		return end, err
	}
	return end, check()
}

// worker is one in-flight slot of the generator. It keeps its own token
// chain per subject, so two workers never race for one single-use token.
type worker struct {
	client *http.Client
	tokens map[string]string
}

// sample is one completed op. lat runs from the op's due time (open
// loop) or send time (closed loop) to end, when its answer had been
// read; late is how far behind schedule the generator sent it.
type sample struct {
	o         *op
	end       time.Time
	lat, late time.Duration
	err       error
}

// loadGen runs phases of ops against a target with a fixed number of
// requests in flight, and keeps the failure accounting across phases.
type loadGen struct {
	t       target
	workers []*worker

	attempted atomic.Int64
	failed    atomic.Int64

	mu       sync.Mutex
	failures []string // seclint:guardedby mu
}

func newLoadGen(t target, inFlight int) *loadGen {
	tr := &http.Transport{MaxIdleConnsPerHost: inFlight, MaxConnsPerHost: inFlight, IdleConnTimeout: time.Minute}
	g := &loadGen{t: t}
	for i := 0; i < inFlight; i++ {
		g.workers = append(g.workers, &worker{
			client: &http.Client{Transport: tr, Timeout: 30 * time.Second},
			tokens: map[string]string{},
		})
	}
	return g
}

// close releases the generator's idle connections.
func (g *loadGen) close() {
	if len(g.workers) > 0 {
		g.workers[0].client.CloseIdleConnections()
	}
}

func (g *loadGen) record(o *op, err error) {
	g.attempted.Add(1)
	if err == nil {
		return
	}
	g.failed.Add(1)
	g.mu.Lock()
	if len(g.failures) < 8 {
		g.failures = append(g.failures, err.Error())
	}
	g.mu.Unlock()
}

// firstFailures returns up to eight failure messages for the log.
func (g *loadGen) firstFailures() []string {
	g.mu.Lock()
	defer g.mu.Unlock()
	return append([]string(nil), g.failures...)
}

// sequential sends ops one at a time on worker 0, in order.
func (g *loadGen) sequential(ctx context.Context, ops []*op) error {
	for _, o := range ops {
		_, err := sendChecked(ctx, g.t, g.workers[0], o)
		close(o.done)
		g.record(o, err)
		if ctxErr := ctx.Err(); ctxErr != nil {
			return ctxErr
		}
	}
	return g.t.alive()
}

// run sends ops with every worker in flight. rate > 0 is an open loop:
// op i is due at start + i/rate and is timed from that instant whether or
// not a worker was free to send it; its answer is checked as it arrives.
// rate == 0 is a closed loop: each worker sends its next op as soon as
// its previous answer arrives, and the answers are checked in op order
// once the phase has ended. It returns the samples in op order.
func (g *loadGen) run(parent context.Context, ops []*op, rate float64) ([]sample, error) {
	// A dead server ends the phase at once instead of failing every
	// remaining op on its schedule.
	ctx, cancel := context.WithCancel(parent)
	defer cancel()
	out := make([]sample, len(ops))
	checks := make([]func() error, len(ops))
	var next atomic.Int64
	start := time.Now().Add(2 * time.Millisecond)
	var wg sync.WaitGroup
	for _, w := range g.workers {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(ops) || ctx.Err() != nil {
					return
				}
				o := ops[i]
				if o.after != nil {
					select {
					case <-o.after.done:
					case <-ctx.Done():
						return
					}
				}
				var due time.Time
				if rate > 0 {
					due = start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
					if wait := time.Until(due); wait > 0 {
						select {
						case <-time.After(wait):
						case <-ctx.Done():
							return
						}
					}
				}
				sent := time.Now()
				if rate == 0 {
					due = sent
				}
				end, check, err := g.t.send(ctx, w, o)
				close(o.done)
				out[i] = sample{o: o, end: end, lat: end.Sub(due), late: sent.Sub(due), err: err}
				switch {
				case err != nil:
					g.record(o, err)
					if g.t.alive() != nil {
						cancel()
					}
				case rate > 0:
					out[i].err = check()
					g.record(o, out[i].err)
				default:
					checks[i] = check
				}
			}
		}(w)
	}
	wg.Wait()
	if err := g.t.alive(); err != nil {
		return nil, err
	}
	if err := parent.Err(); err != nil {
		return nil, err
	}
	for i, check := range checks {
		if check != nil {
			out[i].err = check()
			g.record(out[i].o, out[i].err)
		}
	}
	return out, nil
}

// throughput reports the correct answers per second of one closed-loop
// run, from its first send to its last answer.
func throughput(samples []sample) float64 {
	var first, last time.Time
	correct := 0
	for _, s := range samples {
		if sent := s.end.Add(-s.lat); first.IsZero() || sent.Before(first) {
			first = sent
		}
		if s.end.After(last) {
			last = s.end
		}
		if s.err == nil {
			correct++
		}
	}
	if correct == 0 {
		return 0
	}
	return float64(correct) / last.Sub(first).Seconds()
}

// latencies returns the latencies of the correct answers of one class,
// in send order.
func latencies(samples []sample, class opClass) []time.Duration {
	var out []time.Duration
	for _, s := range samples {
		if s.err == nil && s.o.class == class {
			out = append(out, s.lat)
		}
	}
	return out
}

func sortedDurations(d []time.Duration) []time.Duration {
	out := append([]time.Duration(nil), d...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// quantile returns the nearest-rank q-quantile of sorted values and the
// number of samples strictly beyond it.
func quantile(sorted []time.Duration, q float64) (time.Duration, int) {
	if len(sorted) == 0 {
		return 0, 0
	}
	idx := int(math.Ceil(q*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	return sorted[idx], len(sorted) - idx - 1
}

// minTail is how many samples must lie beyond a reported percentile.
const minTail = 10

// segmentP50s returns each segment's median latency in milliseconds. A
// segment with too few samples for minTail beyond its median fails the
// run, unless it is a quick run, where it is skipped if empty and
// flagged on stderr otherwise.
func segmentP50s(name string, segs [][]time.Duration, quick bool) ([]float64, error) {
	var out []float64
	for k, lat := range segs {
		v, beyond := quantile(sortedDurations(lat), 0.5)
		if beyond < minTail {
			if !quick {
				return nil, fmt.Errorf("%s: segment %d has %d samples, too few for %d beyond its median", name, k, len(lat), minTail)
			}
			if len(lat) == 0 {
				continue
			}
			warnf("%s: segment %d underpowered (%d samples)", name, k, len(lat))
		}
		out = append(out, ms(v))
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no samples", name)
	}
	return out, nil
}

// pctMS reports the q-quantile of lat (in send order) in milliseconds.
// The samples are cut into as many consecutive windows as still leave
// minTail samples beyond the quantile in each, and the median of the
// windows' quantiles is reported: one burst of host noise then moves one
// window, not the run's figure. Too few samples for even one window is an
// error unless the run is a short smoke run (quick), where the quantile
// is reported and flagged on stderr.
func pctMS(name string, lat []time.Duration, q float64, quick bool) (float64, error) {
	perWindow := minTail + 1
	for {
		if _, beyond := quantile(make([]time.Duration, perWindow), q); beyond >= minTail {
			break
		}
		perWindow++
	}
	windows := len(lat) / perWindow
	if windows == 0 {
		if !quick || len(lat) == 0 {
			return 0, fmt.Errorf("%s: %d samples, need %d for %d beyond the %gth percentile", name, len(lat), perWindow, minTail, q*100)
		}
		warnf("%s: underpowered (%d samples, need %d)", name, len(lat), perWindow)
		windows = 1
	}
	var vals []float64
	for i := 0; i < windows; i++ {
		w := sortedDurations(lat[i*len(lat)/windows : (i+1)*len(lat)/windows])
		v, _ := quantile(w, q)
		vals = append(vals, float64(v)/float64(time.Millisecond))
	}
	return median(vals), nil
}
