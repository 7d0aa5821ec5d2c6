package main

import (
	"context"
	"errors"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// recorder collects one worker's latency samples for one phase.
type recorder struct {
	lat [numKinds][]time.Duration
	// t0, when set, makes add note each sample's completion time since
	// t0 in at, so the phase can be cut into windows afterwards.
	t0 time.Time
	at [numKinds][]time.Duration
	// stream[kRead|kWrite][big|small] are the per-object times inside
	// the stream pair operations.
	stream [2][2][]time.Duration
	// listed counts the entries listings returned.
	listed int
	// failed counts operations that errored; violations those that
	// were answered wrongly (first few messages kept).
	failed, violations int
	messages           []string
}

func (r *recorder) add(k opKind, d time.Duration) {
	r.lat[k] = append(r.lat[k], d)
	if !r.t0.IsZero() {
		r.at[k] = append(r.at[k], time.Since(r.t0))
	}
}

func (r *recorder) addStream(k opKind, size int, d time.Duration) {
	r.stream[k][size] = append(r.stream[k][size], d)
}

func (r *recorder) fail(err error) {
	var v *violation
	if errors.As(err, &v) {
		r.violations++
	} else {
		r.failed++
	}
	if len(r.messages) < 5 {
		r.messages = append(r.messages, err.Error())
	}
}

// phase is the merged record of one measured phase.
type phase struct {
	recorder
	attempted int
	elapsed   time.Duration
	// A closed loop is also cut into equal windows: window is their
	// length and cpuAt the process CPU time at each boundary (one more
	// than there are windows).
	window time.Duration
	cpuAt  []time.Duration
}

// minWindow is the shortest window a closed loop is cut into, and
// maxWindows the most it is cut into.
const (
	minWindow  = 2 * time.Second
	maxWindows = 5
)

// windowStat is one window's share of a closed loop.
type windowStat struct {
	ops int
	cpu time.Duration
	lat [numKinds][]time.Duration // sorted
}

// windows cuts the phase into its windows, each with its own
// statistics. Operations still in flight at the last boundary count
// into the last window.
func (p *phase) windows() []windowStat {
	ws := make([]windowStat, len(p.cpuAt)-1)
	for i := range ws {
		ws[i].cpu = p.cpuAt[i+1] - p.cpuAt[i]
	}
	for k := range p.lat {
		for j, at := range p.at[k] {
			i := min(int(at/p.window), len(ws)-1)
			ws[i].ops++
			ws[i].lat[k] = append(ws[i].lat[k], p.lat[k][j])
		}
	}
	for i := range ws {
		for k := range ws[i].lat {
			l := ws[i].lat[k]
			sort.Slice(l, func(a, b int) bool { return l[a] < l[b] })
		}
	}
	return ws
}

// overWindows summarises a closed loop by the window at the better
// quartile of f's value: the second best of five. This box shares its
// cores with other tenants, and their bursts last seconds. Interference
// from outside only ever makes a window slower, never faster, so the
// faster windows are the less disturbed ones; the fastest is an extreme,
// so the next one is taken. Over logged runs this repeats better than
// the median window on every workload (README, Calibration). Windows
// for which f has nothing to say (ok false) are left out.
func overWindows(ws []windowStat, better string, f func(w *windowStat) (v float64, ok bool)) float64 {
	var vals []float64
	for i := range ws {
		if v, ok := f(&ws[i]); ok {
			vals = append(vals, v)
		}
	}
	if len(vals) == 0 {
		return 0
	}
	sort.Float64s(vals)
	if better == higher {
		slices.Reverse(vals)
	}
	return vals[len(vals)/4]
}

func (p *phase) merge(r *recorder) {
	for k := range r.lat {
		p.lat[k] = append(p.lat[k], r.lat[k]...)
		p.at[k] = append(p.at[k], r.at[k]...)
	}
	for k := range r.stream {
		for s := range r.stream[k] {
			p.stream[k][s] = append(p.stream[k][s], r.stream[k][s]...)
		}
	}
	p.listed += r.listed
	p.failed += r.failed
	p.violations += r.violations
	for _, m := range r.messages {
		if len(p.messages) < 5 {
			p.messages = append(p.messages, m)
		}
	}
}

// ops counts the operations a phase completed.
func (p *phase) ops() int {
	n := 0
	for k := range p.lat {
		n += len(p.lat[k])
	}
	return n
}

// collect swaps every worker's recorder out into one phase record.
func (st *state) collect(elapsed time.Duration, attempted int) *phase {
	p := &phase{elapsed: elapsed, attempted: attempted}
	for _, ws := range st.ws {
		p.merge(&ws.rec)
		ws.rec = recorder{}
	}
	return p
}

// step runs one operation at router depth and records it.
func (ws *workerState) step(ctx context.Context) {
	o := ws.next()
	t0 := time.Now()
	if err := ws.exec(ctx, ws.wk.rt, o); err != nil {
		ws.rec.fail(err)
		return
	}
	ws.rec.add(o.kind, time.Since(t0))
}

// closedLoop has every worker issue its next operation as soon as the
// previous one completes, for d. Callers that each wait for a reply
// make a closed loop; the client count is the offered load.
func (st *state) closedLoop(d time.Duration) *phase {
	ctx := context.Background()
	var attempted atomic.Int64
	t0 := time.Now()
	deadline := t0.Add(d)
	n := min(max(int(d/minWindow), 1), maxWindows)
	window := d / time.Duration(n)
	cpuAt := make([]time.Duration, 1, n+1)
	cpuAt[0] = cpuTime()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 1; i <= n; i++ {
			time.Sleep(time.Until(t0.Add(time.Duration(i) * window)))
			cpuAt = append(cpuAt, cpuTime())
		}
	}()
	for _, ws := range st.ws {
		ws.rec.t0 = t0
		wg.Add(1)
		go func(ws *workerState) {
			defer wg.Done()
			n := 0
			for time.Now().Before(deadline) {
				ws.step(ctx)
				n++
			}
			attempted.Add(int64(n))
		}(ws)
	}
	wg.Wait()
	p := st.collect(time.Since(t0), int(attempted.Load()))
	p.window, p.cpuAt = window, cpuAt
	return p
}

// schedule is a fixed-rate open-loop arrival process: operation i is
// due at start + i·interval, whoever is free takes the next one, and
// latency counts from the due time — so a stall is charged to every
// operation that was due during it, not just the one that hit it.
type schedule struct {
	interval time.Duration
	total    int64 // operations due within the step
	next     atomic.Int64
}

func newSchedule(rate float64, d time.Duration) *schedule {
	return &schedule{
		interval: time.Duration(float64(time.Second) / rate),
		total:    max(int64(rate*d.Seconds()), 1),
	}
}

// sent is what one schedule run observed.
type sent struct {
	lat    []time.Duration // completion minus due time, successful operations
	late   []time.Duration // send time minus due time, every operation
	failed []error
	// backlog counts operations that were due within the step but had
	// not been sent when it ended (sent in the grace period or never).
	backlog int64
}

// run drives the schedule with the given workers; do(worker) performs
// one operation. Workers keep draining for at most grace past the end
// of the step; what is still unsent then is dropped.
func (s *schedule) run(workers int, grace time.Duration, do func(worker int) error) sent {
	start := time.Now()
	end := start.Add(time.Duration(s.total) * s.interval)
	stop := end.Add(grace)
	res := make([]sent, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := &res[w]
			for {
				i := s.next.Add(1) - 1
				if i >= s.total {
					return
				}
				due := start.Add(time.Duration(i) * s.interval)
				now := time.Now()
				if wait := due.Sub(now); wait > 0 {
					time.Sleep(wait)
					now = time.Now()
				}
				if now.After(end) {
					r.backlog++
					if now.After(stop) {
						r.backlog += s.total - 1 - i // never sent
						s.next.Store(s.total)
						return
					}
				}
				r.late = append(r.late, max(now.Sub(due), 0))
				if err := do(w); err != nil {
					r.failed = append(r.failed, err)
					continue
				}
				r.lat = append(r.lat, time.Since(due))
			}
		}(w)
	}
	wg.Wait()
	var out sent
	for _, r := range res {
		out.lat = append(out.lat, r.lat...)
		out.late = append(out.late, r.late...)
		out.failed = append(out.failed, r.failed...)
		out.backlog += r.backlog
	}
	return out
}

// openStep is one fixed-rate step of the open loop.
type openStep struct {
	rate float64
	p    *phase
	sent
}

func (st *state) openLoop(rate float64, d time.Duration) *openStep {
	ctx := context.Background()
	t0 := time.Now()
	out := newSchedule(rate, d).run(len(st.ws), d/2, func(w int) error {
		ws := st.ws[w]
		return ws.exec(ctx, ws.wk.rt, ws.next())
	})
	p := st.collect(time.Since(t0), len(out.lat)+len(out.failed))
	for _, err := range out.failed {
		p.fail(err)
	}
	return &openStep{rate: rate, p: p, sent: out}
}

// sorted returns a sorted copy.
func sorted(d []time.Duration) []time.Duration {
	s := append([]time.Duration(nil), d...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

// tailSamples is how many samples must lie beyond a reported tail
// percentile.
const tailSamples = 10

// median and tail are the two timing summaries every metric uses. tail
// is the 99th percentile when at least tailSamples samples lie beyond
// it, else the highest percentile that has that many beyond it; with
// too few samples for any, it falls back to the median.
func median(s []time.Duration) time.Duration {
	if len(s) == 0 {
		return 0
	}
	return s[len(s)/2]
}

func tail(s []time.Duration) time.Duration {
	n := len(s)
	if n == 0 {
		return 0
	}
	i := min(int(math.Ceil(0.99*float64(n)))-1, n-1-tailSamples)
	return s[max(i, n/2)]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
