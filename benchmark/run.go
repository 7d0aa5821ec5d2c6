package main

import (
	"fmt"
	"os"
	"runtime/debug"
	"time"
)

// runConfig is one invocation's settings for one workload.
type runConfig struct {
	w       *workload
	seed    int64
	seconds float64 // measured time; phases are fixed shares of it
	trace   bool
	clients int
	setups  int // set-ups timed per run; the last one is measured on
	// traceOut, when set, receives the traced run's spans as JSON lines.
	traceOut string
	quiet    bool
}

// plan splits the measured seconds into phases. Shares are fixed, so
// a shorter run shortens every phase alike and never drops one. The
// warm-up precedes the measured time and is a tenth of it. The
// end-to-end run is one closed loop; the traced run splits its time
// between a closed loop (the base of the counter deltas), the open-loop
// steps, and the depth-rotating loop run first with span recording off
// (the base of the tracing overhead) and then with it on.
type plan struct {
	warm, closed, openStep, untraced, traced time.Duration
}

var openFractions = [3]float64{0.5, 0.75, 1.0}

func planFor(cfg runConfig) plan {
	s := time.Duration(cfg.seconds * float64(time.Second))
	p := plan{warm: s / 10}
	switch {
	case cfg.trace && cfg.w.openRate > 0:
		p.closed, p.openStep, p.untraced, p.traced = s*30/100, s*10/100, s*10/100, s*30/100
	case cfg.trace:
		p.closed, p.untraced, p.traced = s*40/100, s*15/100, s*45/100
	default:
		p.closed = s
	}
	return p
}

// measured is everything one workload run observed, before it is
// turned into named metrics.
type measured struct {
	cfg      runConfig
	setups   []time.Duration
	st       *state
	closed   *phase
	before   counters // around the closed loop
	after    counters
	open     []*openStep
	untraced *tracedPhase // the depth-rotating loop with recording off
	traced   *tracedPhase
	pure     map[string]float64 // the stateless layers' microbenchmarks
	rawBytes int64
	verify   verifyReport
	rssMiB   float64
	goPeak   int
}

// setUp boots the deployment and loads it, cfg.setups times over, and
// keeps the last one. setup_s is the median, so that work a later
// change moves into set-up shows up there.
func setUp(cfg runConfig, in *inputs) (*state, []time.Duration, error) {
	var times []time.Duration
	for i := 0; ; i++ {
		t0 := time.Now()
		dep, err := boot(cfg.w, cfg.clients)
		if err != nil {
			return nil, nil, err
		}
		st := newState(cfg.w, in, dep)
		if err := dep.load(st); err != nil {
			dep.close()
			return nil, nil, err
		}
		times = append(times, time.Since(t0))
		if i == cfg.setups-1 {
			return st, times, nil
		}
		// The extra set-ups exist only to be timed. Their garbage goes
		// before the next one starts, so that rss_peak_mb measures one
		// deployment and not however many the collector had not got to.
		dep.close()
		debug.FreeOSMemory()
	}
}

func logf(cfg runConfig, format string, args ...any) {
	if !cfg.quiet {
		fmt.Fprintf(os.Stderr, format+"\n", args...)
	}
}

// run executes one workload: generate inputs, set up, warm up, closed
// loop, open loop, traced loop, read-back check.
func run(cfg runConfig) (*measured, error) {
	in, err := generate(cfg.w, cfg.seed, cfg.clients)
	if err != nil {
		return nil, err
	}
	st, setups, err := setUp(cfg, in)
	if err != nil {
		return nil, err
	}
	defer st.dep.close()
	m := &measured{cfg: cfg, setups: setups, st: st}
	p := planFor(cfg)
	logf(cfg, "%s: set up in %v", cfg.w.name, setups)

	stopPeak := watchGoroutines(&m.goPeak)
	warm := st.closedLoop(p.warm)
	if warm.failed+warm.violations > 0 {
		stopPeak()
		return nil, fmt.Errorf("warm-up: %d failed, %d violations: %v", warm.failed, warm.violations, warm.messages)
	}

	m.before = st.dep.read()
	m.closed = st.closedLoop(p.closed)
	m.after = st.dep.read()
	logf(cfg, "%s: closed loop %d ops in %v", cfg.w.name, m.closed.ops(), m.closed.elapsed.Round(time.Millisecond))
	for i, w := range m.closed.windows() {
		logf(cfg, "%s: window %d: %d ops, %.1f cpu-us/op, read p50 %v", cfg.w.name, i, w.ops,
			ratio(us(w.cpu), w.ops), median(w.lat[kRead]))
	}

	if p.openStep > 0 {
		for _, f := range openFractions {
			m.open = append(m.open, st.openLoop(f*cfg.w.openRate, p.openStep))
		}
	}
	if p.traced > 0 {
		m.untraced = st.tracedLoop(p.untraced, true)
		m.traced = st.tracedLoop(p.traced, false)
	}
	stopPeak()

	if cfg.trace {
		if m.pure, err = pureLayers(m); err != nil {
			return nil, err
		}
	}
	m.verify = st.readBack()
	m.rawBytes = st.dep.read().rawBytes
	m.rssMiB = peakRSSMiB()
	return m, nil
}

// phases lists every measured phase, for failure accounting.
func (m *measured) phases() []*phase {
	ps := []*phase{m.closed}
	for _, o := range m.open {
		ps = append(ps, o.p)
	}
	if m.traced != nil {
		ps = append(ps, m.untraced.p, m.traced.p)
	}
	return ps
}
