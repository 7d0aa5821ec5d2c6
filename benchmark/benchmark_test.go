package main

import (
	"encoding/json"
	"errors"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"
)

// benchmarkJSON is the root BENCHMARK.json as the driver reads it.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

// TestCatalogueMatchesBenchmarkJSON keeps BENCHMARK.json and the
// program's own catalogue in step: same workloads, same metric names,
// units, directions and bounds, in the same order.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	b := readBenchmarkJSON(t)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program has %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)",
				i, b.Workloads[i].Name, b.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("%s: why is %d characters, at most 200 allowed", w.name, len(w.why))
		}
	}
	check := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the program %+v", kind, i, got[i], want[i])
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
	if len(b.Paths) != 1 || b.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", b.Paths)
	}
	if b.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, the program's default is %d", b.RunSeconds, defaultSeconds)
	}
	hasSetup := false
	for _, d := range endToEnd {
		hasSetup = hasSetup || d == metricDef{"setup_s", "s", lower, d.Bound}
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	if !hasSetup {
		t.Error("end_to_end lacks setup_s in s, lower is better")
	}
}

// scaledDown is w with a data set a test can load in a blink.
func scaledDown(w *workload) *workload {
	c := *w
	if c.stream {
		c.ringSlots = 2
		c.streamSizes = [2]int{4 << 20, 1<<20 + 1<<19} // still one EC and one chunked object
	} else {
		c.records = max(w.records/20, 200)
		c.opsPerWorker = 4000
		if c.openRate > 0 {
			c.openRate = w.openRate / 4
		}
	}
	return &c
}

// TestSmoke runs every workload end to end and traced, at a scale of
// well under a second each, and checks that every metric BENCHMARK.json
// names comes out exactly once, finite, under a well-formed name — and
// that the run found nothing wrong with the system.
func TestSmoke(t *testing.T) {
	b := readBenchmarkJSON(t)
	nameOK := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			w, trace := w, trace
			name := w.name
			want := b.EndToEnd
			if trace {
				name += "/traced"
				want = b.PerLayer
			}
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				m, err := run(runConfig{
					w: scaledDown(w), seed: 3, seconds: 0.5, trace: trace,
					clients: 2, setups: 1, quiet: true,
				})
				if err != nil {
					t.Fatal(err)
				}
				r := result(m)
				if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
					t.Fatalf("correct=%v failed=%d attempted=%d: %v", r.Correct, r.Failed, r.Attempted, r.Messages)
				}
				got, _ := r.reported()
				// On a very slow box (the race detector) half a second may
				// not fit one operation of each class; "never 0" is only
				// owed once there is something to report.
				sampled := len(m.closed.lat[kRead]) > 0 && len(m.closed.lat[kWrite]) > 0
				if len(got) != len(want) {
					t.Errorf("emitted %d metrics, BENCHMARK.json names %d", len(got), len(want))
				}
				for _, def := range want {
					mt, ok := got[def.Name]
					switch {
					case !ok:
						t.Errorf("%s not emitted", def.Name)
					case math.IsNaN(mt.Value) || math.IsInf(mt.Value, 0):
						t.Errorf("%s = %v", def.Name, mt.Value)
					case mt.Unit != def.Unit:
						t.Errorf("%s: unit %q, want %q", def.Name, mt.Unit, def.Unit)
					case !nameOK.MatchString(def.Name):
						t.Errorf("malformed metric name %q", def.Name)
					case !trace && sampled && mt.Value <= 0:
						t.Errorf("end-to-end metric %s = %v, must never be 0", def.Name, mt.Value)
					}
				}
				var line struct {
					Correct   *bool                      `json:"correct"`
					Attempted *int                       `json:"attempted"`
					Failed    *int                       `json:"failed"`
					Metrics   map[string]json.RawMessage `json:"metrics"`
				}
				if err := json.Unmarshal([]byte(r.contractLine()), &line); err != nil ||
					line.Correct == nil || line.Attempted == nil || line.Failed == nil || len(line.Metrics) != len(want) {
					t.Errorf("result line %s: %v", r.contractLine(), err)
				}
			})
		}
	}
}

func durations(n int) []time.Duration {
	d := make([]time.Duration, n)
	for i := range d {
		d[i] = time.Duration(i+1) * time.Microsecond
	}
	return d
}

// TestTailNeedsTenSamplesBeyond pins the percentile rule: p99 when ten
// samples lie beyond it, else the highest percentile that has ten.
func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want time.Duration // in the sorted 1..n µs series
	}{
		{5000, 4950 * time.Microsecond}, // the 99th percentile itself
		{1100, 1089 * time.Microsecond}, // p99, with eleven beyond
		{500, 490 * time.Microsecond},   // p99 would leave 5 beyond: take the one that leaves 10
		{100, 90 * time.Microsecond},
		{15, 8 * time.Microsecond}, // too few for any tail: the median
		{1, 1 * time.Microsecond},
	} {
		s := durations(c.n)
		if got := tail(s); got != c.want {
			t.Errorf("tail of %d samples = %v, want %v", c.n, got, c.want)
		}
		beyond := c.n - int(tail(s)/time.Microsecond)
		if c.n > 2*tailSamples+1 && beyond < tailSamples {
			t.Errorf("n=%d: only %d samples beyond the reported tail", c.n, beyond)
		}
	}
	if tail(nil) != 0 || median(nil) != 0 {
		t.Error("empty sample sets must summarise to 0")
	}
}

// TestOpenLoopChargesStallToOpsDueDuringIt injects one 50 ms stall into
// a 1 kHz schedule served by a single worker. A closed loop would show
// one slow operation; the open loop must show every operation that was
// due during the stall as late and slow, measured from its due time.
func TestOpenLoopChargesStallToOpsDueDuringIt(t *testing.T) {
	const stall = 50 * time.Millisecond
	s := newSchedule(1000, 200*time.Millisecond)
	n := 0
	out := s.run(1, time.Second, func(int) error {
		n++
		if n == 20 {
			time.Sleep(stall)
		}
		return nil
	})
	if len(out.lat) != int(s.total) || out.backlog > 2 || len(out.failed) != 0 {
		t.Fatalf("sent %d of %d, backlog %d, failed %d", len(out.lat), s.total, out.backlog, len(out.failed))
	}
	slow, late := 0, 0
	for i := range out.lat {
		if out.lat[i] > stall/5 {
			slow++
		}
		if out.late[i] > stall/5 {
			late++
		}
	}
	// ~50 operations fell due during the stall; all but the one that
	// stalled were also sent late.
	if slow < 30 || late < 30 {
		t.Errorf("%d operations slow and %d sent late; the stall covered about 50 due times", slow, late)
	}
	if slow > 120 {
		t.Errorf("%d of %d operations slow: the stall leaked beyond the operations due during it", slow, len(out.lat))
	}
	if got := tail(sorted(out.late)); got < stall/5 {
		t.Errorf("generator lateness p99 = %v, the stall must show in it", got)
	}
}

// TestOpenLoopBacklog: a system slower than the rate leaves a backlog.
func TestOpenLoopBacklog(t *testing.T) {
	s := newSchedule(1000, 50*time.Millisecond) // 50 ops due
	out := s.run(1, 10*time.Millisecond, func(int) error {
		time.Sleep(5 * time.Millisecond) // serves 200/s
		return nil
	})
	if out.backlog < 30 || out.backlog > 50 {
		t.Errorf("backlog = %d of %d, want most of them unsent at the step's end", out.backlog, s.total)
	}
	boom := errors.New("boom")
	out = newSchedule(1000, 10*time.Millisecond).run(2, time.Second, func(int) error { return boom })
	if len(out.failed) != 10 || len(out.lat) != 0 {
		t.Errorf("failed=%d lat=%d, want 10 failures and no latency samples", len(out.failed), len(out.lat))
	}
}

func usSpan(id, parent int32, name string, start, end int) span {
	return span{id: id, parent: parent, name: name,
		start: time.Duration(start) * time.Microsecond, end: time.Duration(end) * time.Microsecond}
}

// TestAttributeSelfTimes pins the self-time arithmetic: a span's share
// is its duration minus what its children cover, parallel branches
// split the time they overlap, and the shares sum to the call.
func TestAttributeSelfTimes(t *testing.T) {
	d1 := usSpan(6, 4, "drive", 45, 75)
	d1.media = 10 * time.Microsecond
	d2 := usSpan(7, 4, "drive", 50, 70)
	d2.media = 10 * time.Microsecond
	spans := []span{
		usSpan(1, 0, "session.write", 0, 100),
		usSpan(2, 1, "put", 10, 90),
		usSpan(3, 2, "policy_eval", 20, 30),
		usSpan(4, 2, "replicate", 40, 80),
		d1, d2,
	}
	got, rest := attribute(spans)
	want := map[string]time.Duration{
		"policy_eval": 10 * time.Microsecond,
		"replicate":   10 * time.Microsecond, // 40 long, drives cover 45..75
		"drive":       18 * time.Microsecond, // 30 covered, 20/50 of drive time was media
		"media":       12 * time.Microsecond,
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s = %v, want %v", name, got[name], w)
		}
	}
	// call 100 = put's own 10+10+10+10 (=40) + call's own 20 + named 50.
	if rest != 50*time.Microsecond {
		t.Errorf("unattributed = %v, want 50µs", rest)
	}
	sum := rest
	for _, name := range attributed {
		sum += got[name]
	}
	if sum != spans[0].dur() {
		t.Errorf("shares sum to %v, the call took %v", sum, spans[0].dur())
	}

	// Children outside the call are clipped; overlapping roots (a scan's
	// two shards) are counted once.
	call := []span{
		usSpan(1, 0, "router.read", 0, 100),
		usSpan(2, 1, "scan", 10, 50),
		usSpan(5, 1, "scan", 40, 120),
		usSpan(6, 5, "drive", 60, 70), // a grandchild: not the call's child
	}
	if c := covered(call); c != 90*time.Microsecond {
		t.Errorf("covered = %v, want 90µs", c)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	v := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	q1, med, q3 := quartiles(v)
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
	// statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
	q1, med, q3 = quartiles([]float64{3, 1, 2})
	if q1 != 1 || med != 2 || q3 != 3 {
		t.Errorf("quartiles of 3 = %v %v %v, want 1 2 3", q1, med, q3)
	}
}

func runsOf(vals ...float64) Metric {
	r := make([]WorkloadResult, len(vals))
	for i, v := range vals {
		r[i] = WorkloadResult{Name: "w", Correct: true, Metrics: map[string]Metric{"m": {Value: v}}}
	}
	return summarise(r).Metrics["m"]
}

func TestCompareVerdicts(t *testing.T) {
	lat := metricDef{"read_p50_ms", "ms", lower, 0.10}
	rate := metricDef{"ops_per_s", "1/s", higher, 0.10}
	one := func(v float64) Metric { return Metric{Value: v} }
	for _, c := range []struct {
		name      string
		def       metricDef
		base, now Metric
		want      string
	}{
		{"latency up 20%", lat, one(1.0), one(1.2), verdictRegressed},
		{"latency up 5%", lat, one(1.0), one(1.05), verdictOK},
		{"latency down", lat, one(1.0), one(0.5), verdictOK},
		{"rate down 20%", rate, one(1000), one(800), verdictRegressed},
		{"rate up", rate, one(1000), one(1500), verdictOK},
		{"steady runs within bound", lat, runsOf(1.0, 1.01, 1.02, 0.99, 1.0), runsOf(1.03, 1.04, 1.02, 1.05, 1.03), verdictOK},
		{"noisy runs within bound", lat, runsOf(1.0, 1.3, 0.8, 1.1, 0.9), runsOf(1.05, 1.2, 0.85, 1.0, 1.1), verdictUnresolved},
		{"noisy but every run better", lat, runsOf(1.0, 1.3, 0.9, 1.1, 1.2), runsOf(0.5, 0.6, 0.4, 0.7, 0.8), verdictOK},
		{"noisy and worse", lat, runsOf(1.0, 1.3, 0.8, 1.1, 0.9), runsOf(1.5, 1.2, 1.7, 1.4, 1.6), verdictRegressed},
	} {
		if got := judge(c.def, c.base, c.now); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}

	env := Env{Clients: 2, Seed: 7, Seconds: 20, OpenRate: map[string]float64{"kv-read-hot": 12000}}
	doc := func(e Env, ops float64, failed int) *Doc {
		m := make(map[string]Metric)
		for _, d := range endToEnd {
			m[d.Name] = Metric{Value: 1, Unit: d.Unit}
		}
		m["ops_per_s"] = Metric{Value: ops, Unit: "1/s"}
		return &Doc{Env: e, Workloads: []WorkloadResult{{Name: "kv-read-hot", Correct: true, Attempted: 1000, Failed: failed, Metrics: m}}}
	}
	var sb strings.Builder
	if regressed, err := compare(&sb, doc(env, 1000, 0), doc(env, 990, 0)); err != nil || regressed {
		t.Errorf("1%% down: regressed=%v err=%v\n%s", regressed, err, sb.String())
	}
	if !strings.Contains(sb.String(), "new/base 0.990 (base 1000") {
		t.Errorf("ratio printed without its base:\n%s", sb.String())
	}
	if regressed, _ := compare(&sb, doc(env, 1000, 0), doc(env, 500, 0)); !regressed {
		t.Error("halved throughput not reported as a regression")
	}
	if regressed, _ := compare(&sb, doc(env, 1000, 0), doc(env, 1000, 3)); !regressed {
		t.Error("a higher failed_ops_ratio not reported as a regression")
	}
	for _, change := range []func(*Env){
		func(e *Env) { e.Clients = 4 },
		func(e *Env) { e.Seed = 8 },
		func(e *Env) { e.Seconds = 10 },
		func(e *Env) { e.OpenRate = map[string]float64{"kv-read-hot": 9000} },
	} {
		other := env
		change(&other)
		if _, err := compare(&sb, doc(env, 1000, 0), doc(other, 1000, 0)); err == nil {
			t.Errorf("compared documents with different env: %+v vs %+v", env, other)
		}
	}
}

// TestCheckPage pins the listing checks the scan workload applies to
// every page.
func TestCheckPage(t *testing.T) {
	st := &state{w: &workload{records: 100, hideEvery: 4}}
	page := func(idx ...int) []string {
		keys := make([]string, len(idx))
		for i, x := range idx {
			keys[i] = recordKey(x)
		}
		return keys
	}
	ok := func(err error, what string) {
		t.Helper()
		if err != nil {
			t.Errorf("%s: %v", what, err)
		}
	}
	bad := func(err error, what string) {
		t.Helper()
		var v *violation
		if !errors.As(err, &v) {
			t.Errorf("%s: not reported as a violation (err=%v)", what, err)
		}
	}
	start := recordKey(4)
	ok(st.checkPage(page(4, 5, 6, 8, 9), start, 4, 5, true), "a full page skipping hidden record 7")
	ok(st.checkPage(page(97, 98, 100, 101), recordKey(97), 97, 10, true), "a short page at the end, with inserted keys")
	bad(st.checkPage(page(4, 5, 6, 7, 8), start, 4, 5, true), "hidden record 7 listed")
	bad(st.checkPage(page(4, 5, 8, 9, 10), start, 4, 5, true), "record 6 missing")
	bad(st.checkPage(page(4, 6, 5), start, 4, 5, true), "unsorted page")
	bad(st.checkPage(page(4, 4, 5), start, 4, 5, true), "duplicate entry")
	bad(st.checkPage(page(2, 4, 5), start, 4, 5, true), "entry before the start")
	bad(st.checkPage(page(4, 5, 6, 8, 9, 10), start, 4, 5, true), "page over its limit")
	bad(st.checkPage(page(4, 5), start, 4, 5, true), "page ends early")
	ok(st.checkPage(page(4, 6, 5, 9), start, 4, 2, false), "unmerged per-shard pages are only checked per entry")
	bad(st.checkPage(page(4, 7), start, 4, 2, false), "hidden record in an unmerged page")
}
