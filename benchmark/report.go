package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
)

// Doc is the result document (-out): what ran, where, and what it
// measured.
type Doc struct {
	Env       Env              `json:"env"`
	Workloads []WorkloadResult `json:"workloads"`
}

// Env records everything two documents must share to be comparable,
// and enough about the box to explain why they might still differ.
type Env struct {
	Commit     string             `json:"commit"`
	GoVersion  string             `json:"go_version"`
	NProc      int                `json:"nproc"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	Clients    int                `json:"clients"`
	Seed       int64              `json:"seed"`
	Seconds    float64            `json:"seconds"`
	Trace      bool               `json:"trace"`
	Runs       int                `json:"runs"`
	Setups     int                `json:"setups_per_run"`
	Media      map[string]string  `json:"media"`
	OpenRate   map[string]float64 `json:"open_rate"`
	Deployment map[string]any     `json:"deployment"`
}

// WorkloadResult is one workload's outcome: one run, or the medians of
// several.
type WorkloadResult struct {
	Name    string `json:"name"`
	Correct bool   `json:"correct"`
	// Attempted and Failed count operations over every measured phase;
	// a denial the policy demands is a success, an allowed denial probe
	// a violation.
	Attempted       int               `json:"attempted"`
	Failed          int               `json:"failed"`
	Violations      int               `json:"violations"`
	AckedWritesLost int               `json:"acked_writes_lost"`
	Metrics         map[string]Metric `json:"metrics,omitempty"` // end-to-end (trace off)
	Layers          map[string]Metric `json:"layers,omitempty"`  // per-layer (trace on)
	Messages        []string          `json:"messages,omitempty"`
}

// commit is the revision the binary was built from, as the toolchain
// stamped it ("unknown" outside a git checkout, as under the driver).
func commit() string {
	rev, dirty := "unknown", ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch {
			case s.Key == "vcs.revision":
				rev = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				dirty = "+dirty"
			}
		}
	}
	return rev + dirty
}

func newEnv(cfg runConfig, runs int) Env {
	e := Env{
		Commit: commit(), GoVersion: runtime.Version(),
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Clients: cfg.clients, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
		Runs: runs, Setups: cfg.setups,
		Media: map[string]string{}, OpenRate: map[string]float64{},
		Deployment: map[string]any{
			"controllers": controllers, "drives_per_controller": drivesPerNode,
			"replicas": replicas, "ec": "4+2 from 4 MiB", "enclave": true,
			"trace_sample": obsTraceSample, "slow_op_dump": false,
			"detector_ticker": false, "sweeper_ticker": false,
		},
	}
	for _, w := range workloads {
		e.Media[w.name] = "sim"
		if w.hdd {
			e.Media[w.name] = "hdd"
		}
		e.OpenRate[w.name] = w.openRate
	}
	return e
}

// result turns one run into its result record.
func result(m *measured) WorkloadResult {
	r := WorkloadResult{Name: m.cfg.w.name, AckedWritesLost: m.verify.lost}
	for _, p := range m.phases() {
		r.Attempted += p.attempted
		r.Failed += p.failed
		r.Violations += p.violations
		r.Messages = append(r.Messages, p.messages...)
	}
	r.Messages = append(r.Messages, m.verify.messages...)
	r.Correct = r.Violations == 0 && r.AckedWritesLost == 0
	if m.cfg.trace {
		r.Layers = perLayerValues(m)
	} else {
		r.Metrics = endToEndValues(m)
		for _, def := range endToEnd {
			mt := r.Metrics[def.Name]
			mt.Unit = def.Unit
			r.Metrics[def.Name] = mt
		}
	}
	return r
}

// reported returns the metric set a result carries and its definitions.
func (r *WorkloadResult) reported() (map[string]Metric, []metricDef) {
	if r.Layers != nil {
		return r.Layers, perLayer
	}
	return r.Metrics, endToEnd
}

// printLines prints one "workload metric value unit n=samples" line per
// metric, in catalogue order.
func (r *WorkloadResult) printLines(w io.Writer) {
	metrics, defs := r.reported()
	for _, def := range defs {
		m := metrics[def.Name]
		fmt.Fprintf(w, "%s %s %.6g %s n=%d", r.Name, def.Name, m.Value, m.Unit, m.Samples)
		if m.Runs > 1 {
			fmt.Fprintf(w, " runs=%d q1=%.6g q3=%.6g min=%.6g max=%.6g spread=%.1f%%",
				m.Runs, m.Q1, m.Q3, m.Min, m.Max, 100*m.spread())
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "%s failed_ops_ratio %.6g ratio n=%d\n", r.Name, ratio(r.Failed, r.Attempted), r.Attempted)
	fmt.Fprintf(w, "%s violations %d count n=%d\n", r.Name, r.Violations, r.Attempted)
	fmt.Fprintf(w, "%s acked_writes_lost %d count n=0\n", r.Name, r.AckedWritesLost)
	for _, msg := range r.Messages {
		fmt.Fprintf(w, "%s ! %s\n", r.Name, msg)
	}
}

// contractLine is the last line of a single-workload run: exactly the
// keys the benchmark contract names, values with all their digits.
func (r *WorkloadResult) contractLine() string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics, _ := r.reported()
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, make(map[string]mv, len(metrics))}
	for name, m := range metrics {
		out.Metrics[name] = mv{m.Value, m.Unit}
	}
	b, _ := json.Marshal(out) // plain numbers and strings: cannot fail
	return string(b)
}

func writeDoc(path string, d *Doc) error {
	b, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readDoc(path string) (*Doc, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d Doc
	if err := json.Unmarshal(b, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &d, nil
}

// quartiles returns the first quartile, median and third quartile of
// vals by the method of Python's statistics.quantiles(n=4) — the one
// the acceptance procedure uses — so spreads printed here match it.
func quartiles(vals []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(k int) float64 { // exclusive method: position k(n+1)/4
		pos := float64(k*(n+1)) / 4
		j := int(math.Floor(pos))
		j = min(max(j, 1), n-1)
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}

// summarise folds the runs of one workload into medians with their
// quartiles and extremes.
func summarise(runs []WorkloadResult) WorkloadResult {
	out := WorkloadResult{Name: runs[0].Name, Correct: true}
	fold := func(get func(*WorkloadResult) map[string]Metric) map[string]Metric {
		if get(&runs[0]) == nil {
			return nil
		}
		acc := make(map[string]Metric)
		for name, first := range get(&runs[0]) {
			var vals []float64
			samples := 0
			for i := range runs {
				m := get(&runs[i])[name]
				vals = append(vals, m.Value)
				samples += m.Samples
			}
			q1, med, q3 := quartiles(vals)
			sort.Float64s(vals)
			acc[name] = Metric{
				Value: med, Unit: first.Unit, Samples: samples,
				Runs: len(vals), Q1: q1, Q3: q3, Min: vals[0], Max: vals[len(vals)-1],
			}
		}
		return acc
	}
	out.Metrics = fold(func(r *WorkloadResult) map[string]Metric { return r.Metrics })
	out.Layers = fold(func(r *WorkloadResult) map[string]Metric { return r.Layers })
	for _, r := range runs {
		out.Correct = out.Correct && r.Correct
		out.Attempted += r.Attempted
		out.Failed += r.Failed
		out.Violations += r.Violations
		out.AckedWritesLost += r.AckedWritesLost
		out.Messages = append(out.Messages, r.Messages...)
	}
	return out
}
