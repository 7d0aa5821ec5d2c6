// Package obs is the observability layer: a lock-free metrics
// registry (atomic counters, gauges, log-bucketed latency histograms
// with mergeable snapshots) behind a hand-rolled Prometheus text
// endpoint, end-to-end request tracing with a ring-buffer trace
// store, and the sealed, hash-chained audit decision log.
//
// The hot paths are allocation- and lock-free: a Counter is one
// atomic word, a Histogram a fixed array of them. Registration and
// scraping take the registry mutex; recording never does. Everything
// here is stdlib-only — the controller runs inside an enclave and the
// daemons ship without third-party dependencies.
package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing counter: one atomic word,
// zero-value ready. It embeds nothing and takes no lock, so structs
// of Counters (core.Stats, cluster.RouterStats) stay hot-path free.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Load returns the current value.
func (c *Counter) Load() uint64 { return c.v.Load() }

// Max raises the value to n if n is greater — for high-water marks
// (the router's worst per-op redirect count) that live alongside true
// counters.
func (c *Counter) Max(n uint64) {
	for {
		cur := c.v.Load()
		if n <= cur || c.v.CompareAndSwap(cur, n) {
			return
		}
	}
}

// metricKind discriminates the registry's sample types.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

// metric is one registered sample series. name may carry a Prometheus
// label suffix ("pesos_ops_total{op=\"get\"}"); family is the name up
// to the label brace, under which HELP/TYPE are emitted once.
type metric struct {
	name   string
	family string
	help   string
	kind   metricKind

	counterFn func() uint64
	gaugeFn   func() float64
	hist      *Histogram
}

// Registry holds the process's metric series and renders them in the
// Prometheus text exposition format.
type Registry struct {
	mu      sync.Mutex
	metrics []*metric
	index   map[string]int // full name -> metrics index
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{index: make(map[string]int)}
}

// familyOf strips a label suffix from a full sample name.
func familyOf(name string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i]
	}
	return name
}

// register installs (or replaces) a metric under its full name.
func (r *Registry) register(m *metric) {
	if r == nil {
		return
	}
	m.family = familyOf(m.name)
	r.mu.Lock()
	defer r.mu.Unlock()
	if i, ok := r.index[m.name]; ok {
		r.metrics[i] = m
		return
	}
	r.index[m.name] = len(r.metrics)
	r.metrics = append(r.metrics, m)
}

// Counter registers and returns a new counter. Nil registries return
// a usable (unregistered) counter, so callers never branch.
func (r *Registry) Counter(name, help string) *Counter {
	c := &Counter{}
	r.RegisterCounter(name, help, c)
	return c
}

// RegisterCounter registers an existing counter — how core.Stats and
// cluster.RouterStats re-home their fields on the registry without
// moving them.
func (r *Registry) RegisterCounter(name, help string, c *Counter) {
	r.register(&metric{name: name, help: help, kind: kindCounter, counterFn: c.Load})
}

// CounterFunc registers a counter read through a callback (drive
// stats, cache counters — sources that already own their atomics).
func (r *Registry) CounterFunc(name, help string, f func() uint64) {
	r.register(&metric{name: name, help: help, kind: kindCounter, counterFn: f})
}

// GaugeFunc registers a gauge read through a callback.
func (r *Registry) GaugeFunc(name, help string, f func() float64) {
	r.register(&metric{name: name, help: help, kind: kindGauge, gaugeFn: f})
}

// Histogram registers and returns a new latency histogram.
func (r *Registry) Histogram(name, help string) *Histogram {
	h := &Histogram{}
	r.register(&metric{name: name, help: help, kind: kindHistogram, hist: h})
	return h
}

// WritePrometheus renders every registered series in the text
// exposition format, grouped by family with HELP/TYPE emitted once
// per family, families in name order (scrape-stable output).
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	metrics := make([]*metric, len(r.metrics))
	copy(metrics, r.metrics)
	r.mu.Unlock()

	sort.SliceStable(metrics, func(i, j int) bool { return metrics[i].family < metrics[j].family })
	var b strings.Builder
	lastFamily := ""
	for _, m := range metrics {
		if m.family != lastFamily {
			lastFamily = m.family
			fmt.Fprintf(&b, "# HELP %s %s\n", m.family, m.help)
			fmt.Fprintf(&b, "# TYPE %s %s\n", m.family, typeName(m.kind))
		}
		switch m.kind {
		case kindCounter:
			fmt.Fprintf(&b, "%s %d\n", m.name, m.counterFn())
		case kindGauge:
			fmt.Fprintf(&b, "%s %s\n", m.name, formatFloat(m.gaugeFn()))
		case kindHistogram:
			writeHistogram(&b, m.name, m.hist.Snapshot())
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func typeName(k metricKind) string {
	switch k {
	case kindGauge:
		return "gauge"
	case kindHistogram:
		return "histogram"
	default:
		return "counter"
	}
}

// writeHistogram renders one histogram's cumulative buckets, sum and
// count. Bucket bounds are seconds, as Prometheus conventions expect.
func writeHistogram(b *strings.Builder, name string, s HistogramSnapshot) {
	base, labels := splitLabels(name)
	cum := uint64(0)
	for i := 0; i < HistBuckets-1; i++ {
		cum += s.Buckets[i]
		le := formatFloat(float64(BucketBound(i)) / 1e9)
		fmt.Fprintf(b, "%s_bucket%s %d\n", base, withLabel(labels, "le", le), cum)
	}
	cum += s.Buckets[HistBuckets-1]
	fmt.Fprintf(b, "%s_bucket%s %d\n", base, withLabel(labels, "le", "+Inf"), cum)
	fmt.Fprintf(b, "%s_sum%s %s\n", base, labels, formatFloat(s.Sum.Seconds()))
	fmt.Fprintf(b, "%s_count%s %d\n", base, labels, s.Count)
}

// splitLabels separates "name{a=\"b\"}" into name and "{a=\"b\"}".
func splitLabels(name string) (base, labels string) {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i], name[i:]
	}
	return name, ""
}

// withLabel appends one label to an existing (possibly empty) label
// set.
func withLabel(labels, key, value string) string {
	pair := key + `="` + value + `"`
	if labels == "" {
		return "{" + pair + "}"
	}
	return labels[:len(labels)-1] + "," + pair + "}"
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
