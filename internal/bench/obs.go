package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"syscall"
	"time"

	"repro/internal/testbed"
)

// obsPolicy is attached to every record of the overhead runs so the
// measured path includes policy evaluation (and, on the instrumented
// cluster, the audit sampling branch). It admits any authenticated
// session — the healthy path the figure is about.
const obsPolicy = "read :- sessionKeyIs(U)\nupdate :- sessionKeyIs(U)\n"

// ObsRound is one interleaved on/off measurement pair.
type ObsRound struct {
	Round        int     `json:"round"`
	OnKIOPS      float64 `json:"onKIOPS"`
	OffKIOPS     float64 `json:"offKIOPS"`
	OnCPUUsPOp   float64 `json:"onCPUUsPerOp"`
	OffCPUUsPOp  float64 `json:"offCPUUsPerOp"`
	WallCPURatio float64 `json:"wallCPURatio"`
	OnP99Ms      float64 `json:"onP99Ms"`
	OffP99Ms     float64 `json:"offP99Ms"`
}

// obsTaintRatio is the wall-to-CPU ratio above which a round is
// discarded as contaminated. The replay is closed-loop and CPU-bound,
// so on an otherwise idle machine wall time tracks CPU time closely;
// a pair that took meaningfully longer on the wall than on the CPU
// was descheduled in favor of some other process mid-measurement.
const obsTaintRatio = 1.15

// ObsResult is the machine-readable outcome of the obs overhead
// figure (BENCH_obs.json). Both configurations boot once and the
// rounds alternate replays between the two warmed clusters, so each
// round is a tight temporal pair. The headline overhead is the median
// per-round ratio of process CPU consumed per operation: the whole
// testbed runs in this one process and replays are serialized, so
// CPU-per-op charges each config for exactly the work it did, where a
// wall-clock ratio would also charge whichever side a background
// burst on the host happened to land on.
type ObsResult struct {
	Clients           int        `json:"clients"`
	Ops               int        `json:"ops"`
	Rounds            []ObsRound `json:"rounds"`
	MedianOnKIOPS     float64    `json:"medianOnKIOPS"`
	MedianOffKIOPS    float64    `json:"medianOffKIOPS"`
	MedianOnCPUUsPOp  float64    `json:"medianOnCPUUsPerOp"`
	MedianOffCPUUsPOp float64    `json:"medianOffCPUUsPerOp"`
	OverheadPct       float64    `json:"overheadPct"`
	DiscardedRounds   int        `json:"discardedRounds"`
	AuditLogBytes     int64      `json:"auditLogBytes"`
}

// lastObsResult holds the most recent FigObs run for
// WriteBenchObsJSON.
var lastObsResult ObsResult

// FigObs measures the healthy-path cost of the full observability
// layer — per-op tracing, metrics registry, audit sampling — by
// replaying the same YCSB-A trace against an instrumented cluster and
// one with the kill switch thrown (-obs=off / DisableObs).
func FigObs(s Scale) (*Table, error) {
	return figObs(s, 9)
}

// figObs is FigObs with the round count exposed for the smoke test.
func figObs(s Scale, rounds int) (*Table, error) {
	t := &Table{
		Name: "Obs", Title: fmt.Sprintf("Observability overhead (YCSB-A, 1 KB, %d clients)", s.Clients),
		XLabel:  "round",
		Columns: []string{"Obs On kIOP/s", "Obs Off kIOP/s", "Overhead %", "On cpu-µs/op", "Off cpu-µs/op", "On p99 ms", "Off p99 ms"},
	}
	auditDir, err := os.MkdirTemp("", "pesos-bench-audit-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(auditDir)

	// The instrumented side runs the daemon's production defaults:
	// metrics on every op, traces head-sampled 1-in-16 (pesos
	// -trace-sample), audit with ALLOW sampling. Slow-op dumping stays
	// off — a closed-loop replay at full tilt trips the threshold
	// constantly, and serializing span trees onto stderr
	// mid-measurement would charge the layer for logging it never does
	// in steady state.
	onCluster, err := bootObsCluster(testbed.Options{
		AuditDir:         filepath.Join(auditDir, "log"),
		AuditSampleAllow: 100,
		SlowOpThreshold:  -1,
		TraceSample:      16,
	})
	if err != nil {
		return nil, fmt.Errorf("obs on cluster: %w", err)
	}
	defer onCluster.Close()
	offCluster, err := bootObsCluster(testbed.Options{DisableObs: true})
	if err != nil {
		return nil, fmt.Errorf("obs off cluster: %w", err)
	}
	defer offCluster.Close()

	// Each replay is bracketed by getrusage so the round records the
	// CPU this process burned per operation, load phase included on
	// both sides alike. Wall time comes along to spot rounds the host
	// stole CPU from.
	replay := func(c *testbed.Cluster) (*Metrics, time.Duration, time.Duration, error) {
		beforeCPU, beforeWall := cpuTime(), time.Now()
		m, err := runOnCluster(c, s.Clients, s.RecordCount, s.OpCount, 1024, ModePlain, 1, obsPolicy)
		return m, cpuTime() - beforeCPU, time.Since(beforeWall), err
	}
	// One discarded warmup pass per cluster: the first replay pays
	// cache fills and lazy TLS session setup neither config should be
	// charged for.
	if _, _, _, err := replay(onCluster); err != nil {
		return nil, fmt.Errorf("obs on warmup: %w", err)
	}
	if _, _, _, err := replay(offCluster); err != nil {
		return nil, fmt.Errorf("obs off warmup: %w", err)
	}

	res := ObsResult{Clients: s.Clients, Ops: s.OpCount}
	var overheads []float64
	var onKIOPS, offKIOPS, onCPU, offCPU []float64
	retries := rounds
	for round := 1; round <= rounds; round++ {
		// Each round replays on both warmed clusters back to back,
		// order alternating, so slow drift (thermal, background load)
		// hits both sides alike instead of always taxing whichever
		// config runs second.
		var on, off *Metrics
		var onCPUDur, offCPUDur, onWall, offWall time.Duration
		var err error
		if round%2 == 1 {
			if on, onCPUDur, onWall, err = replay(onCluster); err == nil {
				off, offCPUDur, offWall, err = replay(offCluster)
			}
		} else {
			if off, offCPUDur, offWall, err = replay(offCluster); err == nil {
				on, onCPUDur, onWall, err = replay(onCluster)
			}
		}
		if err != nil {
			return nil, fmt.Errorf("obs round %d: %w", round, err)
		}
		ratio := 0.0
		if onCPUDur+offCPUDur > 0 {
			ratio = float64(onWall+offWall) / float64(onCPUDur+offCPUDur)
		}
		if ratio > obsTaintRatio && retries > 0 {
			// The host ran something else through the middle of this
			// pair; its ratio measures scheduling luck, not the
			// layer. Re-measure — but only as many times as there are
			// rounds, so a genuinely loaded machine still terminates
			// (with the contamination on record in discardedRounds).
			retries--
			res.DiscardedRounds++
			round--
			continue
		}
		perOp := func(d time.Duration) float64 {
			return float64(d) / float64(time.Microsecond) / float64(s.OpCount)
		}
		r := ObsRound{
			Round:        round,
			OnKIOPS:      on.KIOPS,
			OffKIOPS:     off.KIOPS,
			OnCPUUsPOp:   perOp(onCPUDur),
			OffCPUUsPOp:  perOp(offCPUDur),
			WallCPURatio: ratio,
			OnP99Ms:      float64(on.P99) / float64(time.Millisecond),
			OffP99Ms:     float64(off.P99) / float64(time.Millisecond),
		}
		res.Rounds = append(res.Rounds, r)
		onKIOPS = append(onKIOPS, r.OnKIOPS)
		offKIOPS = append(offKIOPS, r.OffKIOPS)
		onCPU = append(onCPU, r.OnCPUUsPOp)
		offCPU = append(offCPU, r.OffCPUUsPOp)
		roundOver := 0.0
		if r.OffCPUUsPOp > 0 {
			roundOver = (r.OnCPUUsPOp/r.OffCPUUsPOp - 1) * 100
		}
		overheads = append(overheads, roundOver)
		t.Rows = append(t.Rows, Row{X: fmt.Sprint(round),
			Values: []float64{r.OnKIOPS, r.OffKIOPS, roundOver, r.OnCPUUsPOp, r.OffCPUUsPOp, r.OnP99Ms, r.OffP99Ms}})
	}
	res.MedianOnKIOPS = median(onKIOPS)
	res.MedianOffKIOPS = median(offKIOPS)
	res.MedianOnCPUUsPOp = median(onCPU)
	res.MedianOffCPUUsPOp = median(offCPU)
	res.OverheadPct = median(overheads)
	res.AuditLogBytes = dirBytes(auditDir)
	t.Rows = append(t.Rows, Row{X: "median",
		Values: []float64{res.MedianOnKIOPS, res.MedianOffKIOPS, res.OverheadPct,
			res.MedianOnCPUUsPOp, res.MedianOffCPUUsPOp, 0, 0}})
	lastObsResult = res
	return t, nil
}

// bootObsCluster starts the single-drive enclave cluster both
// overhead configurations share the shape of.
func bootObsCluster(o testbed.Options) (*testbed.Cluster, error) {
	o.Drives = 1
	o.Enclave = true
	return testbed.Start(o)
}

// cpuTime returns the user+system CPU this process has consumed, or
// 0 if the platform cannot say.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Sec+ru.Stime.Sec)*time.Second +
		time.Duration(ru.Utime.Usec+ru.Stime.Usec)*time.Microsecond
}

// median returns the middle value (mean of the two middles for even
// counts); 0 for an empty slice.
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// dirBytes sums the file sizes under dir (best effort).
func dirBytes(dir string) int64 {
	var total int64
	filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() {
			total += info.Size()
		}
		return nil
	})
	return total
}

// BenchObsJSON is the machine-readable obs overhead result
// (BENCH_obs.json): the interleaved rounds plus the median summary.
type BenchObsJSON struct {
	Figure  string    `json:"figure"`
	Title   string    `json:"title"`
	Result  ObsResult `json:"result"`
	Columns []string  `json:"columns"`
	Rows    []Row     `json:"rows"`
}

// WriteBenchObsJSON renders the most recent FigObs run as
// machine-readable output.
func WriteBenchObsJSON(path string, t *Table) error {
	out := BenchObsJSON{
		Figure:  t.Name,
		Title:   t.Title,
		Result:  lastObsResult,
		Columns: t.Columns,
		Rows:    t.Rows,
	}
	data, err := json.MarshalIndent(&out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
