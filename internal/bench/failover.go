// Failover figure: the availability cost of controller HA. The paper
// treats the controller as a single point of policy enforcement; the
// HA subsystem (internal/cluster/ha.go) adds lease-based standby
// takeover with drive-credential fencing. This figure measures what a
// client actually observes when the active controller dies mid-run:
// throughput and tail latency before, during and after the outage,
// plus the recovery timeline (lease expiry -> epoch-bumped map
// republish -> first successful operation through a stale router).
package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/testbed"
)

// haSample is one logical client operation; Dur includes every retry,
// so outage-phase samples carry the full client-observed stall.
type haSample struct {
	start   time.Time
	end     time.Time
	dur     time.Duration
	retries int
	shard0  bool
}

// HATimeline is the recovery timeline of one failover run, all
// durations measured from the instant the active controller is
// killed.
type HATimeline struct {
	LeaseTTLMs     float64 `json:"leaseTtlMs"`
	OwnerChangeMs  float64 `json:"ownerChangeMs"`
	FirstSuccessMs float64 `json:"firstSuccessMs"`
	MaxStallMs     float64 `json:"maxStallMs"`
	RetriedOps     int     `json:"retriedOps"`
	Takeovers      uint64  `json:"takeovers"`
}

// lastHATimeline holds the timeline of the most recent FigFailover
// run so WriteBenchHAJSON can emit it alongside the phase table.
var lastHATimeline HATimeline

// FigFailover kills shard 0's active controller under a closed-loop
// read/write load against a 2-shard cluster with one hot standby per
// shard, and reports per-phase throughput and tails. The "outage"
// row isolates the window between the kill and the standby's map
// republish; its p99 is dominated by the lease TTL (detection) plus
// the takeover work (credential rotation, cache activation, publish).
func FigFailover(s Scale) (*Table, error) {
	return figFailover(s, 400*time.Millisecond, 800*time.Millisecond)
}

// figFailover is the parameterized body; tests shrink ttl and the
// per-phase duration to keep the smoke run fast.
func figFailover(s Scale, ttl, phase time.Duration) (*Table, error) {
	mc, err := testbed.StartMulti(2, testbed.Options{StandbysPerShard: 1})
	if err != nil {
		return nil, err
	}
	defer mc.Close()
	if err := mc.StartHA(ttl); err != nil {
		return nil, err
	}
	ctx := context.Background()

	loader, _, err := mc.NewRouter("ha-bench-loader")
	if err != nil {
		return nil, err
	}
	const nKeys = 64
	keys := make([]string, nKeys)
	shard0 := make([]bool, nKeys)
	for i := range keys {
		keys[i] = fmt.Sprintf("habench/%04d", i)
		if res, err := loader.Put(ctx, keys[i], []byte("seed"), client.PutOptions{}); err != nil || res.Err != nil {
			return nil, fmt.Errorf("load %q: %v / %v", keys[i], err, res.Err)
		}
		owner, err := mc.Map().OwnerOf(keys[i])
		if err != nil {
			return nil, err
		}
		shard0[i] = owner.ID == 0
	}

	workers := min(s.Clients, 8)
	routers := make([]*cluster.Router, workers)
	for w := range routers {
		if routers[w], _, err = mc.NewRouter(fmt.Sprintf("ha-bench-%d", w)); err != nil {
			return nil, err
		}
	}

	// Closed-loop workers run across the whole experiment; samples are
	// classified into phases afterwards by their start time. Each
	// logical op retries through the outage (clients own availability
	// during the failover window; the lease bounds how long).
	stop := make(chan struct{})
	samples := make([][]haSample, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := routers[w]
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				ki := (w + i*workers) % nKeys
				smp := haSample{start: time.Now(), shard0: shard0[ki]}
				deadline := smp.start.Add(30 * time.Second)
				for {
					var err error
					if i%2 == 0 {
						_, _, err = r.Get(ctx, keys[ki], client.GetOptions{})
					} else {
						var res client.OpResult
						res, err = r.Put(ctx, keys[ki], []byte(fmt.Sprintf("w%d-%d", w, i)), client.PutOptions{})
						if err == nil && res.Err != nil {
							err = res.Err
						}
					}
					if err == nil {
						break
					}
					if time.Now().After(deadline) {
						return
					}
					smp.retries++
					time.Sleep(5 * time.Millisecond)
				}
				smp.end = time.Now()
				smp.dur = smp.end.Sub(smp.start)
				samples[w] = append(samples[w], smp)
			}
		}(w)
	}

	time.Sleep(phase)
	killedAt := time.Now()
	mc.KillNode("pesos-0")
	waitCtx, cancel := context.WithTimeout(ctx, 30*time.Second)
	newOwner, err := mc.WaitForOwner(waitCtx, 0, "pesos-0")
	cancel()
	if err != nil {
		close(stop)
		wg.Wait()
		return nil, fmt.Errorf("no takeover: %w", err)
	}
	recoveredAt := time.Now()
	time.Sleep(phase)
	close(stop)
	wg.Wait()

	var all []haSample
	for _, sl := range samples {
		all = append(all, sl...)
	}
	if len(all) == 0 {
		return nil, fmt.Errorf("no operations completed")
	}

	tl := HATimeline{
		LeaseTTLMs:    float64(ttl) / float64(time.Millisecond),
		OwnerChangeMs: float64(recoveredAt.Sub(killedAt)) / float64(time.Millisecond),
	}
	if hn := mc.HANodeFor(newOwner); hn != nil {
		tl.Takeovers = hn.Takeovers()
	}
	// First successful shard-0 op completed after the kill, and the
	// longest client-observed gap between shard-0 successes: the two
	// client-side views of the blackout window.
	var s0ends []time.Time
	for _, smp := range all {
		if smp.shard0 {
			s0ends = append(s0ends, smp.end)
		}
		if smp.retries > 0 {
			tl.RetriedOps++
		}
	}
	sort.Slice(s0ends, func(i, j int) bool { return s0ends[i].Before(s0ends[j]) })
	for i, e := range s0ends {
		if e.After(killedAt) && tl.FirstSuccessMs == 0 {
			tl.FirstSuccessMs = float64(e.Sub(killedAt)) / float64(time.Millisecond)
		}
		if i > 0 {
			if gap := e.Sub(s0ends[i-1]); float64(gap)/float64(time.Millisecond) > tl.MaxStallMs {
				tl.MaxStallMs = float64(gap) / float64(time.Millisecond)
			}
		}
	}
	lastHATimeline = tl

	t := &Table{
		Name: "Failover",
		Title: fmt.Sprintf("Controller failover under load (2 shards, 1 standby each, lease TTL %v, %d clients)",
			ttl, workers),
		XLabel:  "phase",
		Columns: []string{"IOP/s", "mean ms", "p99 ms", "retried ops"},
	}
	phases := []struct {
		name string
		keep func(haSample) bool
	}{
		{"healthy", func(s haSample) bool { return s.start.Before(killedAt) }},
		{"outage", func(s haSample) bool {
			return !s.start.Before(killedAt) && s.start.Before(recoveredAt)
		}},
		{"recovered", func(s haSample) bool { return !s.start.Before(recoveredAt) }},
	}
	for _, ph := range phases {
		var durs []time.Duration
		retried := 0
		var first, last time.Time
		for _, smp := range all {
			if !ph.keep(smp) {
				continue
			}
			durs = append(durs, smp.dur)
			if smp.retries > 0 {
				retried++
			}
			if first.IsZero() || smp.start.Before(first) {
				first = smp.start
			}
			if smp.end.After(last) {
				last = smp.end
			}
		}
		row := Row{X: ph.name}
		if len(durs) == 0 {
			row.Values = []float64{0, 0, 0, 0}
		} else {
			sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
			var sum time.Duration
			for _, d := range durs {
				sum += d
			}
			elapsed := last.Sub(first)
			iops := 0.0
			if elapsed > 0 {
				iops = float64(len(durs)) / elapsed.Seconds()
			}
			row.Values = []float64{
				iops,
				float64(sum/time.Duration(len(durs))) / float64(time.Millisecond),
				float64(durs[len(durs)*99/100]) / float64(time.Millisecond),
				float64(retried),
			}
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// BenchHAJSON is the machine-readable failover result
// (BENCH_ha.json): the recovery timeline plus the per-phase table.
type BenchHAJSON struct {
	Figure   string     `json:"figure"`
	Title    string     `json:"title"`
	Timeline HATimeline `json:"timeline"`
	Columns  []string   `json:"columns"`
	Phases   []Row      `json:"phases"`
}

// WriteBenchHAJSON renders the most recent FigFailover run as
// machine-readable output.
func WriteBenchHAJSON(path string, t *Table) error {
	out := BenchHAJSON{
		Figure:   t.Name,
		Title:    t.Title,
		Timeline: lastHATimeline,
		Columns:  t.Columns,
		Phases:   t.Rows,
	}
	data, err := json.MarshalIndent(&out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
