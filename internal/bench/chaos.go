// Chaos figure: client-observed behavior of one controller while the
// chaos engine kills and partitions its drives mid-run. The failover
// figure measures losing the controller; this one measures losing
// storage underneath a healthy controller — the failure detector
// marks the drive dead, placement substitutes a spare, and the
// incremental anti-entropy sweeper re-replicates in the background
// while a closed-loop YCSB-A style load keeps running. Phases:
// healthy baseline, drive blackholed mid-run, a network partition to
// a second drive plus reconciliation after it heals, and a ramped
// high-load close.
package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/kinetic"
	"repro/internal/testbed"
)

// ChaosPhaseStats is one phase of the chaos run: client-side load
// metrics plus the controller's repair-pipeline deltas over the
// phase.
type ChaosPhaseStats struct {
	Phase        string  `json:"phase"`
	DurMs        float64 `json:"durMs"`
	Ops          int     `json:"ops"`
	IOPS         float64 `json:"iops"`
	MeanMs       float64 `json:"meanMs"`
	P99Ms        float64 `json:"p99Ms"`
	RetriedOps   int     `json:"retriedOps"`
	SweepTicks   uint64  `json:"sweepTicks"`
	Repaired     uint64  `json:"repairedObjects"`
	RepairBytes  uint64  `json:"repairBytes"`
	DriveDeaths  uint64  `json:"driveDeaths"`
	DriveRevives uint64  `json:"driveRevives"`
}

// ChaosTimeline is the machine-readable summary of one chaos run.
type ChaosTimeline struct {
	Seed          int64              `json:"seed"`
	Drives        int                `json:"drives"`
	Replicas      int                `json:"replicas"`
	Keys          int                `json:"keys"`
	Workers       int                `json:"workers"`
	KilledDrive   string             `json:"killedDrive"`
	CutDrive      string             `json:"cutDrive"`
	DetectMs      float64            `json:"detectMs"`
	RereplicateMs float64            `json:"rereplicateMs"`
	Phases        []ChaosPhaseStats  `json:"phases"`
	Sweeper       core.SweeperStatus `json:"sweeper"`
	DriveHealth   []core.DriveHealth `json:"driveHealth"`
}

// lastChaosTimeline holds the most recent FigChaos run for
// WriteBenchChaosJSON.
var lastChaosTimeline ChaosTimeline

// FigChaos runs the phased chaos scenario at the default pacing.
func FigChaos(s Scale) (*Table, error) {
	return figChaos(s, 42, 1200*time.Millisecond)
}

// figChaos is the parameterized body; tests shrink the per-phase
// duration. The seed deterministically picks the victim drives — the
// faults themselves (blackhole, link cut) are deterministic, so the
// same seed yields the same fault schedule on every run.
func figChaos(s Scale, seed int64, phase time.Duration) (*Table, error) {
	const (
		drives   = 5
		replicas = 3
		nKeys    = 96
	)
	c, err := testbed.Start(testbed.Options{
		Drives:   drives,
		Replicas: replicas,
		// Background maintenance on bench-fast settings: the detector
		// declares death after 3 failed 50 ms probes, the sweeper walks
		// 64 keys per 15 ms tick.
		DetectorInterval:     20 * time.Millisecond,
		DetectorProbeTimeout: 50 * time.Millisecond,
		DetectorDeadAfter:    3,
		SweepInterval:        15 * time.Millisecond,
		SweepKeysPerTick:     64,
	})
	if err != nil {
		return nil, err
	}
	defer c.Close()
	ctx := context.Background()

	// Victim selection is the only seeded choice: one drive to kill in
	// phase two, a different one to partition in phase three.
	perm := rand.New(rand.NewSource(seed)).Perm(drives)
	killVictim, cutVictim := perm[0], perm[1]

	loader, _, err := c.NewClient("chaos-loader")
	if err != nil {
		return nil, err
	}
	value := make([]byte, 1024)
	keys := make([]string, nKeys)
	for i := range keys {
		keys[i] = fmt.Sprintf("chaos/%04d", i)
		if _, err := loader.Put(ctx, keys[i], value, client.PutOptions{}); err != nil {
			return nil, fmt.Errorf("load %q: %w", keys[i], err)
		}
	}

	baseWorkers := max(2, min(s.Clients, 8))
	totalWorkers := 2 * baseWorkers // the ramp phase doubles concurrency
	clients := make([]*client.Client, totalWorkers)
	for w := range clients {
		if clients[w], _, err = c.NewClient(fmt.Sprintf("chaos-%d", w)); err != nil {
			return nil, err
		}
	}

	// Closed-loop workers as in the failover figure: each logical op
	// retries until it succeeds, so outage-phase samples carry the
	// whole client-observed stall.
	stop := make(chan struct{})
	samples := make([][]haSample, totalWorkers)
	var wg sync.WaitGroup
	worker := func(w int) {
		defer wg.Done()
		cl := clients[w]
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			ki := (w + i*totalWorkers) % nKeys
			smp := haSample{start: time.Now()}
			deadline := smp.start.Add(20 * time.Second)
			for {
				var err error
				if i%2 == 0 {
					_, _, err = cl.Get(ctx, keys[ki], client.GetOptions{})
				} else {
					_, err = cl.Put(ctx, keys[ki], value, client.PutOptions{})
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
	}
	for w := 0; w < baseWorkers; w++ {
		wg.Add(1)
		go worker(w)
	}

	// chaosSnap is the subset of controller counters the phases diff;
	// core.Stats itself carries a mutex and must not be copied around.
	type chaosSnap struct {
		SweepTicks, Repairs, RepairBytes, DriveDeaths, DriveRevives uint64
	}
	snap := func() chaosSnap {
		s := c.Controller.Stats().Snapshot()
		return chaosSnap{
			SweepTicks: s.SweepTicks, Repairs: s.Repairs, RepairBytes: s.RepairBytes,
			DriveDeaths: s.DriveDeaths, DriveRevives: s.DriveRevives,
		}
	}
	boundaries := make([]time.Time, 0, 5)
	snaps := make([]chaosSnap, 0, 5)
	mark := func() {
		boundaries = append(boundaries, time.Now())
		snaps = append(snaps, snap())
	}

	// Phase 1: healthy baseline.
	mark()
	time.Sleep(phase)

	// Phase 2: blackhole a drive mid-run. Poll while the phase runs to
	// time detection (state dead) and the tail of re-replication (the
	// last repair activity observed).
	mark()
	killedAt := time.Now()
	c.SetDriveFaults(killVictim, kinetic.Faults{Blackhole: true})
	killName := c.Drives[killVictim].Name()
	var detectMs, rereplMs float64
	prev := snaps[len(snaps)-1]
	for time.Since(killedAt) < phase {
		time.Sleep(10 * time.Millisecond)
		if detectMs == 0 {
			for _, h := range c.Controller.DriveHealth() {
				if h.Name == killName && h.State == core.DriveDead {
					detectMs = float64(time.Since(killedAt)) / float64(time.Millisecond)
				}
			}
		}
		if cur := snap(); cur.Repairs > prev.Repairs {
			rereplMs = float64(time.Since(killedAt)) / float64(time.Millisecond)
			prev = cur
		}
	}

	// Phase 3: partition a second drive (the killed one stays dead),
	// heal halfway through, and let the sweeper reconcile the writes
	// the partitioned drive missed.
	mark()
	c.CutDrive(cutVictim)
	time.Sleep(phase / 2)
	c.HealDrive(cutVictim)
	time.Sleep(phase - phase/2)

	// Phase 4: ramp — double the closed-loop concurrency.
	mark()
	for w := baseWorkers; w < totalWorkers; w++ {
		wg.Add(1)
		go worker(w)
	}
	time.Sleep(phase)
	mark()
	close(stop)
	wg.Wait()

	var all []haSample
	for _, sl := range samples {
		all = append(all, sl...)
	}
	if len(all) == 0 {
		return nil, fmt.Errorf("no operations completed")
	}

	tl := ChaosTimeline{
		Seed: seed, Drives: drives, Replicas: replicas,
		Keys: nKeys, Workers: baseWorkers,
		KilledDrive: killName, CutDrive: c.Drives[cutVictim].Name(),
		DetectMs: detectMs, RereplicateMs: rereplMs,
		Sweeper:     c.Controller.SweeperStatus(),
		DriveHealth: c.Controller.DriveHealth(),
	}

	t := &Table{
		Name: "Chaos",
		Title: fmt.Sprintf("Phased fault injection (%d drives, %d replicas, %d→%d clients)",
			drives, replicas, baseWorkers, totalWorkers),
		XLabel:  "phase",
		Columns: []string{"IOP/s", "mean ms", "p99 ms", "retried ops", "repaired objs", "re-repl KB"},
	}
	names := []string{"baseline", "drive-kill", "partition", "ramp"}
	for pi, name := range names {
		from, to := boundaries[pi], boundaries[pi+1]
		var durs []time.Duration
		retried := 0
		for _, smp := range all {
			if smp.start.Before(from) || !smp.start.Before(to) {
				continue
			}
			durs = append(durs, smp.dur)
			if smp.retries > 0 {
				retried++
			}
		}
		d0, d1 := snaps[pi], snaps[pi+1]
		ph := ChaosPhaseStats{
			Phase:        name,
			DurMs:        float64(to.Sub(from)) / float64(time.Millisecond),
			Ops:          len(durs),
			RetriedOps:   retried,
			SweepTicks:   d1.SweepTicks - d0.SweepTicks,
			Repaired:     d1.Repairs - d0.Repairs,
			RepairBytes:  d1.RepairBytes - d0.RepairBytes,
			DriveDeaths:  d1.DriveDeaths - d0.DriveDeaths,
			DriveRevives: d1.DriveRevives - d0.DriveRevives,
		}
		if len(durs) > 0 {
			sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
			var sum time.Duration
			for _, d := range durs {
				sum += d
			}
			ph.IOPS = float64(len(durs)) / to.Sub(from).Seconds()
			ph.MeanMs = float64(sum/time.Duration(len(durs))) / float64(time.Millisecond)
			ph.P99Ms = float64(durs[len(durs)*99/100]) / float64(time.Millisecond)
		}
		tl.Phases = append(tl.Phases, ph)
		t.Rows = append(t.Rows, Row{X: name, Values: []float64{
			ph.IOPS, ph.MeanMs, ph.P99Ms, float64(ph.RetriedOps),
			float64(ph.Repaired), float64(ph.RepairBytes) / 1024,
		}})
	}
	lastChaosTimeline = tl
	return t, nil
}

// BenchChaosJSON is the machine-readable chaos result
// (BENCH_chaos.json): the run timeline plus the per-phase table.
type BenchChaosJSON struct {
	Figure   string        `json:"figure"`
	Title    string        `json:"title"`
	Timeline ChaosTimeline `json:"timeline"`
	Columns  []string      `json:"columns"`
	Phases   []Row         `json:"phases"`
}

// WriteBenchChaosJSON renders the most recent FigChaos run as
// machine-readable output.
func WriteBenchChaosJSON(path string, t *Table) error {
	out := BenchChaosJSON{
		Figure:   t.Name,
		Title:    t.Title,
		Timeline: lastChaosTimeline,
		Columns:  t.Columns,
		Phases:   t.Rows,
	}
	data, err := json.MarshalIndent(&out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
