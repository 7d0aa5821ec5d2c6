// Erasure-coding figure: the capacity/durability trade of the
// Reed-Solomon storage class against full replication, measured end to
// end. Phase one streams large objects into a replication-3 cluster
// and reads them back — the durability baseline. Phase two repeats the
// workload on an erasure-coded cluster (k+m striping): PUT and GET
// throughput must hold while raw capacity per logical byte drops from
// ~3.0x toward (k+m)/k. Phase three kills a shard-holding drive under
// a closed-loop streamed write load and times the detector verdict and
// the sweeper's shard rebuild — with every acked write surviving.
package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"sync"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/kinetic"
	"repro/internal/testbed"
)

// ECTimeline is the machine-readable summary of one FigEC run.
type ECTimeline struct {
	Drives      int   `json:"drives"`
	Replicas    int   `json:"replicas"`
	K           int   `json:"k"`
	M           int   `json:"m"`
	Objects     int   `json:"objects"`
	ObjectBytes int64 `json:"objectBytes"`
	// Raw stored bytes per logical byte (capacity per unit of
	// durability): ~replicas for the baseline, ~(k+m)/k + metadata
	// overhead for the EC class.
	CapacityRepl float64 `json:"capacityRepl"`
	CapacityEC   float64 `json:"capacityEC"`
	PutReplMBs   float64 `json:"putReplMBs"`
	GetReplMBs   float64 `json:"getReplMBs"`
	PutECMBs     float64 `json:"putECMBs"`
	GetECMBs     float64 `json:"getECMBs"`
	// GetRatio is EC GET throughput over the replicated baseline
	// (fastest-k parallel stripe reads vs chunk reads).
	GetRatio float64 `json:"getRatio"`
	// Rebuild phase: time to the dead verdict, time from the kill to
	// the last observed shard repair, and the shard count restored.
	DetectMs     float64 `json:"detectMs"`
	RebuildMs    float64 `json:"rebuildMs"`
	ShardRepairs uint64  `json:"shardRepairs"`
	Decodes      uint64  `json:"ecDecodes"`
	// Closed-loop write load during the kill: every acked version must
	// read back intact.
	AckedWrites int `json:"ackedWrites"`
	LostAcked   int `json:"lostAcked"`
}

// lastECTimeline holds the most recent FigEC run for WriteBenchECJSON.
var lastECTimeline ECTimeline

// LastECTimeline returns the most recent FigEC run's timeline, for
// assertions in callers outside the package (the root benchmark gates
// the capacity ratio, GET ratio and acked-write survival on it).
func LastECTimeline() ECTimeline { return lastECTimeline }

// FigEC runs the erasure-coding figure at its default micro sizing:
// enough multi-stripe objects to make the capacity ratios sharp while
// staying inside a CI smoke budget.
func FigEC(s Scale) (*Table, error) {
	return figEC(s, 6, 8<<20)
}

// figEC is the parameterized body; tests shrink the object count and
// size. Objects must span at least one full stripe (k chunks) for the
// capacity ratio to approach (k+m)/k.
func figEC(s Scale, objects int, objBytes int64) (*Table, error) {
	const (
		drives = 8
		k, m   = 4, 2
	)
	payloads := make([][]byte, objects)
	for i := range payloads {
		payloads[i] = make([]byte, objBytes)
		rand.New(rand.NewSource(int64(1000 + i))).Read(payloads[i])
	}
	logical := objBytes * int64(objects)

	// Phase 1: the durability baseline — replication factor 3.
	putRepl, getRepl, capRepl, err := ecStreamPhase(testbed.Options{
		Drives: drives, Replicas: 3,
	}, payloads)
	if err != nil {
		return nil, fmt.Errorf("replicated baseline: %w", err)
	}

	// Phase 2: the same workload erasure-coded, measured under the same
	// default maintenance pacing as the baseline.
	ecOpts := testbed.Options{
		Drives: drives, Replicas: 2,
		EC: true, ECDataShards: k, ECParityShards: m, ECMinBytes: 1 << 20,
	}
	putEC, getEC, capEC, err := ecStreamPhase(ecOpts, payloads)
	if err != nil {
		return nil, fmt.Errorf("ec phase: %w", err)
	}

	// Phase 3: a fresh EC cluster on chaos-fast detector and sweeper
	// timers; kill a drive under load and time the rebuild.
	ecOpts.DetectorInterval = 20 * time.Millisecond
	ecOpts.DetectorProbeTimeout = 50 * time.Millisecond
	ecOpts.DetectorDeadAfter = 3
	ecOpts.SweepInterval = 10 * time.Millisecond
	ecOpts.SweepKeysPerTick = 64
	c, err := testbed.Start(ecOpts)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	ctx := context.Background()
	cl, _, err := c.NewClient("ec-bench")
	if err != nil {
		return nil, err
	}
	for i, p := range payloads {
		key := fmt.Sprintf("ec-obj/%03d", i)
		res, err := cl.PutStream(ctx, key, bytes.NewReader(p), client.PutOptions{})
		if err != nil {
			return nil, fmt.Errorf("rebuild-phase put %q: %w", key, err)
		}
		if res.Err != nil {
			return nil, fmt.Errorf("rebuild-phase put %q: %w", key, res.Err)
		}
	}

	// Phase 3: closed-loop streamed writers on side keys while a
	// shard-holding drive dies; acks are recorded and must survive.
	const nLoad = 6
	loadPayloads := make([][]byte, nLoad)
	loadKeys := make([]string, nLoad)
	for i := range loadKeys {
		loadKeys[i] = fmt.Sprintf("ec-load/%02d", i)
		loadPayloads[i] = make([]byte, (1<<20)+i*211)
		rand.New(rand.NewSource(int64(2000 + i))).Read(loadPayloads[i])
	}
	acked := make([]int64, nLoad)
	for i := range acked {
		acked[i] = -1
	}
	workers := max(2, min(s.Clients, 3))
	clients := make([]*client.Client, workers)
	for w := range clients {
		if clients[w], _, err = c.NewClient(fmt.Sprintf("ec-load-%d", w)); err != nil {
			return nil, err
		}
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				ki := (w + i*workers) % nLoad
				deadline := time.Now().Add(20 * time.Second)
				for {
					res, err := clients[w].PutStream(ctx, loadKeys[ki], bytes.NewReader(loadPayloads[ki]), client.PutOptions{})
					if err == nil && res.Err == nil {
						acked[ki] = res.Version
						break
					}
					if time.Now().After(deadline) {
						return
					}
					time.Sleep(5 * time.Millisecond)
				}
				time.Sleep(2 * time.Millisecond)
			}
		}(w)
	}
	time.Sleep(100 * time.Millisecond)

	// With objects striped across a k+m window of every ring position,
	// any drive holds shards; kill drive 0.
	const victim = 0
	before := c.Controller.Stats().Snapshot()
	killedAt := time.Now()
	c.SetDriveFaults(victim, kinetic.Faults{Blackhole: true})
	victimName := c.Drives[victim].Name()
	var detectMs, rebuildMs float64
	lastRepairs := before.ECShardRepairs
	quietSince := time.Now()
	for time.Since(killedAt) < 20*time.Second {
		time.Sleep(10 * time.Millisecond)
		if detectMs == 0 {
			for _, h := range c.Controller.DriveHealth() {
				if h.Name == victimName && h.State == core.DriveDead {
					detectMs = float64(time.Since(killedAt)) / float64(time.Millisecond)
				}
			}
		}
		if cur := c.Controller.Stats().Snapshot().ECShardRepairs; cur > lastRepairs {
			lastRepairs = cur
			rebuildMs = float64(time.Since(killedAt)) / float64(time.Millisecond)
			quietSince = time.Now()
		}
		// Rebuilt and quiescent: the sweeper found nothing to restore
		// for a while after the last shard repair.
		if detectMs > 0 && rebuildMs > 0 && time.Since(quietSince) > 500*time.Millisecond {
			break
		}
	}
	close(stop)
	wg.Wait()
	after := c.Controller.Stats().Snapshot()

	// Zero lost acked writes, read with the victim still dead.
	ackedWrites, lost := 0, 0
	for ki := range loadKeys {
		if acked[ki] < 0 {
			continue
		}
		ackedWrites++
		rc, meta, err := cl.GetStream(ctx, loadKeys[ki], client.GetOptions{})
		if err != nil {
			lost++
			continue
		}
		got, err := io.ReadAll(rc)
		rc.Close()
		if err != nil || !bytes.Equal(got, loadPayloads[ki]) || meta.Version < acked[ki] {
			lost++
		}
	}

	tl := ECTimeline{
		Drives: drives, Replicas: 3, K: k, M: m,
		Objects: objects, ObjectBytes: objBytes,
		CapacityRepl: capRepl, CapacityEC: capEC,
		PutReplMBs: mbps(logical, putRepl), GetReplMBs: mbps(logical, getRepl),
		PutECMBs: mbps(logical, putEC), GetECMBs: mbps(logical, getEC),
		DetectMs: detectMs, RebuildMs: rebuildMs,
		ShardRepairs: after.ECShardRepairs - before.ECShardRepairs,
		Decodes:      after.ECDecodes,
		AckedWrites:  ackedWrites, LostAcked: lost,
	}
	if tl.GetReplMBs > 0 {
		tl.GetRatio = tl.GetECMBs / tl.GetReplMBs
	}
	lastECTimeline = tl

	t := &Table{
		Name: "EC",
		Title: fmt.Sprintf("Erasure coding %d+%d vs replication 3 (%d drives, %d x %d MiB streams)",
			k, m, drives, objects, objBytes>>20),
		XLabel:  "phase",
		Columns: []string{"PUT MB/s", "GET MB/s", "raw/logical x", "detect ms", "rebuild ms", "lost acked"},
	}
	t.Rows = append(t.Rows,
		Row{X: "replicated", Values: []float64{tl.PutReplMBs, tl.GetReplMBs, capRepl, 0, 0, 0}},
		Row{X: "ec", Values: []float64{tl.PutECMBs, tl.GetECMBs, capEC, 0, 0, 0}},
		Row{X: "rebuild", Values: []float64{0, 0, 0, detectMs, rebuildMs, float64(lost)}},
	)
	return t, nil
}

// ecStreamPhase boots a cluster with the given options, runs the
// stream workload and tears the cluster down.
func ecStreamPhase(opts testbed.Options, payloads [][]byte) (put, get time.Duration, capacity float64, err error) {
	c, err := testbed.Start(opts)
	if err != nil {
		return 0, 0, 0, err
	}
	defer c.Close()
	cl, _, err := c.NewClient("ec-bench")
	if err != nil {
		return 0, 0, 0, err
	}
	return ecRunStreams(context.Background(), c, cl, payloads)
}

// ecRunStreams streams every payload in, measures raw stored bytes per
// logical byte across the drives, and reads everything back.
func ecRunStreams(ctx context.Context, c *testbed.Cluster, cl *client.Client, payloads [][]byte) (put, get time.Duration, capacity float64, err error) {
	var logical int64
	start := time.Now()
	for i, p := range payloads {
		key := fmt.Sprintf("ec-obj/%03d", i)
		res, err := cl.PutStream(ctx, key, bytes.NewReader(p), client.PutOptions{})
		if err != nil {
			return 0, 0, 0, fmt.Errorf("put %q: %w", key, err)
		}
		if res.Err != nil {
			return 0, 0, 0, fmt.Errorf("put %q: %w", key, res.Err)
		}
		logical += int64(len(p))
	}
	put = time.Since(start)

	var raw int64
	for _, d := range c.Drives {
		raw += d.SizeBytes()
	}
	capacity = float64(raw) / float64(logical)

	// Best-of rounds after one untimed warm-up: the quantity under test
	// is a throughput ratio between two short phases, so cold-start
	// costs (latency-estimator warmup, buffer pools, first-touch page
	// faults) and scheduler hiccups must not land in one side's
	// numerator. Streamed chunk misses are never cached, so every round
	// reads cold off the drives.
	for round := 0; round < 6; round++ {
		start = time.Now()
		for i, p := range payloads {
			key := fmt.Sprintf("ec-obj/%03d", i)
			rc, _, err := cl.GetStream(ctx, key, client.GetOptions{})
			if err != nil {
				return 0, 0, 0, fmt.Errorf("get %q: %w", key, err)
			}
			got, err := io.ReadAll(rc)
			rc.Close()
			if err != nil {
				return 0, 0, 0, fmt.Errorf("read %q: %w", key, err)
			}
			if !bytes.Equal(got, p) {
				return 0, 0, 0, fmt.Errorf("read %q: payload diverges (%d bytes)", key, len(got))
			}
		}
		if round == 0 {
			continue // warm-up
		}
		if d := time.Since(start); get == 0 || d < get {
			get = d
		}
	}
	return put, get, capacity, nil
}

// mbps converts a byte count over a duration to MB/s.
func mbps(n int64, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(n) / (1 << 20) / d.Seconds()
}

// BenchECJSON is the machine-readable EC result (BENCH_ec.json): the
// run timeline plus the per-phase table.
type BenchECJSON struct {
	Figure   string     `json:"figure"`
	Title    string     `json:"title"`
	Timeline ECTimeline `json:"timeline"`
	Columns  []string   `json:"columns"`
	Phases   []Row      `json:"phases"`
}

// WriteBenchECJSON renders the most recent FigEC run as
// machine-readable output.
func WriteBenchECJSON(path string, t *Table) error {
	out := BenchECJSON{
		Figure:   t.Name,
		Title:    t.Title,
		Timeline: lastECTimeline,
		Columns:  t.Columns,
		Phases:   t.Rows,
	}
	data, err := json.MarshalIndent(&out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
