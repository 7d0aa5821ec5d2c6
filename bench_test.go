// Package repro's root benchmarks regenerate every figure of the
// Pesos evaluation (§6) as testing.B benchmarks, one per figure, at a
// micro scale that completes in seconds. Use cmd/pesos-bench for
// quick- and paper-scale runs with full sweeps; these benchmarks
// exist so `go test -bench=.` exercises every experiment end to end
// and reports its headline metric.
package repro

import (
	"io"
	"testing"

	"repro/internal/bench"
	"repro/internal/kinetic/wire"
)

// microScale shrinks every sweep so a full figure fits in a benchmark
// iteration.
func microScale() bench.Scale {
	return bench.Scale{
		RecordCount:        600,
		OpCount:            2400,
		ClientSteps:        []int{4, 16},
		DiskOpCount:        250,
		DiskRecordCount:    120,
		DiskClientSteps:    []int{4, 16},
		PolicyCacheEntries: 150,
		PolicySteps:        []int{1, 150, 600},
		MALGranularities:   []int{1, 10, 100},
		PayloadSizes:       []int{128, 1024, 16384},
		ReplicationDisks:   []int{1, 2, 4},
		Clients:            16,
	}
}

// reportPeak reports the maximum value of a column as a benchmark
// metric.
func reportPeak(b *testing.B, t *bench.Table, column, metric string) {
	b.Helper()
	idx := t.Col(column)
	if idx < 0 {
		b.Fatalf("column %q missing in %s", column, t.Name)
	}
	peak := 0.0
	for _, r := range t.Rows {
		if r.Values[idx] > peak {
			peak = r.Values[idx]
		}
	}
	b.ReportMetric(peak, metric)
}

// BenchmarkFig3Throughput regenerates Figure 3 (throughput vs
// clients, four configurations).
func BenchmarkFig3Throughput(b *testing.B) {
	s := microScale()
	for i := 0; i < b.N; i++ {
		t, err := bench.Fig3Throughput(s)
		if err != nil {
			b.Fatal(err)
		}
		reportPeak(b, t, "Pesos Sim kIOP/s", "pesos-sim-kIOPS")
		reportPeak(b, t, "Native Sim kIOP/s", "native-sim-kIOPS")
		reportPeak(b, t, "Pesos Disk IOP/s", "pesos-disk-IOPS")
	}
}

// BenchmarkFig4Latency regenerates Figure 4 (latency vs clients).
func BenchmarkFig4Latency(b *testing.B) {
	s := microScale()
	for i := 0; i < b.N; i++ {
		t, err := bench.Fig4Latency(s)
		if err != nil {
			b.Fatal(err)
		}
		// Report the single-digit-client latency (the flat region).
		idx := t.Col("Pesos Sim ms")
		b.ReportMetric(t.Rows[0].Values[idx], "pesos-sim-ms")
	}
}

// BenchmarkFig5DiskScaling regenerates Figure 5 (scaling with
// controller+disk pairs).
func BenchmarkFig5DiskScaling(b *testing.B) {
	s := microScale()
	for i := 0; i < b.N; i++ {
		t, err := bench.Fig5DiskScaling(s)
		if err != nil {
			b.Fatal(err)
		}
		reportPeak(b, t, "Pesos Sim kIOP/s", "pesos-sim-3disk-kIOPS")
	}
}

// BenchmarkFig6PayloadSize regenerates Figure 6 (value size sweep).
func BenchmarkFig6PayloadSize(b *testing.B) {
	s := microScale()
	for i := 0; i < b.N; i++ {
		t, err := bench.Fig6PayloadSize(s)
		if err != nil {
			b.Fatal(err)
		}
		reportPeak(b, t, "Pesos Sim kIOP/s", "pesos-sim-kIOPS")
	}
}

// BenchmarkEncryptionOverhead regenerates the §6.2 encryption
// experiment.
func BenchmarkEncryptionOverhead(b *testing.B) {
	s := microScale()
	for i := 0; i < b.N; i++ {
		t, err := bench.EncryptionOverhead(s)
		if err != nil {
			b.Fatal(err)
		}
		idx := t.Col("Overhead %")
		b.ReportMetric(t.Rows[len(t.Rows)-1].Values[idx], "enc-overhead-pct")
	}
}

// BenchmarkFig7Replication regenerates Figure 7 (replication factor).
func BenchmarkFig7Replication(b *testing.B) {
	s := microScale()
	for i := 0; i < b.N; i++ {
		t, err := bench.Fig7Replication(s)
		if err != nil {
			b.Fatal(err)
		}
		reportPeak(b, t, "Pesos Sim kIOP/s", "pesos-sim-r1-kIOPS")
	}
}

// BenchmarkFig8PolicyCache regenerates Figure 8 (policy cache
// effectiveness).
func BenchmarkFig8PolicyCache(b *testing.B) {
	s := microScale()
	for i := 0; i < b.N; i++ {
		t, err := bench.Fig8PolicyCache(s)
		if err != nil {
			b.Fatal(err)
		}
		idx := t.Col("Pesos Sim kIOP/s")
		first := t.Rows[0].Values[idx]
		last := t.Rows[len(t.Rows)-1].Values[idx]
		b.ReportMetric(first, "cached-kIOPS")
		b.ReportMetric(last, "overflow-kIOPS")
	}
}

// BenchmarkFig9Versioned regenerates Figure 9 (versioned store).
func BenchmarkFig9Versioned(b *testing.B) {
	s := microScale()
	for i := 0; i < b.N; i++ {
		t, err := bench.Fig9Versioned(s)
		if err != nil {
			b.Fatal(err)
		}
		reportPeak(b, t, "Pesos Policy kIOP/s", "pesos-policy-kIOPS")
		idx := t.Col("Overhead %")
		b.ReportMetric(t.Rows[len(t.Rows)-1].Values[idx], "overhead-pct")
	}
}

// BenchmarkFig10MAL regenerates Figure 10 (mandatory access logging
// granularity).
func BenchmarkFig10MAL(b *testing.B) {
	s := microScale()
	for i := 0; i < b.N; i++ {
		t, err := bench.Fig10MAL(s)
		if err != nil {
			b.Fatal(err)
		}
		idx := t.Col("Pesos Sim kIOP/s")
		b.ReportMetric(t.Rows[0].Values[idx], "G1-kIOPS")
		b.ReportMetric(t.Rows[len(t.Rows)-1].Values[idx], "G100-kIOPS")
	}
}

// BenchmarkAblation measures the cost of each security layer against
// the full configuration (the design-choice ablation of DESIGN.md).
func BenchmarkAblation(b *testing.B) {
	s := microScale()
	for i := 0; i < b.N; i++ {
		t, err := bench.Ablation(s)
		if err != nil {
			b.Fatal(err)
		}
		idx := t.Col("kIOP/s")
		b.ReportMetric(t.Rows[0].Values[idx], "full-kIOPS")
		b.ReportMetric(t.Rows[len(t.Rows)-1].Values[idx], "native-kIOPS")
	}
}

// BenchmarkFigScanWorkloadE regenerates the scan figure (YCSB
// workload E short ranges over the v2 Scan API).
func BenchmarkFigScanWorkloadE(b *testing.B) {
	s := microScale()
	for i := 0; i < b.N; i++ {
		t, err := bench.FigScanWorkloadE(s)
		if err != nil {
			b.Fatal(err)
		}
		reportPeak(b, t, "Pesos Sim kIOP/s", "pesos-scan-kIOPS")
	}
}

// BenchmarkFigClusterScaling regenerates the cluster scale-out figure
// (YCSB A/B/E through the cluster router at 1/2/4 controllers).
func BenchmarkFigClusterScaling(b *testing.B) {
	s := microScale()
	for i := 0; i < b.N; i++ {
		t, err := bench.FigClusterScaling(s)
		if err != nil {
			b.Fatal(err)
		}
		idx := t.Col("YCSB-A IOP/s")
		b.ReportMetric(t.Rows[0].Values[idx], "1ctrl-A-IOPS")
		b.ReportMetric(t.Rows[len(t.Rows)-1].Values[idx], "4ctrl-A-IOPS")
		reportPeak(b, t, "Redirects", "redirects")
	}
}

// BenchmarkFigFailover regenerates the controller-failover figure
// (kill the active under load, hot standby takes over behind a lease)
// and emits BENCH_ha.json with the recovery timeline, which the CI
// bench-smoke job uploads as an artifact.
func BenchmarkFigFailover(b *testing.B) {
	s := microScale()
	for i := 0; i < b.N; i++ {
		t, err := bench.FigFailover(s)
		if err != nil {
			b.Fatal(err)
		}
		idx := t.Col("p99 ms")
		for _, r := range t.Rows {
			switch r.X {
			case "healthy":
				b.ReportMetric(r.Values[idx], "healthy-p99-ms")
			case "outage":
				b.ReportMetric(r.Values[idx], "outage-p99-ms")
			}
		}
		if err := bench.WriteBenchHAJSON("BENCH_ha.json", t); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigChaos regenerates the chaos figure: phased drive-fault
// injection (baseline, drive kill, partition+reconcile, load ramp)
// under a closed-loop load, with the failure detector and background
// sweeper restoring replication. Emits BENCH_chaos.json, which the CI
// bench-smoke job uploads as an artifact.
func BenchmarkFigChaos(b *testing.B) {
	s := microScale()
	for i := 0; i < b.N; i++ {
		t, err := bench.FigChaos(s)
		if err != nil {
			b.Fatal(err)
		}
		idx := t.Col("p99 ms")
		for _, r := range t.Rows {
			switch r.X {
			case "baseline":
				b.ReportMetric(r.Values[idx], "baseline-p99-ms")
			case "drive-kill":
				b.ReportMetric(r.Values[idx], "kill-p99-ms")
			}
		}
		if err := bench.WriteBenchChaosJSON("BENCH_chaos.json", t); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigEC regenerates the erasure-coding figure: streamed
// large objects on replication-3 vs Reed-Solomon 4+2, reporting raw
// capacity per logical byte and GET throughput for both classes, plus
// a timed shard rebuild after a drive kill under a closed-loop write
// load. Emits BENCH_ec.json, which the CI bench-smoke job uploads as an
// artifact.
func BenchmarkFigEC(b *testing.B) {
	s := microScale()
	for i := 0; i < b.N; i++ {
		t, err := bench.FigEC(s)
		if err != nil {
			b.Fatal(err)
		}
		tl := bench.LastECTimeline()
		b.ReportMetric(tl.CapacityRepl, "repl-raw-per-byte")
		b.ReportMetric(tl.CapacityEC, "ec-raw-per-byte")
		b.ReportMetric(tl.GetRatio, "ec-get-ratio")
		b.ReportMetric(tl.RebuildMs, "rebuild-ms")
		if err := bench.WriteBenchECJSON("BENCH_ec.json", t); err != nil {
			b.Fatal(err)
		}
		if tl.CapacityEC > 1.6 {
			b.Fatalf("EC raw/logical %.2fx exceeds 1.6x at %d+%d", tl.CapacityEC, tl.K, tl.M)
		}
		if tl.GetRatio < 0.9 {
			b.Fatalf("EC GET at %.2fx of the replicated baseline (< 0.9x)", tl.GetRatio)
		}
		if tl.LostAcked > 0 {
			b.Fatalf("%d of %d acked writes lost during the rebuild phase", tl.LostAcked, tl.AckedWrites)
		}
	}
}

// BenchmarkFigObs measures the healthy-path overhead of the full
// observability layer (tracing + metrics + audit sampling) against
// the kill switch on identical YCSB-A replays, and emits
// BENCH_obs.json, which the CI bench-smoke job uploads as an artifact.
func BenchmarkFigObs(b *testing.B) {
	s := microScale()
	// Longer rounds than the other micro figures: the quantity under
	// test is a small throughput delta, and sub-second replay windows
	// let one scheduler hiccup swamp a round's ratio.
	s.RecordCount = 1000
	s.OpCount = 8000
	for i := 0; i < b.N; i++ {
		t, err := bench.FigObs(s)
		if err != nil {
			b.Fatal(err)
		}
		reportPeak(b, t, "Obs On kIOP/s", "obs-on-kIOPS")
		reportPeak(b, t, "Obs Off kIOP/s", "obs-off-kIOPS")
		idx := t.Col("Overhead %")
		b.ReportMetric(t.Rows[len(t.Rows)-1].Values[idx], "overhead-pct")
		if err := bench.WriteBenchObsJSON("BENCH_obs.json", t); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBatchWireGrouped measures the per-logical-write cost of
// assembling and encoding merged grouped TBatch frames with the
// pooled sub-operation scratch — run with -benchmem; the allocs/op
// floor is asserted by TestBatchWritePathAllocs so a pooling
// regression fails the suite, not just the bench report.
func BenchmarkBatchWireGrouped(b *testing.B) {
	key := []byte("bench-secret-key")
	enc := wire.NewEncoder()
	value := make([]byte, 1024)
	okey, mkey, ver := []byte("o/k/1"), []byte("m/k"), []byte{1}
	ops := make([]wire.BatchOp, 0, 32)
	sizes := make([]uint32, 16)
	for i := range sizes {
		sizes[i] = 2
	}
	m := &wire.Message{Type: wire.TBatch, User: "pesos-admin"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ops = ops[:0]
		for g := 0; g < 16; g++ {
			ops = append(ops,
				wire.BatchOp{Op: wire.BatchPut, Key: okey, Value: value, NewVersion: ver, Force: true},
				wire.BatchOp{Op: wire.BatchPut, Key: mkey, Value: value[:96], NewVersion: ver})
		}
		m.Seq, m.Batch, m.GroupSizes = uint64(i), ops, sizes
		if err := enc.WriteFrame(io.Discard, m, key); err != nil {
			b.Fatal(err)
		}
	}
}

// TestBatchWritePathAllocs asserts the batch write path's wire
// assembly stays allocation-flat: encoding a merged 16-group batch
// into a reused encoder and sub-operation scratch must not allocate
// per sub-operation (the op-slice and marshal-buffer pooling the
// group committer relies on).
func TestBatchWritePathAllocs(t *testing.T) {
	key := []byte("bench-secret-key")
	enc := wire.NewEncoder()
	value := make([]byte, 1024)
	okey, mkey, ver := []byte("o/k/1"), []byte("m/k"), []byte{1}
	ops := make([]wire.BatchOp, 0, 32)
	sizes := make([]uint32, 16)
	for i := range sizes {
		sizes[i] = 2
	}
	m := &wire.Message{Type: wire.TBatch, User: "pesos-admin"}
	seq := uint64(0)
	avg := testing.AllocsPerRun(200, func() {
		ops = ops[:0]
		for g := 0; g < 16; g++ {
			ops = append(ops,
				wire.BatchOp{Op: wire.BatchPut, Key: okey, Value: value, NewVersion: ver, Force: true},
				wire.BatchOp{Op: wire.BatchPut, Key: mkey, Value: value[:96], NewVersion: ver})
		}
		seq++
		m.Seq, m.Batch, m.GroupSizes = seq, ops, sizes
		if err := enc.WriteFrame(io.Discard, m, key); err != nil {
			t.Fatal(err)
		}
	})
	// A 32-sub-op frame reuses the encoder's buffer and HMAC state;
	// nothing on the path may allocate per sub-op.
	if avg > 2 {
		t.Fatalf("merged batch encode allocates %.1f/frame; pooling regressed", avg)
	}
}
