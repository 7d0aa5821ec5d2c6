package bench

import (
	"testing"

	"repro/internal/testbed"
	"repro/internal/ycsb"
)

// TestDriverEndToEnd runs a miniature workload through the full
// harness and checks the metrics are self-consistent.
func TestDriverEndToEnd(t *testing.T) {
	cluster, err := testbed.Start(testbed.Options{Drives: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	d, err := NewDriver(cluster, 4)
	if err != nil {
		t.Fatal(err)
	}
	keys, ops, err := ycsb.Generate(ycsb.Config{
		Workload: ycsb.WorkloadA, RecordCount: 50, OperationCount: 200, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Load(keys, 256, nil); err != nil {
		t.Fatal(err)
	}
	m, err := d.Replay(ReplayConfig{Ops: ops, ValueSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	if m.Errors != 0 {
		t.Fatalf("%d errors during replay", m.Errors)
	}
	if m.Ops != 200 || m.KIOPS <= 0 {
		t.Fatalf("metrics: %+v", m)
	}
	if m.P50 > m.P99 {
		t.Fatalf("percentiles inverted: %+v", m)
	}
}

// TestVersionedReplay exercises the versioned mode against the
// versioned-store policy: no operation may fail.
func TestVersionedReplay(t *testing.T) {
	cluster, err := testbed.Start(testbed.Options{Drives: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	d, err := NewDriver(cluster, 4)
	if err != nil {
		t.Fatal(err)
	}
	pid, err := cluster.Controller.PutPolicy(ctxBG(), versionedSrcForTest())
	if err != nil {
		t.Fatal(err)
	}
	keys, ops, err := ycsb.Generate(ycsb.Config{
		Workload: ycsb.WorkloadA, RecordCount: 30, OperationCount: 200, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Load(keys, 128, func(int) string { return pid }); err != nil {
		t.Fatal(err)
	}
	m, err := d.Replay(ReplayConfig{Ops: ops, ValueSize: 128, Mode: ModeVersioned})
	if err != nil {
		t.Fatal(err)
	}
	if m.Errors != 0 {
		t.Fatalf("%d errors under the versioned policy", m.Errors)
	}
}

// TestWorkloadEReplay runs the scan-heavy workload E end to end over
// the v2 Scan API: 95 % short range scans against a replicated
// multi-drive cluster, no operation may fail.
func TestWorkloadEReplay(t *testing.T) {
	cluster, err := testbed.Start(testbed.Options{Drives: 2, Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	d, err := NewDriver(cluster, 4)
	if err != nil {
		t.Fatal(err)
	}
	keys, ops, err := ycsb.Generate(ycsb.Config{
		Workload: ycsb.WorkloadE, RecordCount: 80, OperationCount: 200, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Load(keys, 256, nil); err != nil {
		t.Fatal(err)
	}
	m, err := d.Replay(ReplayConfig{Ops: ops, ValueSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	if m.Errors != 0 {
		t.Fatalf("%d errors during workload E replay", m.Errors)
	}
	// The controller actually served scan pages.
	if st := cluster.Controller.Stats().Snapshot(); st.Scans == 0 {
		t.Fatal("no scans reached the controller")
	}
}

func versionedSrcForTest() string {
	return "read :- sessionKeyIs(U)\n" +
		"update :- objId(this, O) and currVersion(O, CV) and nextVersion(CV + 1)" +
		" or objId(this, NULL) and nextVersion(0)\n"
}
