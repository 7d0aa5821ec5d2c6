package bench

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/kinetic"
	"repro/internal/testbed"
	"repro/internal/usecases"
	"repro/internal/ycsb"
)

// Scale sizes the experiments. Quick() finishes a full figure in
// seconds for CI and `go test -bench`; Paper() uses the evaluation's
// parameters (§6.1: 100,000 operations over 100,000 unique 1 KB
// objects).
type Scale struct {
	RecordCount int
	OpCount     int
	// ClientSteps is the x axis of Figures 3, 4 and 9.
	ClientSteps []int
	// DiskOpCount shrinks the trace for HDD-model configurations,
	// which are capped near 1 kIOP/s.
	DiskOpCount int
	// DiskRecordCount shrinks the load phase for HDD configurations
	// (each record costs ~2 ms of modelled media time to load).
	DiskRecordCount int
	// DiskClientSteps is the client sweep for HDD configurations.
	DiskClientSteps []int
	// PolicyCacheEntries and PolicySteps parameterize Figure 8.
	PolicyCacheEntries int
	PolicySteps        []int
	// MALGranularities is the x axis of Figure 10.
	MALGranularities []int
	// PayloadSizes is the x axis of Figure 6.
	PayloadSizes []int
	// ReplicationDisks is the x axis of Figure 7.
	ReplicationDisks []int
	// Clients is the fixed concurrency for Figures 6–10.
	Clients int
}

// Quick returns a scale suitable for seconds-long runs.
func Quick() Scale {
	return Scale{
		RecordCount:        4000,
		OpCount:            20000,
		ClientSteps:        []int{1, 8, 32, 64},
		DiskOpCount:        1000,
		DiskRecordCount:    500,
		DiskClientSteps:    []int{1, 8, 32},
		PolicyCacheEntries: 1000,
		PolicySteps:        []int{1, 400, 800, 1200, 1600, 2000},
		MALGranularities:   []int{1, 2, 5, 10, 50, 100},
		PayloadSizes:       []int{128, 256, 1024, 4096, 16384, 65536},
		ReplicationDisks:   []int{1, 2, 3, 4},
		Clients:            32,
	}
}

// Paper returns the evaluation's parameters. Figures take minutes.
func Paper() Scale {
	return Scale{
		RecordCount:        100000,
		OpCount:            100000,
		ClientSteps:        []int{1, 20, 50, 100, 200, 300},
		DiskOpCount:        5000,
		DiskRecordCount:    5000,
		DiskClientSteps:    []int{1, 20, 50, 100},
		PolicyCacheEntries: 50000,
		PolicySteps:        []int{1, 10000, 20000, 30000, 40000, 50000, 60000, 70000, 80000, 90000, 100000},
		MALGranularities:   []int{1, 2, 5, 10, 20, 50, 100},
		PayloadSizes:       []int{128, 256, 512, 1024, 2048, 4096, 8192, 16384, 32768, 65536},
		ReplicationDisks:   []int{1, 2, 3, 4},
		Clients:            100,
	}
}

// Table is one regenerated figure.
type Table struct {
	Name    string
	Title   string
	XLabel  string
	Columns []string
	Rows    []Row
}

// Row is one x point of a figure; the JSON tags are its shape in the
// machine-readable BENCH_*.json outputs.
type Row struct {
	X      string    `json:"x"`
	Values []float64 `json:"values"`
}

// Format renders the table as aligned text, the harness's equivalent
// of the paper's plots.
func (t *Table) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.Name, t.Title)
	fmt.Fprintf(&b, "%-24s", t.XLabel)
	for _, c := range t.Columns {
		fmt.Fprintf(&b, "%24s", c)
	}
	b.WriteByte('\n')
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%-24s", r.X)
		for _, v := range r.Values {
			fmt.Fprintf(&b, "%24.2f", v)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Col returns the column index by name, -1 if absent.
func (t *Table) Col(name string) int {
	for i, c := range t.Columns {
		if c == name {
			return i
		}
	}
	return -1
}

// config describes one controller/backend combination of §6.1.
type config struct {
	name    string
	enclave bool
	disk    bool
}

var fourConfigs = []config{
	{"Native Sim", false, false},
	{"Pesos Sim", true, false},
	{"Native Disk", false, true},
	{"Pesos Disk", true, true},
}

// runYCSBA builds a cluster for cfg, loads records and replays a
// YCSB-A trace at the given concurrency.
func runYCSBA(cfg config, clients, records, opCount, valueSize, drives, replicas int, mode ReplayMode, gran int, opts *testbed.Options) (*Metrics, error) {
	o := testbed.Options{
		Drives:   drives,
		Enclave:  cfg.enclave,
		Replicas: replicas,
	}
	if opts != nil {
		o = *opts
		o.Drives = drives
		o.Enclave = cfg.enclave
		o.Replicas = replicas
	}
	if cfg.disk {
		o.Media = func(int) kinetic.MediaModel { return kinetic.NewHDDMedia(1.0) }
	}
	cluster, err := testbed.Start(o)
	if err != nil {
		return nil, err
	}
	defer cluster.Close()
	return runOnCluster(cluster, clients, records, opCount, valueSize, mode, gran, "")
}

// runOnCluster loads and replays against an existing cluster.
func runOnCluster(cluster *testbed.Cluster, clients, records, opCount, valueSize int, mode ReplayMode, gran int, policySrc string) (*Metrics, error) {
	d, err := NewDriver(cluster, clients)
	if err != nil {
		return nil, err
	}
	keys, ops, err := ycsb.Generate(ycsb.Config{
		Workload:       ycsb.WorkloadA,
		RecordCount:    records,
		OperationCount: opCount,
		Seed:           7,
	})
	if err != nil {
		return nil, err
	}
	var policyFor func(int) string
	if policySrc != "" {
		pid, err := cluster.Controller.PutPolicy(ctxBG(), policySrc)
		if err != nil {
			return nil, err
		}
		policyFor = func(int) string { return pid }
	}
	if err := d.Load(keys, valueSize, policyFor); err != nil {
		return nil, err
	}
	return d.Replay(ReplayConfig{Ops: ops, ValueSize: valueSize, Mode: mode, LogGranularity: gran})
}

// Fig3Throughput regenerates Figure 3: throughput with an increasing
// number of clients, four configurations. Sim columns are kIOP/s,
// Disk columns IOP/s (the paper's dual axis).
func Fig3Throughput(s Scale) (*Table, error) {
	t := &Table{
		Name: "Figure 3", Title: "Throughput vs clients (YCSB-A, 1 KB)",
		XLabel:  "clients",
		Columns: []string{"Native Sim kIOP/s", "Pesos Sim kIOP/s", "Native Disk IOP/s", "Pesos Disk IOP/s"},
	}
	steps := s.ClientSteps
	for _, nc := range steps {
		row := Row{X: fmt.Sprint(nc)}
		for _, cfg := range fourConfigs {
			ops, records := s.OpCount, s.RecordCount
			if cfg.disk {
				ops, records = s.DiskOpCount, s.DiskRecordCount
			}
			m, err := runYCSBA(cfg, nc, records, ops, 1024, 1, 1, ModePlain, 1, nil)
			if err != nil {
				return nil, fmt.Errorf("fig3 %s c=%d: %w", cfg.name, nc, err)
			}
			v := m.KIOPS
			if cfg.disk {
				v = m.KIOPS * 1000 // IOP/s axis
			}
			row.Values = append(row.Values, v)
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// Fig4Latency regenerates Figure 4: mean latency (ms) with an
// increasing number of clients, four configurations.
func Fig4Latency(s Scale) (*Table, error) {
	t := &Table{
		Name: "Figure 4", Title: "Latency vs clients (YCSB-A, 1 KB)",
		XLabel:  "clients",
		Columns: []string{"Native Sim ms", "Pesos Sim ms", "Native Disk ms", "Pesos Disk ms"},
	}
	for _, nc := range s.ClientSteps {
		row := Row{X: fmt.Sprint(nc)}
		for _, cfg := range fourConfigs {
			ops, records := s.OpCount, s.RecordCount
			if cfg.disk {
				ops, records = s.DiskOpCount, s.DiskRecordCount
			}
			m, err := runYCSBA(cfg, nc, records, ops, 1024, 1, 1, ModePlain, 1, nil)
			if err != nil {
				return nil, fmt.Errorf("fig4 %s c=%d: %w", cfg.name, nc, err)
			}
			row.Values = append(row.Values, float64(m.Mean)/float64(time.Millisecond))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// Fig5DiskScaling regenerates Figure 5: aggregate throughput with an
// increasing number of controller+disk pairs (1–3), each controller
// exclusively owning one disk, run concurrently.
func Fig5DiskScaling(s Scale) (*Table, error) {
	t := &Table{
		Name: "Figure 5", Title: "Scalability with controller+disk pairs (YCSB-A, 1 KB)",
		XLabel:  "disks",
		Columns: []string{"Native Sim kIOP/s", "Pesos Sim kIOP/s", "Native Disk IOP/s", "Pesos Disk IOP/s"},
	}
	for _, nd := range []int{1, 2, 3} {
		row := Row{X: fmt.Sprint(nd)}
		for _, cfg := range fourConfigs {
			ops, records := s.OpCount, s.RecordCount
			if cfg.disk {
				ops, records = s.DiskOpCount, s.DiskRecordCount
			}
			total, err := runParallelPairs(cfg, nd, s.Clients, records, ops)
			if err != nil {
				return nil, fmt.Errorf("fig5 %s d=%d: %w", cfg.name, nd, err)
			}
			v := total
			if cfg.disk {
				v = total * 1000
			}
			row.Values = append(row.Values, v)
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// runParallelPairs starts nd independent single-disk clusters and
// replays concurrently, summing throughput.
func runParallelPairs(cfg config, nd, clientsPer, records, ops int) (float64, error) {
	type res struct {
		kiops float64
		err   error
	}
	ch := make(chan res, nd)
	for i := 0; i < nd; i++ {
		go func(i int) {
			o := testbed.Options{Drives: 1, Enclave: cfg.enclave}
			if cfg.disk {
				o.Media = func(int) kinetic.MediaModel { return kinetic.NewHDDMedia(1.0) }
			}
			cluster, err := testbed.Start(o)
			if err != nil {
				ch <- res{0, err}
				return
			}
			defer cluster.Close()
			m, err := runOnCluster(cluster, clientsPer, records, ops, 1024, ModePlain, 1, "")
			if err != nil {
				ch <- res{0, err}
				return
			}
			ch <- res{m.KIOPS, nil}
		}(i)
	}
	total := 0.0
	for i := 0; i < nd; i++ {
		r := <-ch
		if r.err != nil {
			return 0, r.err
		}
		total += r.kiops
	}
	return total, nil
}

// Fig6PayloadSize regenerates Figure 6: throughput across value sizes
// at fixed concurrency.
func Fig6PayloadSize(s Scale) (*Table, error) {
	t := &Table{
		Name: "Figure 6", Title: fmt.Sprintf("Value size vs throughput (%d clients)", s.Clients),
		XLabel:  "payload",
		Columns: []string{"Native Sim kIOP/s", "Pesos Sim kIOP/s", "Native Disk IOP/s", "Pesos Disk IOP/s"},
	}
	for _, size := range s.PayloadSizes {
		row := Row{X: sizeLabel(size)}
		for _, cfg := range fourConfigs {
			ops := s.OpCount
			records := s.RecordCount
			if size >= 16384 {
				// Large objects: shrink counts so load time stays sane.
				records = min(records, 1500)
				ops = min(ops, 3000)
			}
			if cfg.disk {
				ops = s.DiskOpCount
				records = min(s.DiskRecordCount, records)
			}
			m, err := runYCSBA(cfg, s.Clients, records, ops, size, 1, 1, ModePlain, 1, nil)
			if err != nil {
				return nil, fmt.Errorf("fig6 %s size=%d: %w", cfg.name, size, err)
			}
			v := m.KIOPS
			if cfg.disk {
				v = m.KIOPS * 1000
			}
			row.Values = append(row.Values, v)
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// EncryptionOverhead regenerates the §6.2 experiment: Pesos-Sim
// throughput with payload encryption on vs off at 1 KB.
func EncryptionOverhead(s Scale) (*Table, error) {
	t := &Table{
		Name: "Sec 6.2", Title: "Payload encryption overhead (Pesos Sim, 1 KB)",
		XLabel:  "clients",
		Columns: []string{"Encrypted kIOP/s", "Plaintext kIOP/s", "Overhead %"},
	}
	for _, nc := range s.ClientSteps {
		enc, err := runYCSBA(config{"enc", true, false}, nc, s.RecordCount, s.OpCount, 1024, 1, 1, ModePlain, 1, nil)
		if err != nil {
			return nil, err
		}
		plain, err := runYCSBA(config{"plain", true, false}, nc, s.RecordCount, s.OpCount, 1024, 1, 1, ModePlain, 1,
			&testbed.Options{PlaintextPayloads: true})
		if err != nil {
			return nil, err
		}
		over := 0.0
		if plain.KIOPS > 0 {
			over = (1 - enc.KIOPS/plain.KIOPS) * 100
		}
		t.Rows = append(t.Rows, Row{X: fmt.Sprint(nc), Values: []float64{enc.KIOPS, plain.KIOPS, over}})
	}
	return t, nil
}

// Fig7Replication regenerates Figure 7: throughput while every object
// is replicated to all of 1–4 simulated disks.
func Fig7Replication(s Scale) (*Table, error) {
	t := &Table{
		Name: "Figure 7", Title: "Replication to all disks (sim)",
		XLabel:  "disks",
		Columns: []string{"Native Sim kIOP/s", "Pesos Sim kIOP/s"},
	}
	for _, nd := range s.ReplicationDisks {
		row := Row{X: fmt.Sprint(nd)}
		for _, cfg := range fourConfigs[:2] {
			m, err := runYCSBA(cfg, s.Clients, s.RecordCount, s.OpCount, 1024, nd, nd, ModePlain, 1, nil)
			if err != nil {
				return nil, fmt.Errorf("fig7 %s d=%d: %w", cfg.name, nd, err)
			}
			row.Values = append(row.Values, m.KIOPS)
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// Fig8PolicyCache regenerates Figure 8: throughput while the number
// of unique policies over the object set grows past the policy cache
// capacity.
func Fig8PolicyCache(s Scale) (*Table, error) {
	t := &Table{
		Name: "Figure 8", Title: fmt.Sprintf("Unique policies per %d objects (cache %d entries)", s.RecordCount, s.PolicyCacheEntries),
		XLabel:  "policies",
		Columns: []string{"Native Sim kIOP/s", "Pesos Sim kIOP/s", "Pesos hit %"},
	}
	for _, np := range s.PolicySteps {
		row := Row{X: fmt.Sprint(np)}
		for _, cfg := range fourConfigs[:2] {
			m, hit, err := runPolicyCount(cfg, s, np)
			if err != nil {
				return nil, fmt.Errorf("fig8 %s p=%d: %w", cfg.name, np, err)
			}
			row.Values = append(row.Values, m.KIOPS)
			if cfg.enclave {
				row.Values = append(row.Values, hit*100)
			}
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

func runPolicyCount(cfg config, s Scale, nPolicies int) (*Metrics, float64, error) {
	cluster, err := testbed.Start(testbed.Options{
		Drives:             1,
		Enclave:            cfg.enclave,
		PolicyCacheEntries: s.PolicyCacheEntries,
		PolicyCacheBytes:   1 << 30, // entry cap is the binding limit
	})
	if err != nil {
		return nil, 0, err
	}
	defer cluster.Close()
	d, err := NewDriver(cluster, s.Clients)
	if err != nil {
		return nil, 0, err
	}
	// nPolicies distinct policies, all permitting everything; made
	// unique by an inert disjunct constant.
	ids := make([]string, nPolicies)
	for i := range ids {
		src := fmt.Sprintf("read :- sessionKeyIs(U) or eq(1, %[1]d)\nupdate :- sessionKeyIs(U) or eq(1, %[1]d)\n", -i-2)
		id, err := cluster.Controller.PutPolicy(ctxBG(), src)
		if err != nil {
			return nil, 0, err
		}
		ids[i] = id
	}
	keys, ops, err := ycsb.Generate(ycsb.Config{
		Workload: ycsb.WorkloadA, RecordCount: s.RecordCount, OperationCount: s.OpCount, Seed: 7,
	})
	if err != nil {
		return nil, 0, err
	}
	if err := d.Load(keys, 1024, func(i int) string { return ids[i%len(ids)] }); err != nil {
		return nil, 0, err
	}
	// Count only the measured phase's cache behaviour.
	h0, m0, _ := cacheCounters(cluster, "policy")
	metrics, err := d.Replay(ReplayConfig{Ops: ops, ValueSize: 1024})
	if err != nil {
		return nil, 0, err
	}
	h1, m1, _ := cacheCounters(cluster, "policy")
	hit := 0.0
	if d := float64((h1 - h0) + (m1 - m0)); d > 0 {
		hit = float64(h1-h0) / d
	}
	return metrics, hit, nil
}

// cacheCounters reads one cache's hit/miss/eviction counters.
func cacheCounters(cluster *testbed.Cluster, name string) (hits, misses, evictions uint64) {
	st := cluster.Controller.CacheStats()[name]
	return st[0], st[1], st[2]
}

// Fig9Versioned regenerates Figure 9: the cost of the §5.3 versioned-
// store policy. The paper compares the use case against "earlier
// measurements without the policy checking" (82 vs 84 kIOP/s, 2.3 %);
// accordingly both columns run the identical version-carrying client
// workload and differ only in whether the controller checks policies.
// A disk column confirms the medium-bound shape.
func Fig9Versioned(s Scale) (*Table, error) {
	t := &Table{
		Name: "Figure 9", Title: "Versioned storage use case (YCSB-A, 1 KB)",
		XLabel: "clients",
		Columns: []string{"Pesos NoCheck kIOP/s", "Pesos Policy kIOP/s", "Overhead %",
			"Pesos Disk Policy IOP/s"},
	}
	for _, nc := range s.ClientSteps {
		row := Row{X: fmt.Sprint(nc)}
		base, err := runVersioned(config{"nocheck", true, false}, nc, s.RecordCount, s.OpCount, false)
		if err != nil {
			return nil, fmt.Errorf("fig9 nocheck c=%d: %w", nc, err)
		}
		pol, err := runVersioned(config{"policy", true, false}, nc, s.RecordCount, s.OpCount, true)
		if err != nil {
			return nil, fmt.Errorf("fig9 policy c=%d: %w", nc, err)
		}
		over := 0.0
		if base.KIOPS > 0 {
			over = (1 - pol.KIOPS/base.KIOPS) * 100
		}
		disk, err := runVersioned(config{"disk", true, true}, nc, s.DiskRecordCount, s.DiskOpCount, true)
		if err != nil {
			return nil, fmt.Errorf("fig9 disk c=%d: %w", nc, err)
		}
		row.Values = append(row.Values, base.KIOPS, pol.KIOPS, over, disk.KIOPS*1000)
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// runVersioned replays a version-carrying YCSB-A workload; withPolicy
// selects whether objects carry the §5.3 policy and whether the
// controller checks it.
func runVersioned(cfg config, clients, records, ops int, withPolicy bool) (*Metrics, error) {
	o := testbed.Options{Drives: 1, Enclave: cfg.enclave, DisablePolicies: !withPolicy}
	if cfg.disk {
		o.Media = func(int) kinetic.MediaModel { return kinetic.NewHDDMedia(1.0) }
	}
	cluster, err := testbed.Start(o)
	if err != nil {
		return nil, err
	}
	defer cluster.Close()
	d, err := NewDriver(cluster, clients)
	if err != nil {
		return nil, err
	}
	var policyFor func(int) string
	if withPolicy {
		pid, err := cluster.Controller.PutPolicy(ctxBG(), usecases.Versioned())
		if err != nil {
			return nil, err
		}
		policyFor = func(int) string { return pid }
	}
	keys, trace, err := ycsb.Generate(ycsb.Config{
		Workload: ycsb.WorkloadA, RecordCount: records, OperationCount: ops, Seed: 7,
	})
	if err != nil {
		return nil, err
	}
	if err := d.Load(keys, 1024, policyFor); err != nil {
		return nil, err
	}
	return d.Replay(ReplayConfig{
		Ops: trace, ValueSize: 1024, Mode: ModeVersioned,
		// Each key's version counter is owned by one client, the way
		// a real versioned-store client tracks the indexes it writes.
		PartitionWrites: true,
	})
}

// Fig10MAL regenerates Figure 10: throughput of mandatory access
// logging across log granularities, against a no-logging baseline.
// The workload is write-only with a partitioned key space (each
// client owns its keys), as each client maintains its own intent log
// entries.
func Fig10MAL(s Scale) (*Table, error) {
	t := &Table{
		Name: "Figure 10", Title: fmt.Sprintf("MAL log granularity (%d clients, writes)", s.Clients),
		XLabel:  "granularity",
		Columns: []string{"Native Baseline kIOP/s", "Pesos Baseline kIOP/s", "Native Sim kIOP/s", "Pesos Sim kIOP/s"},
	}
	// Baselines: same write-only workload, no policy, no log.
	baselines := make(map[bool]float64)
	for _, encl := range []bool{false, true} {
		m, err := runMAL(encl, s, 0)
		if err != nil {
			return nil, err
		}
		baselines[encl] = m.KIOPS
	}
	for _, g := range s.MALGranularities {
		row := Row{X: fmt.Sprint(g), Values: []float64{baselines[false], baselines[true]}}
		for _, encl := range []bool{false, true} {
			m, err := runMAL(encl, s, g)
			if err != nil {
				return nil, fmt.Errorf("fig10 g=%d: %w", g, err)
			}
			row.Values = append(row.Values, m.KIOPS)
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// runMAL loads a partitioned keyspace and replays a write-only trace.
// granularity 0 runs the no-policy baseline.
func runMAL(enclaveOn bool, s Scale, granularity int) (*Metrics, error) {
	cluster, err := testbed.Start(testbed.Options{Drives: 1, Enclave: enclaveOn})
	if err != nil {
		return nil, err
	}
	defer cluster.Close()
	clients := s.Clients
	d, err := NewDriver(cluster, clients)
	if err != nil {
		return nil, err
	}

	records := min(s.RecordCount, clients*40)
	opCount := min(s.OpCount, records*4)
	keys := make([]string, records)
	for i := range keys {
		keys[i] = fmt.Sprintf("mal/%d/%s", i%clients, ycsb.Key(i))
	}

	mode := ModeVersioned
	var policyFor func(int) string
	if granularity > 0 {
		malID, err := cluster.Controller.PutPolicy(ctxBG(), usecases.MAL())
		if err != nil {
			return nil, err
		}
		verID, err := cluster.Controller.PutPolicy(ctxBG(), usecases.Versioned())
		if err != nil {
			return nil, err
		}
		// Seed each object's log with the owner's first intent, then
		// attach the MAL policy to the objects.
		sess := cluster.Controller.Session("bench-loader")
		for i, k := range keys {
			owner := d.FPs[i%clients]
			logKey := k + ".log"
			if _, err := sess.Put(ctxBG(), logKey, []byte(usecases.WriteIntent(k, owner)),
				corePutOpts(verID)); err != nil {
				return nil, err
			}
			vp := new(int64)
			d.versions.Store(logKey, vp)
		}
		policyFor = func(int) string { return malID }
		mode = ModeMAL
	}
	if err := d.Load(keys, 1024, policyFor); err != nil {
		return nil, err
	}

	// Write-only trace: client w touches only its own shard (ops are
	// assigned to workers round-robin by index, so ops[i] runs on
	// worker i % clients).
	ops := make([]ycsb.Op, opCount)
	for i := range ops {
		w := i % clients
		ops[i] = ycsb.Op{Type: ycsb.OpUpdate, Key: keys[shardIndex(records, clients, w, i)]}
	}
	g := granularity
	if g <= 0 {
		g = 1
		mode = ModeVersioned
	}
	return d.Replay(ReplayConfig{Ops: ops, ValueSize: 1024, Mode: mode, LogGranularity: g})
}

// shardIndex picks worker w's next key: keys are laid out so index %
// clients == owner. Replay assigns ops[i] to worker i % clients.
func shardIndex(records, clients, w, i int) int {
	perShard := records / clients
	if perShard == 0 {
		perShard = 1
	}
	return (w + clients*((i/clients)%perShard)) % records
}

func sizeLabel(n int) string {
	if n >= 1024 {
		return fmt.Sprintf("%dK", n/1024)
	}
	return fmt.Sprint(n)
}

// ctxBG returns the background context; named for grep-ability in the
// harness where contexts are never cancelled mid-measurement.
func ctxBG() context.Context { return context.Background() }

// corePutOpts builds the load-phase options attaching a policy to a
// version-0 creation.
func corePutOpts(policyID string) core.PutOptions {
	return core.PutOptions{PolicyID: policyID, Version: 0, HasVersion: true}
}
