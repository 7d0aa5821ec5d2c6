// Cluster scale-out figure: the missing dimension of the paper's §6.3
// disk-scaling experiment. Figure 5 scaled independent controller+disk
// pairs with a partitioned client population; FigClusterScaling scales
// ONE keyspace across 1/2/4 controllers behind the cluster router —
// the shard map decides placement, every client sees the whole
// keyspace, and throughput must still scale near-linearly because
// controllers share nothing (§4.5: per-drive exclusive ownership via
// the drives' HMAC accounts is what makes scale-out "add controllers
// and drives").
package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/kinetic"
	"repro/internal/testbed"
	"repro/internal/ycsb"
)

// clusterSteps is the controller-count axis of the figure.
var clusterSteps = []int{1, 2, 4}

// FigClusterScaling drives YCSB A (update-heavy), B (read-mostly) and
// E (short scans) through cluster routers against 1, 2 and 4
// controllers, one HDD-model drive each, and reports aggregate
// throughput plus the redirects observed (0 in steady state — the map
// never changes during a run). Like the paper's Figure 5 the
// experiment is medium-bound — the modeled positioning time of each
// shard's disk caps its throughput — so the scale-out slope isolates
// the sharding layer (map lookup, routing, per-shard merge) rather
// than the host's CPU count: near-linear scaling means the router and
// shard map add nothing to the per-operation critical path.
func FigClusterScaling(s Scale) (*Table, error) {
	t := &Table{
		Name:   "Cluster",
		Title:  fmt.Sprintf("Keyspace scale-out through the cluster router (HDD model, %d clients)", s.Clients),
		XLabel: "controllers",
		Columns: []string{"YCSB-A IOP/s", "YCSB-B IOP/s", "YCSB-E IOP/s",
			"A mean ms", "Redirects"},
	}
	for _, n := range clusterSteps {
		row := Row{X: fmt.Sprint(n)}
		var aMean time.Duration
		var redirects uint64
		for _, wl := range []ycsb.Workload{ycsb.WorkloadA, ycsb.WorkloadB, ycsb.WorkloadE} {
			m, red, err := runClusterWorkload(n, wl, s)
			if err != nil {
				return nil, fmt.Errorf("cluster n=%d %v: %w", n, wl, err)
			}
			row.Values = append(row.Values, m.KIOPS*1000) // IOP/s axis
			redirects += red
			if wl == ycsb.WorkloadA {
				aMean = m.Mean
			}
		}
		row.Values = append(row.Values,
			float64(aMean)/float64(time.Millisecond), float64(redirects))
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// runClusterWorkload boots an n-controller cluster, loads the
// keyspace through routers and replays one workload closed-loop with
// one router per client worker.
func runClusterWorkload(controllers int, wl ycsb.Workload, s Scale) (*Metrics, uint64, error) {
	mc, err := testbed.StartMulti(controllers, testbed.Options{
		Enclave: true,
		Media:   func(int) kinetic.MediaModel { return kinetic.NewHDDMedia(1.0) },
	})
	if err != nil {
		return nil, 0, err
	}
	defer mc.Close()

	clients := s.Clients
	routers := make([]*cluster.Router, clients)
	for i := range routers {
		if routers[i], _, err = mc.NewRouter(fmt.Sprintf("bench-router-%d", i)); err != nil {
			return nil, 0, err
		}
	}

	// HDD-model sizing, like every disk-bound figure: each record load
	// and each replayed update pays modeled positioning time.
	opCount := s.DiskOpCount * controllers
	if wl == ycsb.WorkloadE {
		// Scans touch up to dozens of records each; shrink the trace so
		// a sweep stays in budget (same scaling as the scan figure).
		opCount = max(opCount/4, 200)
	}
	keys, ops, err := ycsb.Generate(ycsb.Config{
		Workload:       wl,
		RecordCount:    s.DiskRecordCount,
		OperationCount: opCount,
		Seed:           7,
	})
	if err != nil {
		return nil, 0, err
	}

	// Load phase through the routers (placement is the map's business;
	// the loader never talks to a specific controller).
	pool := make([]byte, 1<<20+256)
	rand.New(rand.NewSource(42)).Read(pool)
	value := func(key string) []byte {
		off := 0
		for _, c := range []byte(key) {
			off = (off*131 + int(c)) & 0xff
		}
		return pool[off : off+1024]
	}
	ctx := context.Background()
	sem := make(chan struct{}, 64)
	var wg sync.WaitGroup
	loadErr := make(chan error, 1)
	for i, k := range keys {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, k string) {
			defer wg.Done()
			defer func() { <-sem }()
			res, err := routers[i%clients].Put(ctx, k, value(k), client.PutOptions{})
			if err == nil && res.Err != nil {
				err = res.Err
			}
			if err != nil {
				select {
				case loadErr <- fmt.Errorf("load %q: %w", k, err):
				default:
				}
			}
		}(i, k)
	}
	wg.Wait()
	select {
	case err := <-loadErr:
		return nil, 0, err
	default:
	}

	// Replay: ops partitioned round-robin, one router per worker.
	perWorker := make([][]ycsb.Op, clients)
	for i, op := range ops {
		perWorker[i%clients] = append(perWorker[i%clients], op)
	}
	var errs atomic.Int64
	samples := make([][]time.Duration, clients)
	start := time.Now()
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := routers[w]
			local := make([]time.Duration, 0, len(perWorker[w]))
			for _, op := range perWorker[w] {
				t0 := time.Now()
				var err error
				switch op.Type {
				case ycsb.OpRead:
					_, _, err = r.Get(ctx, op.Key, client.GetOptions{})
				case ycsb.OpScan:
					_, err = r.List(ctx, client.ListOptions{Start: op.Key, Limit: op.ScanLen})
				default:
					var res client.OpResult
					res, err = r.Put(ctx, op.Key, value(op.Key), client.PutOptions{})
					if err == nil && res.Err != nil {
						err = res.Err
					}
				}
				if err != nil {
					errs.Add(1)
				}
				local = append(local, time.Since(t0))
			}
			samples[w] = local
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	if n := errs.Load(); n > 0 {
		return nil, 0, fmt.Errorf("replay had %d failed operations", n)
	}

	var all []time.Duration
	for _, sl := range samples {
		all = append(all, sl...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	m := &Metrics{
		Ops:      len(ops),
		Duration: elapsed,
		KIOPS:    float64(len(ops)) / elapsed.Seconds() / 1000,
	}
	if len(all) > 0 {
		var sum time.Duration
		for _, d := range all {
			sum += d
		}
		m.Mean = sum / time.Duration(len(all))
		m.P50 = all[len(all)/2]
		m.P95 = all[len(all)*95/100]
		m.P99 = all[len(all)*99/100]
	}
	var redirects uint64
	for _, r := range routers {
		redirects += r.Stats().Redirects.Load()
	}
	return m, redirects, nil
}

// BenchClusterJSON is the machine-readable trajectory of the cluster
// scaling figure (BENCH_cluster.json).
type BenchClusterJSON struct {
	Figure  string   `json:"figure"`
	Title   string   `json:"title"`
	XLabel  string   `json:"xLabel"`
	Columns []string `json:"columns"`
	Rows    []Row    `json:"rows"`
}

// WriteBenchClusterJSON renders the cluster scaling table as
// machine-readable output.
func WriteBenchClusterJSON(path string, t *Table) error {
	out := BenchClusterJSON{
		Figure:  t.Name,
		Title:   t.Title,
		XLabel:  t.XLabel,
		Columns: t.Columns,
		Rows:    t.Rows,
	}
	data, err := json.MarshalIndent(&out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
