// Command pesos-bench regenerates the paper's evaluation figures
// (§6) against in-process Pesos deployments. Each figure prints as an
// aligned table whose columns match the plot's series.
//
// Usage:
//
//	pesos-bench -fig 3            # one figure, quick scale
//	pesos-bench -fig all -paper   # every figure at the paper's scale
//
// Figures: 3 (throughput vs clients), 4 (latency vs clients),
// 5 (disk scaling), 6 (payload size), enc (§6.2 encryption overhead),
// 7 (replication), 8 (policy cache), 9 (versioned store), 10 (MAL),
// ablation (security-layer cost), scan (YCSB-E short ranges over the
// v2 Scan API), cluster (keyspace scale-out across 1/2/4 controllers
// through the cluster router; emits BENCH_cluster.json), failover
// (controller kill under load with a hot standby taking over; emits
// BENCH_ha.json with the recovery timeline), chaos (phased drive-fault
// injection — baseline, drive kill, partition and reconcile, load
// ramp — with failure detection and background re-replication; emits
// BENCH_chaos.json with the phase timeline), obs (healthy-path
// overhead of the observability layer — tracing, metrics, audit
// sampling — vs the kill switch on identical YCSB-A replays; emits
// BENCH_obs.json with the interleaved rounds and the best-of
// overhead), ec (erasure-coded streaming vs replication-3: capacity
// per logical byte, large-object PUT/GET throughput, and a timed
// shard rebuild after a drive kill under load; emits BENCH_ec.json
// with the run timeline).
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/bench"
)

func main() {
	fig := flag.String("fig", "all", "figure to regenerate: 3,4,5,6,enc,7,8,9,10,ablation,scan,cluster,failover,chaos,obs,ec or all")
	paper := flag.Bool("paper", false, "use the paper's full experiment scale (minutes per figure)")
	clusterJSON := flag.String("cluster-json", "BENCH_cluster.json", "path for the cluster figure's machine-readable output (empty disables)")
	haJSON := flag.String("ha-json", "BENCH_ha.json", "path for the failover figure's machine-readable output (empty disables)")
	chaosJSON := flag.String("chaos-json", "BENCH_chaos.json", "path for the chaos figure's machine-readable output (empty disables)")
	obsJSON := flag.String("obs-json", "BENCH_obs.json", "path for the obs figure's machine-readable output (empty disables)")
	ecJSON := flag.String("ec-json", "BENCH_ec.json", "path for the ec figure's machine-readable output (empty disables)")
	flag.Parse()

	scale := bench.Quick()
	if *paper {
		scale = bench.Paper()
	}

	type figure struct {
		name string
		run  func(bench.Scale) (*bench.Table, error)
	}
	figures := []figure{
		{"3", bench.Fig3Throughput},
		{"4", bench.Fig4Latency},
		{"5", bench.Fig5DiskScaling},
		{"6", bench.Fig6PayloadSize},
		{"enc", bench.EncryptionOverhead},
		{"7", bench.Fig7Replication},
		{"8", bench.Fig8PolicyCache},
		{"9", bench.Fig9Versioned},
		{"10", bench.Fig10MAL},
		{"ablation", bench.Ablation},
		{"scan", bench.FigScanWorkloadE},
		{"cluster", bench.FigClusterScaling},
		{"failover", bench.FigFailover},
		{"chaos", bench.FigChaos},
		{"obs", bench.FigObs},
		{"ec", bench.FigEC},
	}

	ran := false
	for _, f := range figures {
		if *fig != "all" && *fig != f.name {
			continue
		}
		ran = true
		start := time.Now()
		t, err := f.run(scale)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pesos-bench: figure %s: %v\n", f.name, err)
			os.Exit(1)
		}
		fmt.Println(t.Format())
		if f.name == "cluster" && *clusterJSON != "" {
			if err := bench.WriteBenchClusterJSON(*clusterJSON, t); err != nil {
				fmt.Fprintf(os.Stderr, "pesos-bench: write %s: %v\n", *clusterJSON, err)
				os.Exit(1)
			}
			fmt.Printf("(wrote %s)\n", *clusterJSON)
		}
		if f.name == "failover" && *haJSON != "" {
			if err := bench.WriteBenchHAJSON(*haJSON, t); err != nil {
				fmt.Fprintf(os.Stderr, "pesos-bench: write %s: %v\n", *haJSON, err)
				os.Exit(1)
			}
			fmt.Printf("(wrote %s)\n", *haJSON)
		}
		if f.name == "chaos" && *chaosJSON != "" {
			if err := bench.WriteBenchChaosJSON(*chaosJSON, t); err != nil {
				fmt.Fprintf(os.Stderr, "pesos-bench: write %s: %v\n", *chaosJSON, err)
				os.Exit(1)
			}
			fmt.Printf("(wrote %s)\n", *chaosJSON)
		}
		if f.name == "obs" && *obsJSON != "" {
			if err := bench.WriteBenchObsJSON(*obsJSON, t); err != nil {
				fmt.Fprintf(os.Stderr, "pesos-bench: write %s: %v\n", *obsJSON, err)
				os.Exit(1)
			}
			fmt.Printf("(wrote %s)\n", *obsJSON)
		}
		if f.name == "ec" && *ecJSON != "" {
			if err := bench.WriteBenchECJSON(*ecJSON, t); err != nil {
				fmt.Fprintf(os.Stderr, "pesos-bench: write %s: %v\n", *ecJSON, err)
				os.Exit(1)
			}
			fmt.Printf("(wrote %s)\n", *ecJSON)
		}
		fmt.Printf("(figure %s took %v)\n\n", f.name, time.Since(start).Round(time.Millisecond))
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "pesos-bench: unknown figure %q\n", *fig)
		os.Exit(2)
	}
}
