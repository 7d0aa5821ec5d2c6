// Command benchmark is the repository's one end-to-end benchmark: four
// named workloads driven through cluster routers over real mTLS against
// a two-controller, twelve-drive in-process deployment, nine end-to-end
// metrics with regression bounds, and a traced run that says where the
// time went layer by layer. BENCHMARK.json at the repository root
// names the same workloads and metrics; README.md here explains them.
//
//	go run ./benchmark                                  # all four workloads
//	go run ./benchmark -workload scan-e -seconds 20     # one workload
//	go run ./benchmark -workload scan-e -trace 1        # its per-layer budget
//	go run ./benchmark -runs 5 -out new.json            # medians and spreads
//	go run ./benchmark -compare old.json new.json       # verdict per metric
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

const (
	defaultSeed    = 7
	defaultSeconds = 20
	// setupsPerRun is how often a run sets the deployment up; setup_s
	// is the median, and the last one is the deployment measured on.
	setupsPerRun = 3
)

// options are the command line.
type options struct {
	workload       string
	seed           int64
	seconds        float64
	trace, runs    int
	out, traceOut  string
	compare, child bool
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "all", "workload to run: kv-read-hot, kv-write-hdd, scan-e, stream-ec or all")
	flag.Int64Var(&o.seed, "seed", defaultSeed, "workload seed: feeds trace and payload generation only")
	flag.Float64Var(&o.seconds, "seconds", defaultSeconds, "measured seconds per run; every phase is a fixed share of it")
	flag.IntVar(&o.trace, "trace", 0, "1 = traced run reporting the per-layer metrics, 0 = end-to-end metrics")
	flag.IntVar(&o.runs, "runs", 1, "repeat each workload this many times and report medians, quartiles and extremes")
	flag.StringVar(&o.out, "out", "", "write the result document (JSON) here")
	flag.StringVar(&o.traceOut, "trace-out", "", "with -trace 1: write the recorded spans here as JSON lines")
	flag.BoolVar(&o.compare, "compare", false, "compare two result documents: -compare old.json new.json")
	flag.BoolVar(&o.child, "child", false, "internal: print the full result record as the last line")
	flag.Parse()
	err := errors.New("bad arguments (see -help)")
	switch {
	case o.compare && flag.NArg() == 2:
		err = compareFiles(flag.Arg(0), flag.Arg(1))
	case !o.compare && flag.NArg() == 0 && o.seconds > 0 && o.runs >= 1 && (o.trace == 0 || o.trace == 1):
		err = measure(o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// errIncorrect marks a run that finished but must not be trusted.
var errIncorrect = errors.New("correctness violations or failed operations (see the lines marked !)")

func compareFiles(basePath, nowPath string) error {
	base, err := readDoc(basePath)
	if err != nil {
		return err
	}
	now, err := readDoc(nowPath)
	if err != nil {
		return err
	}
	regressed, err := compare(os.Stdout, base, now)
	if err != nil {
		return err
	}
	if regressed {
		return errors.New("regression against the base document")
	}
	return nil
}

// measure runs the chosen workloads and reports them.
func measure(o options) error {
	cfg := runConfig{
		seed: o.seed, seconds: o.seconds, trace: o.trace == 1,
		clients: numClients(), setups: setupsPerRun, traceOut: o.traceOut,
	}
	var todo []*workload
	if o.workload == "all" {
		todo = workloads
	} else if w := workloadByName(o.workload); w != nil {
		todo = []*workload{w}
	} else {
		return fmt.Errorf("unknown workload %q", o.workload)
	}

	doc := &Doc{Env: newEnv(cfg, o.runs)}
	var last WorkloadResult
	for _, w := range todo {
		cfg.w = w
		var results []WorkloadResult
		for i := 0; i < o.runs; i++ {
			var r WorkloadResult
			var err error
			if len(todo) == 1 && o.runs == 1 {
				r, err = runOnce(cfg)
			} else {
				// One process per run: peak RSS, heap state and set-up
				// are then each run's own, as they are under the driver.
				r, err = runChild(cfg)
			}
			if err != nil {
				return fmt.Errorf("%s: %w", w.name, err)
			}
			results = append(results, r)
		}
		last = results[0]
		if o.runs > 1 {
			last = summarise(results)
		}
		doc.Workloads = append(doc.Workloads, last)
		if !o.child {
			last.printLines(os.Stdout)
		}
	}
	if o.out != "" {
		if err := writeDoc(o.out, doc); err != nil {
			return err
		}
	}
	if len(doc.Workloads) == 1 {
		if o.child {
			b, err := json.Marshal(last)
			if err != nil {
				return err
			}
			fmt.Println(string(b))
		} else {
			fmt.Println(last.contractLine())
		}
	}
	for _, r := range doc.Workloads {
		if !r.Correct || r.Failed > 0 {
			return errIncorrect
		}
	}
	return nil
}

// runOnce runs one workload once in this process.
func runOnce(cfg runConfig) (WorkloadResult, error) {
	m, err := run(cfg)
	if err != nil {
		return WorkloadResult{}, err
	}
	if cfg.traceOut != "" && m.traced != nil {
		if err := writeSpans(cfg.traceOut, m.traced.spans); err != nil {
			return WorkloadResult{}, err
		}
	}
	return result(m), nil
}

// runChild runs one workload once in a process of its own — this same
// program — and reads its result record from the last line it prints.
func runChild(cfg runConfig) (WorkloadResult, error) {
	var r WorkloadResult
	exe, err := os.Executable()
	if err != nil {
		return r, err
	}
	args := []string{
		"-child", "-workload", cfg.w.name,
		"-seed", strconv.FormatInt(cfg.seed, 10),
		"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64),
		"-trace", map[bool]string{false: "0", true: "1"}[cfg.trace],
	}
	if cfg.traceOut != "" {
		args = append(args, "-trace-out", cfg.traceOut+"."+cfg.w.name)
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	pipe, err := cmd.StdoutPipe()
	if err != nil {
		return r, err
	}
	if err := cmd.Start(); err != nil {
		return r, err
	}
	lastLine := ""
	rd := bufio.NewReader(pipe)
	for {
		line, err := rd.ReadString('\n')
		if s := strings.TrimSpace(line); s != "" {
			lastLine = s
		}
		if err != nil {
			if err != io.EOF {
				cmd.Wait()
				return r, err
			}
			break
		}
	}
	waitErr := cmd.Wait()
	if err := json.Unmarshal([]byte(lastLine), &r); err != nil {
		if waitErr != nil {
			return r, waitErr
		}
		return r, fmt.Errorf("child printed no result: %w", err)
	}
	// A child that measured but found violations exits non-zero and
	// still reports; the caller decides after printing everything.
	return r, nil
}
