// Package ycsb reimplements the YCSB core workload generator (Cooper
// et al., SoCC 2010) used throughout the paper's evaluation (§6.1):
// the stock workloads the benchmark runs (A, B and E) with their
// zipfian key popularity and read/write mixes, generated as replayable
// traces. The paper generates traces ahead of time and replays them
// against Pesos; the benchmark harness does the same.
package ycsb

import (
	"fmt"
	"math"
	"math/rand"
)

// OpType is a trace operation type.
type OpType uint8

// Operation types.
const (
	OpRead OpType = iota
	OpUpdate
	OpInsert
	OpScan
)

// String implements fmt.Stringer.
func (t OpType) String() string {
	switch t {
	case OpRead:
		return "READ"
	case OpUpdate:
		return "UPDATE"
	case OpInsert:
		return "INSERT"
	case OpScan:
		return "SCAN"
	default:
		return fmt.Sprintf("OpType(%d)", uint8(t))
	}
}

// Op is one trace entry. ScanLen is the record count of an OpScan
// (YCSB: "scan a number of records starting at a given key").
type Op struct {
	Type    OpType
	Key     string
	ScanLen int
}

// Workload names a stock YCSB workload.
type Workload uint8

// Stock workloads (§6.1: "YCSB comes with four stock workloads (A–D)";
// workload E is YCSB's scan-heavy "short ranges" workload, opened up by
// the v2 Scan API).
const (
	// WorkloadA: update heavy, 50/50 read/update, zipfian.
	WorkloadA Workload = iota
	// WorkloadB: read mostly, 95/5 read/update, zipfian.
	WorkloadB
	// WorkloadE: short ranges, 95/5 scan/insert, zipfian start keys,
	// uniform scan lengths in [1, MaxScanLen].
	WorkloadE
)

// MaxScanLen is workload E's maximum records per scan (the YCSB
// default maxscanlength=100).
const MaxScanLen = 100

// String implements fmt.Stringer.
func (w Workload) String() string {
	switch w {
	case WorkloadA:
		return "A"
	case WorkloadB:
		return "B"
	case WorkloadE:
		return "E"
	default:
		return fmt.Sprintf("Workload(%d)", uint8(w))
	}
}

// Config parameterizes trace generation.
type Config struct {
	Workload Workload
	// RecordCount is the number of unique objects (paper: 100,000).
	RecordCount int
	// OperationCount is the trace length (paper: 100,000).
	OperationCount int
	// Seed makes traces reproducible.
	Seed int64
}

// zipfianConstant is the key-popularity skew (the YCSB default).
const zipfianConstant = 0.99

// Key renders record index i as a YCSB-style key.
func Key(i int) string { return fmt.Sprintf("user%012d", i) }

// Generate produces the load phase key list and the operation trace.
func Generate(cfg Config) (loadKeys []string, ops []Op, err error) {
	if cfg.RecordCount <= 0 || cfg.OperationCount < 0 {
		return nil, nil, fmt.Errorf("ycsb: bad config %+v", cfg)
	}
	rnd := rand.New(rand.NewSource(cfg.Seed))

	loadKeys = make([]string, cfg.RecordCount)
	for i := range loadKeys {
		loadKeys[i] = Key(i)
	}

	var readP float64
	var insert, scan bool
	switch cfg.Workload {
	case WorkloadA:
		readP = 0.5
	case WorkloadB:
		readP = 0.95
	case WorkloadE:
		readP = 0.95 // scan proportion
		insert = true
		scan = true
	default:
		return nil, nil, fmt.Errorf("ycsb: unknown workload %v", cfg.Workload)
	}

	chooser := newScrambledZipfian(cfg.RecordCount, zipfianConstant, rnd)

	ops = make([]Op, 0, cfg.OperationCount)
	nextInsert := cfg.RecordCount
	for i := 0; i < cfg.OperationCount; i++ {
		r := rnd.Float64()
		switch {
		case insert && r >= readP:
			ops = append(ops, Op{Type: OpInsert, Key: Key(nextInsert)})
			chooser.grow()
			nextInsert++
		case scan:
			// Workload E: scan a uniform-length short range starting at
			// a zipfian-popular key.
			ops = append(ops, Op{
				Type: OpScan, Key: Key(chooser.next()),
				ScanLen: 1 + rnd.Intn(MaxScanLen),
			})
		case r < readP:
			ops = append(ops, Op{Type: OpRead, Key: Key(chooser.next())})
		default:
			ops = append(ops, Op{Type: OpUpdate, Key: Key(chooser.next())})
		}
	}
	return loadKeys, ops, nil
}

// zipfian implements Gray et al.'s incremental zipfian generator, the
// same algorithm YCSB uses.
type zipfian struct {
	items          int
	base           int
	constant       float64
	theta          float64
	zeta2theta     float64
	alpha          float64
	zetan          float64
	eta            float64
	countForZeta   int
	allowItemCount bool
	rnd            *rand.Rand
}

func newZipfian(items int, constant float64, rnd *rand.Rand) *zipfian {
	z := &zipfian{items: items, constant: constant, theta: constant, rnd: rnd}
	z.zeta2theta = zetaStatic(2, constant)
	z.alpha = 1.0 / (1.0 - z.theta)
	z.zetan = zetaStatic(items, constant)
	z.countForZeta = items
	z.eta = (1 - math.Pow(2.0/float64(items), 1-z.theta)) / (1 - z.zeta2theta/z.zetan)
	return z
}

func zetaStatic(n int, theta float64) float64 {
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += 1.0 / math.Pow(float64(i+1), theta)
	}
	return sum
}

func (z *zipfian) next() int {
	u := z.rnd.Float64()
	uz := u * z.zetan
	if uz < 1.0 {
		return z.base
	}
	if uz < 1.0+math.Pow(0.5, z.theta) {
		return z.base + 1
	}
	return z.base + int(float64(z.items)*math.Pow(z.eta*u-z.eta+1, z.alpha))
}

func (z *zipfian) grow() {
	// Incremental zeta recomputation, as in YCSB's
	// ZipfianGenerator.nextInt when itemcount grows.
	z.items++
	z.zetan += 1.0 / math.Pow(float64(z.items), z.theta)
	z.countForZeta = z.items
	z.eta = (1 - math.Pow(2.0/float64(z.items), 1-z.theta)) / (1 - z.zeta2theta/z.zetan)
}

// scrambledZipfian spreads the zipfian head across the key space with
// a hash, exactly like YCSB's ScrambledZipfianGenerator: hot keys are
// scattered, not clustered at index 0.
type scrambledZipfian struct {
	z     *zipfian
	items int
}

func newScrambledZipfian(items int, constant float64, rnd *rand.Rand) *scrambledZipfian {
	return &scrambledZipfian{z: newZipfian(items, constant, rnd), items: items}
}

func (s *scrambledZipfian) next() int {
	v := s.z.next()
	return int(fnvHash64(uint64(v)) % uint64(s.items))
}

func (s *scrambledZipfian) grow() {
	s.items++
	s.z.grow()
}

// fnvHash64 is YCSB's FNV-1a 64-bit hash used for scrambling.
func fnvHash64(v uint64) uint64 {
	const (
		offset = 0xCBF29CE484222325
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < 8; i++ {
		octet := v & 0xff
		v >>= 8
		h ^= octet
		h *= prime
	}
	return h
}
