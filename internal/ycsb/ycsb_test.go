package ycsb

import (
	"math"
	"sort"
	"testing"
)

func gen(t *testing.T, w Workload, records, ops int, seed int64) ([]string, []Op) {
	t.Helper()
	keys, trace, err := Generate(Config{Workload: w, RecordCount: records, OperationCount: ops, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return keys, trace
}

func TestDeterministic(t *testing.T) {
	_, t1 := gen(t, WorkloadA, 1000, 5000, 7)
	_, t2 := gen(t, WorkloadA, 1000, 5000, 7)
	if len(t1) != len(t2) {
		t.Fatal("lengths differ")
	}
	for i := range t1 {
		if t1[i] != t2[i] {
			t.Fatalf("op %d differs: %v vs %v", i, t1[i], t2[i])
		}
	}
	_, t3 := gen(t, WorkloadA, 1000, 5000, 8)
	same := true
	for i := range t1 {
		if t1[i] != t3[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds, identical trace")
	}
}

func TestWorkloadMixes(t *testing.T) {
	cases := []struct {
		w              Workload
		readLo, readHi float64
		inserts        bool
	}{
		{WorkloadA, 0.45, 0.55, false},
		{WorkloadB, 0.92, 0.98, false},
	}
	for _, tc := range cases {
		_, trace := gen(t, tc.w, 2000, 20000, 3)
		var reads, updates, inserts int
		for _, op := range trace {
			switch op.Type {
			case OpRead:
				reads++
			case OpUpdate:
				updates++
			case OpInsert:
				inserts++
			}
		}
		frac := float64(reads) / float64(len(trace))
		if frac < tc.readLo || frac > tc.readHi {
			t.Errorf("workload %v: read fraction %.3f outside [%.2f, %.2f]",
				tc.w, frac, tc.readLo, tc.readHi)
		}
		if tc.inserts && inserts == 0 {
			t.Errorf("workload %v: no inserts", tc.w)
		}
		if !tc.inserts && inserts != 0 {
			t.Errorf("workload %v: unexpected inserts", tc.w)
		}
	}
}

func TestKeysWithinRange(t *testing.T) {
	loadKeys, trace := gen(t, WorkloadA, 500, 5000, 11)
	if len(loadKeys) != 500 {
		t.Fatalf("load keys = %d", len(loadKeys))
	}
	valid := make(map[string]bool, len(loadKeys))
	for _, k := range loadKeys {
		valid[k] = true
	}
	for _, op := range trace {
		if !valid[op.Key] {
			t.Fatalf("trace references unknown key %q", op.Key)
		}
	}
}

func TestZipfianSkew(t *testing.T) {
	// The hottest key of a zipfian trace must be much hotter than the
	// median; a uniform chooser would fail this.
	_, trace := gen(t, WorkloadB, 1000, 50000, 5)
	counts := map[string]int{}
	for _, op := range trace {
		counts[op.Key]++
	}
	freqs := make([]int, 0, len(counts))
	for _, c := range counts {
		freqs = append(freqs, c)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(freqs)))
	top := freqs[0]
	median := freqs[len(freqs)/2]
	if top < 8*median {
		t.Errorf("zipfian skew too weak: top=%d median=%d", top, median)
	}
	// Top-10 keys should cover a large share of accesses.
	top10 := 0
	for i := 0; i < 10 && i < len(freqs); i++ {
		top10 += freqs[i]
	}
	if share := float64(top10) / float64(len(trace)); share < 0.10 {
		t.Errorf("top-10 share %.3f too small for zipf 0.99", share)
	}
}

func TestScrambledSpreadsHotKeys(t *testing.T) {
	// Scrambling must not leave the hottest keys clustered at the low
	// indexes: the mean index of the top keys should be well inside
	// the key space.
	_, trace := gen(t, WorkloadA, 10000, 50000, 9)
	counts := map[string]int{}
	for _, op := range trace {
		counts[op.Key]++
	}
	type kv struct {
		k string
		c int
	}
	var all []kv
	for k, c := range counts {
		all = append(all, kv{k, c})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].c > all[j].c })
	var sum float64
	n := 20
	for i := 0; i < n; i++ {
		var idx int
		if _, err := sscanKey(all[i].k, &idx); err != nil {
			t.Fatal(err)
		}
		sum += float64(idx)
	}
	mean := sum / float64(n)
	if mean < 1000 || mean > 9000 {
		t.Errorf("hot keys clustered: mean index %.0f", mean)
	}
}

func sscanKey(k string, idx *int) (int, error) {
	var n int
	for i := len("user"); i < len(k); i++ {
		n = n*10 + int(k[i]-'0')
	}
	*idx = n
	return 1, nil
}

func TestGenerateErrors(t *testing.T) {
	if _, _, err := Generate(Config{RecordCount: 0, OperationCount: 5}); err == nil {
		t.Error("zero records accepted")
	}
	if _, _, err := Generate(Config{Workload: Workload(99), RecordCount: 10, OperationCount: 5}); err == nil {
		t.Error("unknown workload accepted")
	}
}

func TestZipfianTheory(t *testing.T) {
	// zeta(2, 0.99) sanity: 1 + 2^-0.99.
	got := zetaStatic(2, 0.99)
	want := 1 + math.Pow(2, -0.99)
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("zeta: %v vs %v", got, want)
	}
}

func TestWorkloadEScans(t *testing.T) {
	_, ops := gen(t, WorkloadE, 500, 4000, 11)
	scans, inserts := 0, 0
	for _, op := range ops {
		switch op.Type {
		case OpScan:
			scans++
			if op.ScanLen < 1 || op.ScanLen > MaxScanLen {
				t.Fatalf("scan length %d outside [1,%d]", op.ScanLen, MaxScanLen)
			}
		case OpInsert:
			inserts++
		default:
			t.Fatalf("workload E produced %v", op.Type)
		}
	}
	// 95/5 scan/insert mix, within generous tolerance.
	if f := float64(scans) / float64(len(ops)); f < 0.92 || f > 0.98 {
		t.Errorf("scan fraction %.3f, want ~0.95", f)
	}
	if inserts == 0 {
		t.Error("workload E produced no inserts")
	}
}
