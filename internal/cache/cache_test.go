package cache

import (
	"fmt"
	"testing"

	"repro/internal/enclave"
)

func TestCacheBasic(t *testing.T) {
	c := New[string, string](Config[string]{})
	if _, ok := c.Get("missing"); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put("a", "1")
	if v, ok := c.Get("a"); !ok || v != "1" {
		t.Fatalf("get a = %q %v", v, ok)
	}
	c.Put("a", "2")
	if v, _ := c.Get("a"); v != "2" {
		t.Fatal("replace failed")
	}
	if c.Len() != 1 {
		t.Fatalf("len = %d", c.Len())
	}
	c.Remove("a")
	if _, ok := c.Get("a"); ok {
		t.Fatal("get after remove")
	}
	hits, misses, _ := c.Stats()
	if hits != 2 || misses != 2 {
		t.Fatalf("stats: %d hits %d misses", hits, misses)
	}
}

func TestCacheByteBudget(t *testing.T) {
	c := New[string, []byte](Config[[]byte]{
		BudgetBytes: 1000,
		SizeOf:      func(b []byte) int64 { return int64(len(b)) },
	})
	for i := 0; i < 20; i++ {
		c.Put(fmt.Sprint(i), make([]byte, 100))
	}
	if c.Bytes() > 1000 {
		t.Fatalf("bytes = %d exceeds budget", c.Bytes())
	}
	if c.Len() > 10 {
		t.Fatalf("len = %d", c.Len())
	}
	_, _, evictions := c.Stats()
	if evictions == 0 {
		t.Fatal("no evictions recorded")
	}
}

func TestCacheEntryCap(t *testing.T) {
	c := New[int, int](Config[int]{BudgetBytes: 5})
	for i := 0; i < 50; i++ {
		c.Put(i, i)
	}
	if c.Len() > 5 {
		t.Fatalf("len = %d, cap 5", c.Len())
	}
}

func TestCacheLFUKeepsHotEntries(t *testing.T) {
	c := New[string, int](Config[int]{BudgetBytes: 10})
	c.Put("hot", 1)
	for i := 0; i < 100; i++ {
		c.Get("hot")
	}
	// Insert many cold entries to force evictions.
	for i := 0; i < 200; i++ {
		c.Put(fmt.Sprint(i), i)
	}
	if _, ok := c.Get("hot"); !ok {
		t.Fatal("hot entry evicted before cold ones")
	}
}

func TestCacheSizeUpdateOnReplace(t *testing.T) {
	c := New[string, []byte](Config[[]byte]{
		BudgetBytes: 10000,
		SizeOf:      func(b []byte) int64 { return int64(len(b)) },
	})
	c.Put("k", make([]byte, 100))
	c.Put("k", make([]byte, 300))
	if c.Bytes() != 300 {
		t.Fatalf("bytes after grow = %d", c.Bytes())
	}
	c.Put("k", make([]byte, 50))
	if c.Bytes() != 50 {
		t.Fatalf("bytes after shrink = %d", c.Bytes())
	}
}

func TestCacheEPCAccounting(t *testing.T) {
	epc := enclave.NewEPC(1 << 20)
	c := New[string, []byte](Config[[]byte]{
		BudgetBytes: 1 << 20,
		SizeOf:      func(b []byte) int64 { return int64(len(b)) },
		EPC:         epc, Label: "test-cache",
	})
	c.Put("a", make([]byte, 1000))
	if epc.Usage()["test-cache"] != 1000 {
		t.Fatalf("epc usage = %d", epc.Usage()["test-cache"])
	}
	c.Remove("a")
	if epc.Usage()["test-cache"] != 0 {
		t.Fatalf("epc usage after remove = %d", epc.Usage()["test-cache"])
	}
	c.Put("b", make([]byte, 500))
	c.Clear()
	if epc.Resident() != 0 {
		t.Fatalf("epc resident after clear = %d", epc.Resident())
	}
}

func TestCacheFrequencyDecay(t *testing.T) {
	c := New[string, int](Config[int]{BudgetBytes: 4, DecayEvery: 10})
	c.Put("old-hot", 1)
	for i := 0; i < 30; i++ {
		c.Get("old-hot") // builds frequency, but decay halves it over time
	}
	// After many decays plus fresh activity, old-hot can be evicted.
	for i := 0; i < 100; i++ {
		c.Put(fmt.Sprint(i), i)
		c.Get(fmt.Sprint(i))
		c.Get(fmt.Sprint(i))
	}
	if c.Len() > 4 {
		t.Fatalf("len = %d", c.Len())
	}
}

func TestResultBufferWindow(t *testing.T) {
	rb := NewResultBuffer(4, nil, "")
	for i := uint64(1); i <= 6; i++ {
		rb.Put(Result{OpID: i, Done: true})
	}
	// Oldest two fell out of the window.
	if _, ok := rb.Get(1); ok {
		t.Error("op 1 still present")
	}
	if _, ok := rb.Get(2); ok {
		t.Error("op 2 still present")
	}
	for i := uint64(3); i <= 6; i++ {
		if _, ok := rb.Get(i); !ok {
			t.Errorf("op %d missing", i)
		}
	}
	if rb.Len() != 4 {
		t.Fatalf("len = %d", rb.Len())
	}
}

func TestResultBufferUpdateInPlace(t *testing.T) {
	rb := NewResultBuffer(4, nil, "")
	rb.Put(Result{OpID: 1, Done: false})
	rb.Put(Result{OpID: 1, Done: true, Version: 7})
	r, ok := rb.Get(1)
	if !ok || !r.Done || r.Version != 7 {
		t.Fatalf("updated result: %+v %v", r, ok)
	}
	if rb.Len() != 1 {
		t.Fatalf("len = %d", rb.Len())
	}
}

func TestResultBufferDefaultCapacity(t *testing.T) {
	rb := NewResultBuffer(0, nil, "")
	for i := uint64(1); i <= DefaultResultCapacity+10; i++ {
		rb.Put(Result{OpID: i})
	}
	if rb.Len() != DefaultResultCapacity {
		t.Fatalf("len = %d, want %d", rb.Len(), DefaultResultCapacity)
	}
}
