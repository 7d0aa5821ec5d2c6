package core

import (
	"bytes"
	"context"
	"fmt"
	"testing"
)

// TestObjectCacheHoldsHeads: the object cache holds one entry per
// object, its head record. N updates of one key leave one entry holding
// version N, and the entry only moves forward: a head read planned past
// a lagging entry replaces it, and one planned behind the entry reads
// around it and leaves it in place.
func TestObjectCacheHoldsHeads(t *testing.T) {
	const n = 6
	h := newHarness(t, 1, nil)
	s := h.ctl.Session("w")
	ctx := context.Background()
	val := func(v int) []byte { return fmt.Appendf(nil, "value %d", v) }
	for v := 0; v <= n; v++ {
		if got, err := s.Put(ctx, "k", val(v), PutOptions{}); err != nil || got != int64(v) {
			t.Fatalf("put %d: v%d %v", v, got, err)
		}
	}
	if got := h.ctl.objectCache.Len(); got != 1 {
		t.Fatalf("%d object cache entries after %d updates of one key, want 1", got, n)
	}
	rec, ok := h.ctl.objectCache.Get("k")
	if !ok || rec.Meta.Version != n || !bytes.Equal(rec.Payload, val(n)) {
		t.Fatalf("cached entry %+v (cached %v), want the v%d record", rec, ok, n)
	}

	head, err := h.ctl.loadMeta(ctx, "k")
	if err != nil {
		t.Fatal(err)
	}
	behind := *head
	behind.Version = n - 2
	if rec, err := h.ctl.loadPlanned(ctx, &behind, n-2); err != nil || !bytes.Equal(rec.Payload, val(n-2)) {
		t.Fatalf("a plan behind the entry: %+v %v", rec, err)
	}
	if rec, _ := h.ctl.objectCache.Get("k"); rec.Meta.Version != n {
		t.Errorf("a plan behind the entry moved it to v%d", rec.Meta.Version)
	}

	lagging, err := h.ctl.drives.ReadVersion(ctx, "k", n-1, h.ctl.placement("k"))
	if err != nil {
		t.Fatal(err)
	}
	h.ctl.objectCache.Put("k", lagging)
	if rec, err := h.ctl.loadPlanned(ctx, head, n); err != nil || !bytes.Equal(rec.Payload, val(n)) {
		t.Fatalf("a head read past a lagging entry: %+v %v", rec, err)
	}
	if rec, _ := h.ctl.objectCache.Get("k"); rec.Meta.Version != n {
		t.Errorf("a head read left the lagging v%d entry in place", rec.Meta.Version)
	}
}

// TestHotObjectStaysCachedAcrossUpdates: popularity follows the object,
// not the version. With a budget of a few records, a hot key updated and
// re-read while cold keys stream through keeps its entry, so reading its
// new head never goes to the drives.
func TestHotObjectStaysCachedAcrossUpdates(t *testing.T) {
	const recordBytes = 1 << 10
	h := newHarness(t, 1, func(c *Config) { c.ObjectCacheBytes = 6 * (recordBytes + 128) })
	s := h.ctl.Session("w")
	ctx := context.Background()
	value := func(tag string) []byte { return append([]byte(tag), make([]byte, recordBytes-len(tag))...) }
	var hotGets uint64
	cold := 0
	for round := range 40 {
		hot := value(fmt.Sprintf("hot %d", round))
		if _, err := s.Put(ctx, "hot", hot, PutOptions{}); err != nil {
			t.Fatal(err)
		}
		for range 3 {
			if _, err := s.Put(ctx, fmt.Sprintf("cold-%d", cold), value("cold"), PutOptions{}); err != nil {
				t.Fatal(err)
			}
			cold++
		}
		for range 3 {
			before := driveGets(h.drives)
			got, _, err := s.Get(ctx, "hot", GetOptions{})
			if err != nil || !bytes.Equal(got, hot) {
				t.Fatalf("round %d: hot read %.8q %v", round, got, err)
			}
			hotGets += driveGets(h.drives) - before
		}
	}
	if hotGets != 0 {
		t.Errorf("reading the hot key's head cost %d drive GETs, want 0", hotGets)
	}
	if st := h.ctl.CacheStats()["object"]; st[2] == 0 {
		t.Errorf("object cache stats %v: the cold keys evicted nothing, so the budget tested nothing", st)
	}
}

// TestOlderVersionReadLeavesHeadCached: a read of an older version is
// served off the drives, opened bound to its key and version, and
// bypasses the cache — no lookup, no fill, no eviction — so the head's
// entry stays.
func TestOlderVersionReadLeavesHeadCached(t *testing.T) {
	h := newHarness(t, 1, nil)
	s := h.ctl.Session("w")
	ctx := context.Background()
	val := func(v int) []byte { return fmt.Appendf(nil, "value %d", v) }
	for v := range 6 {
		if _, err := s.Put(ctx, "k", val(v), PutOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	before := h.ctl.CacheStats()["object"]
	got, meta, err := s.Get(ctx, "k", GetOptions{Version: 0, HasVersion: true})
	if err != nil || meta.Version != 0 || !bytes.Equal(got, val(0)) {
		t.Fatalf("?version=0: %q %+v %v", got, meta, err)
	}
	if m, err := s.Verify(ctx, "k", 0); err != nil || m.Version != 0 {
		t.Fatalf("verify v0: %+v %v", m, err)
	}
	if after := h.ctl.CacheStats()["object"]; after != before {
		t.Errorf("object cache hits/misses/evictions %v → %v: an older version's read touched the cache", before, after)
	}
	if rec, ok := h.ctl.objectCache.Get("k"); !ok || rec.Meta.Version != 5 {
		t.Fatalf("after reading v0 the cached entry is %+v (cached %v), want v5", rec, ok)
	}
	if got := h.ctl.objectCache.Len(); got != 1 {
		t.Errorf("%d object cache entries, want the head's alone", got)
	}
}
