package core

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"repro/internal/store"
)

// TestWarmRangesStopsAtLimit: warming up to limit keys of three owned
// ranges costs each drive a page or two of limit keys — not a drain of
// its whole keyspace for every owned range it takes to reach the limit.
func TestWarmRangesStopsAtLimit(t *testing.T) {
	third := uint32(store.ShardSpace / 4)
	owned := []HashRange{{0, third}, {third, 2 * third}, {3 * third, store.ShardSpace}}
	h := newHarness(t, 2, func(cfg *Config) {
		cfg.Replicas = 2
		cfg.Shard = &ShardInfo{ID: 0, Epoch: 1, Ranges: owned}
	})
	ctx := context.Background()
	s := h.ctl.Session("w")
	stored := 0
	for i := 0; stored < 30; i++ {
		_, err := s.Put(ctx, fmt.Sprintf("a/%03d", i), []byte("v"), PutOptions{})
		if err == nil {
			stored++
		} else if !errors.Is(err, ErrWrongShard) {
			t.Fatal(err)
		}
	}
	// A keyspace three drive pages deep behind them: unreadable records,
	// which a warm-up that got this far would skip one by one.
	for i := 0; i < 2000; i++ {
		for di := range h.drives {
			plantMeta(t, h, di, fmt.Sprintf("z/%04d", i), []byte("junk"))
		}
	}
	h.ctl.metaCache.Clear()
	var before [2]uint64
	for di, d := range h.drives {
		before[di] = d.Stats().Ranges.Load()
	}
	const limit = 10
	warmed, err := h.ctl.WarmRanges(ctx, limit)
	if err != nil || warmed != limit || h.ctl.metaCache.Len() != limit {
		t.Fatalf("warmed %d keys, %d cached, want %d: %v", warmed, h.ctl.metaCache.Len(), limit, err)
	}
	for di, d := range h.drives {
		// The objects stored are all owned, so the first page of limit
		// keys fills the limit; the second request allowed here is the
		// one a key of another shard among them would cost. Draining the
		// drive once takes three.
		if asked := d.Stats().Ranges.Load() - before[di]; asked > 2 {
			t.Errorf("drive %d served %d range requests for a warm-up of %d keys", di, asked, limit)
		}
	}
}

// TestWarmRangesReadsNoHead: warm-up caches the head its walk already
// carries, elected from every drive's copy, so warming keys with no
// policy sends the drives no GET at all.
func TestWarmRangesReadsNoHead(t *testing.T) {
	h := newHarness(t, 3, func(cfg *Config) {
		cfg.Replicas = 2
		cfg.Shard = &ShardInfo{ID: 0, Epoch: 1, Ranges: []HashRange{{0, store.ShardSpace}}}
	})
	ctx := context.Background()
	s := h.ctl.Session("w")
	const keys = 20
	for i := 0; i < keys; i++ {
		if _, err := s.Put(ctx, fmt.Sprintf("k/%02d", i), []byte("v"), PutOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	h.ctl.metaCache.Clear()
	before := driveGets(h.drives)
	warmed, err := h.ctl.WarmRanges(ctx, 0)
	if err != nil || warmed != keys || h.ctl.metaCache.Len() != keys {
		t.Fatalf("warmed %d keys, %d cached, want %d: %v", warmed, h.ctl.metaCache.Len(), keys, err)
	}
	if gets := driveGets(h.drives) - before; gets != 0 {
		t.Errorf("warm-up of %d keys sent %d drive GETs, want 0", keys, gets)
	}
	for i := 0; i < keys; i++ {
		key := fmt.Sprintf("k/%02d", i)
		if m, ok := h.ctl.metaCache.Get(key); !ok || m.Key != key || m.Version != 0 {
			t.Fatalf("cached head of %q: %+v", key, m)
		}
	}
}
