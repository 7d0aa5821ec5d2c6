package core

import (
	"bytes"
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/kinetic"
	"repro/internal/store"
)

func TestBatchPutPerOpResults(t *testing.T) {
	h := newHarness(t, 2, func(c *Config) { c.Replicas = 2 })
	owner := h.ctl.Session("aa")
	other := h.ctl.Session("bb")
	ctx := context.Background()

	sealed, err := h.ctl.PutPolicy(ctx, "read :- sessionKeyIs(k'aa')\nupdate :- sessionKeyIs(k'aa')")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := owner.Put(ctx, "locked", []byte("v"), PutOptions{PolicyID: sealed}); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"existing", "conflict"} {
		if _, err := owner.Put(ctx, k, []byte("v"), PutOptions{}); err != nil {
			t.Fatal(err)
		}
	}

	results, err := other.BatchPut(ctx, []BatchPutOp{
		{Key: "b/new", Value: []byte("n")},                                   // ok: creation
		{Key: "conflict", Value: []byte("n2"), Version: 9, HasVersion: true}, // version conflict
		{Key: "locked", Value: []byte("n3")},                                 // policy denied
		{Key: "b/new", Value: []byte("dup")},                                 // duplicate in batch
		{Key: "", Value: []byte("x")},                                        // invalid key
		{Key: "existing", Value: []byte("n4"), Version: 1, HasVersion: true}, // ok: correct next version
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantCodes := []ErrorCode{CodeNone, CodeVersionConflict, CodeDenied, CodeInvalidArgument, CodeInvalidArgument, CodeNone}
	for i, want := range wantCodes {
		got := CodeNone
		if results[i].Err != nil {
			got = results[i].Err.Code
		}
		if got != want {
			t.Errorf("op %d: code %q, want %q (%+v)", i, got, want, results[i])
		}
	}
	if results[0].Version != 0 || results[5].Version != 1 {
		t.Errorf("surviving versions: %d, %d", results[0].Version, results[5].Version)
	}
	// Survivors are durable and readable.
	val, _, err := other.Get(ctx, "b/new", GetOptions{})
	if err != nil || !bytes.Equal(val, []byte("n")) {
		t.Errorf("b/new after batch: %q %v", val, err)
	}
	val, meta, err := other.Get(ctx, "existing", GetOptions{})
	if err != nil || !bytes.Equal(val, []byte("n4")) || meta.Version != 1 {
		t.Errorf("existing after batch: %q v%v %v", val, meta, err)
	}
	// Failed ops left no trace.
	if val, _, _ := owner.Get(ctx, "locked", GetOptions{}); !bytes.Equal(val, []byte("v")) {
		t.Errorf("locked changed to %q", val)
	}
}

func TestBatchPutRidesAtomicBatches(t *testing.T) {
	h := newHarness(t, 2, func(c *Config) { c.Replicas = 2 })
	s := h.ctl.Session("w")
	ctx := context.Background()

	before := make([]uint64, len(h.drives))
	for i, d := range h.drives {
		before[i] = d.Stats().Batches.Load()
	}
	ops := make([]BatchPutOp, 10)
	for i := range ops {
		ops[i] = BatchPutOp{Key: JSONKey(fmt.Sprintf("bp/%02d", i)), Value: []byte("v")}
	}
	results, err := s.BatchPut(ctx, ops, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("op %d failed: %v", i, r.Err)
		}
	}
	// 10 writes × 2 replicas ride one batch message per drive, not one
	// round trip per write.
	for i, d := range h.drives {
		if got := d.Stats().Batches.Load() - before[i]; got != 1 {
			t.Errorf("drive %d received %d batch messages, want 1", i, got)
		}
	}
}

// waveHarness is three drives holding three replicas of every key, so a
// new key's head is an absence read: the replica asked first, then —
// absence takes every replica's word — the other two at once, two rounds
// and three drive GETs. The hedge is pinned far out so those are the only
// reads, and gets counts them.
func waveHarness(t *testing.T) (h *harness, gets func() uint64) {
	h = newHarness(t, 3, func(c *Config) {
		c.Replicas = 3
		c.hedgeDelay = time.Minute
	})
	return h, func() (n uint64) {
		for _, d := range h.drives {
			n += d.Stats().Gets.Load()
		}
		return n
	}
}

// slowDrives adds delay to every media wait of h's drives.
func slowDrives(h *harness, delay time.Duration) {
	for _, d := range h.drives {
		d.SetFaults(kinetic.Faults{ExtraDelay: delay})
	}
}

// TestBatchPutReadsHeadsInOneWave: a batch reads the heads of its keys in
// one concurrent wave before it plans them — the drive reads a plan of
// one key at a time issues, overlapped — and a batch whose heads are all
// cached reads none.
func TestBatchPutReadsHeadsInOneWave(t *testing.T) {
	const n, delay = 32, 20 * time.Millisecond
	h, gets := waveHarness(t)
	s, ctx := h.ctl.Session("w"), context.Background()
	ops := make([]BatchPutOp, n)
	for i := range ops {
		ops[i] = BatchPutOp{Key: JSONKey(fmt.Sprintf("wave/%02d", i)), Value: []byte("v")}
	}
	put := func() []OpResult {
		t.Helper()
		results, err := s.BatchPut(ctx, ops, nil)
		if err != nil {
			t.Fatal(err)
		}
		return results
	}
	slowDrives(h, delay)

	t.Run("new keys", func(t *testing.T) {
		before, start := gets(), time.Now()
		results := put()
		elapsed := time.Since(start)
		for i, r := range results {
			if r.Err != nil || r.Version != 0 {
				t.Fatalf("op %d: %+v", i, r)
			}
		}
		if got := gets() - before; got != 3*n {
			t.Errorf("%d drive GETs for %d new keys, want 3 each (%d)", got, n, 3*n)
		}
		// One key at a time, the heads alone take two rounds each.
		if sequential := 2 * n * delay; elapsed >= sequential/4 {
			t.Errorf("the batch took %v; one head at a time takes %v", elapsed, sequential)
		}
	})
	t.Run("cached heads", func(t *testing.T) {
		before := gets()
		for i, r := range put() {
			if r.Err != nil || r.Version != 1 {
				t.Fatalf("op %d: %+v", i, r)
			}
		}
		if got := gets() - before; got != 0 {
			t.Errorf("%d drive GETs for a batch of cached heads, want 0", got)
		}
	})
	t.Run("one unreadable head", func(t *testing.T) {
		slowDrives(h, 0)
		bad := string(ops[0].Key)
		for _, p := range h.ctl.drives {
			if err := p.pick().Put(ctx, store.MetaKey(bad), []byte("not a head"), nil, []byte{9}, true); err != nil {
				t.Fatal(err)
			}
		}
		h.ctl.metaCache.Remove(bad)
		results := put()
		if results[0].Err == nil {
			t.Errorf("op 0 planned over a head no replica can open: %+v", results[0])
		}
		for i, r := range results[1:] {
			if r.Err != nil || r.Version != 2 {
				t.Errorf("op %d failed with the unreadable head of op 0: %+v", i+1, r)
			}
		}
	})
}

func TestBatchGetMixedResults(t *testing.T) {
	h := newHarness(t, 2, func(c *Config) { c.Replicas = 2 })
	owner := h.ctl.Session("aa")
	other := h.ctl.Session("bb")
	ctx := context.Background()

	sealed, err := h.ctl.PutPolicy(ctx, "read :- sessionKeyIs(k'aa')\nupdate :- sessionKeyIs(k'aa')")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := owner.Put(ctx, "pub", []byte("p"), PutOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := owner.Put(ctx, "sec", []byte("s"), PutOptions{PolicyID: sealed}); err != nil {
		t.Fatal(err)
	}

	results, err := other.BatchGet(ctx, []string{"pub", "sec", "missing"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Err != nil || !bytes.Equal(results[0].Value, []byte("p")) {
		t.Errorf("pub: %+v", results[0])
	}
	if results[1].Err == nil || results[1].Err.Code != CodeDenied || len(results[1].Value) != 0 {
		t.Errorf("sec: %+v", results[1])
	}
	if results[2].Err == nil || results[2].Err.Code != CodeNotFound {
		t.Errorf("missing: %+v", results[2])
	}
}
