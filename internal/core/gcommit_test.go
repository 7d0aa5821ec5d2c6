package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/kinetic"
	"repro/internal/kinetic/kclient"
	"repro/internal/kinetic/wire"
	"repro/internal/store"
)

// slowHDD returns a media model whose positioning time makes the
// drive the bottleneck under a handful of concurrent writers without
// slowing the test down much.
func slowHDD() kinetic.MediaModel {
	return &kinetic.HDDMedia{Positioning: 2 * time.Millisecond, BytesPerSec: 150e6,
		WritePenalty: 100 * time.Microsecond, TimeScale: 1}
}

// TestGroupCommitMergesConcurrentWrites: under concurrent independent
// writers on slow media, six drives holding three replicas of every
// key, the groups that queue while a drive's batch is in flight share
// its next one — on average at least four groups a batch — while every
// write still lands intact.
func TestGroupCommitMergesConcurrentWrites(t *testing.T) {
	h := newHarness(t, 6, func(cfg *Config) { cfg.Replicas = 3 },
		func(int) kinetic.MediaModel { return slowHDD() })
	ctx := context.Background()
	sess := h.ctl.Session("writer")

	const clients, rounds = 32, 8
	var wg sync.WaitGroup
	var failed atomic.Int64
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				key := fmt.Sprintf("merge/%d", w)
				if _, err := sess.Put(ctx, key, []byte(fmt.Sprintf("v%d", r)), PutOptions{}); err != nil {
					failed.Add(1)
					t.Errorf("put %s round %d: %v", key, r, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if failed.Load() > 0 {
		t.Fatalf("%d writers failed", failed.Load())
	}

	total := uint64(clients * rounds * 3)
	var batches uint64
	for _, d := range h.drives {
		batches += d.Stats().Batches.Load()
	}
	// Under go test -race -count=5 on 2 cores the drives saw 107–113
	// batches, and up to 122 beside another package's race tests
	// (102–110 without -race); merging nothing would be 768. A quarter
	// of the replica writes leaves 57 % over the worst of those.
	if limit := total / 4; batches > limit {
		t.Errorf("drives saw %d batches for %d replica writes, want at most %d; the queues merged too little", batches, total, limit)
	}
	st := h.ctl.Stats().Snapshot()
	if st.GroupedWrites == 0 {
		t.Errorf("GroupedWrites = 0; no write shared a merged batch")
	}
	t.Logf("replicaWrites=%d driveBatches=%d groupBatches=%d groupedWrites=%d",
		total, batches, st.GroupBatches, st.GroupedWrites)

	// Every writer's final value must be intact (no cross-group
	// contamination inside merged batches).
	for w := 0; w < clients; w++ {
		val, _, err := sess.Get(ctx, fmt.Sprintf("merge/%d", w), GetOptions{})
		if err != nil {
			t.Fatalf("readback merge/%d: %v", w, err)
		}
		if string(val) != fmt.Sprintf("v%d", rounds-1) {
			t.Errorf("merge/%d = %q, want %q", w, val, fmt.Sprintf("v%d", rounds-1))
		}
	}
}

// TestGroupCommitShipsReplicasTogether: one client's put to three
// replicas on idle drives pays one media wait, not two — each replica's
// group ships as soon as its own drive is free, whichever replica
// enqueued first — and every drive sees one batch per put.
func TestGroupCommitShipsReplicasTogether(t *testing.T) {
	const d, puts = 40 * time.Millisecond, 8
	h := newHarness(t, 3, func(cfg *Config) { cfg.Replicas = 3 })
	ctx := context.Background()
	sess := h.ctl.Session("writer")
	// Create the key first: a new key's head is an absence read, and
	// the puts below should plan against a cached head.
	if _, err := sess.Put(ctx, "together", []byte("v"), PutOptions{}); err != nil {
		t.Fatal(err)
	}
	slowDrives(h, d)
	before := make([]uint64, len(h.drives))
	for i, drv := range h.drives {
		before[i] = drv.Stats().Batches.Load()
	}
	for i := 0; i < puts; i++ {
		start := time.Now()
		if _, err := sess.Put(ctx, "together", []byte(fmt.Sprintf("v%d", i)), PutOptions{}); err != nil {
			t.Fatal(err)
		}
		// A put whose replicas ship in two or more steps pays at least
		// two media waits; one that ships together pays one plus the
		// scheduler's noise, which a loaded race run stretches past d/2.
		if took := time.Since(start); took >= 2*d {
			t.Errorf("put %d took %v on drives whose media wait is %v; its replicas did not ship together", i, took, d)
		}
	}
	for i, drv := range h.drives {
		if got := drv.Stats().Batches.Load() - before[i]; got != puts {
			t.Errorf("drive %d saw %d batches for %d puts, want one each", i, got, puts)
		}
	}
}

// TestGroupCommitSlowDriveDelaysOnlyItself: a batch a slow drive is
// serving holds that drive's queue and nothing else — a group for
// another drive ships at once — while a write placed on the slow drive
// still waits for it, since replication is write-through.
func TestGroupCommitSlowDriveDelaysOnlyItself(t *testing.T) {
	const slow = time.Second
	h := newHarness(t, 2, func(cfg *Config) { cfg.Replicas = 2 })
	ctx := context.Background()
	sess := h.ctl.Session("writer")
	if _, err := sess.Put(ctx, "both", []byte("v0"), PutOptions{}); err != nil {
		t.Fatal(err)
	}
	h.drives[0].SetFaults(kinetic.Faults{ExtraDelay: slow})
	served := h.drives[0].Stats().Batches.Load()

	// A put to both drives, so drive 0 serves one slow batch.
	putTook := make(chan time.Duration, 1)
	go func() {
		start := time.Now()
		if _, err := sess.Put(ctx, "both", []byte("v1"), PutOptions{}); err != nil {
			t.Error(err)
		}
		putTook <- time.Since(start)
	}()
	for h.drives[0].Stats().Batches.Load() == served {
		time.Sleep(time.Millisecond)
	}

	start := time.Now()
	if err := h.ctl.gcommit.enqueue(ctx, 1, []wire.BatchOp{
		{Op: wire.BatchPut, Key: []byte("other"), Value: []byte("v"), Force: true, NewVersion: encodeVer(0)},
	}, 1); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took >= 100*time.Millisecond {
		t.Errorf("a batch to drive 1 took %v while drive 0 served a %v batch", took, slow)
	}
	if took := <-putTook; took < slow {
		t.Errorf("a put placed on the slow drive returned after %v, before its %v batch", took, slow)
	}
}

// TestGroupCommitCASStorm is the write/write conflict contract at the
// drive: 32 concurrent groups CAS-updating one hot key yield exactly
// one winner per round and the losers see ErrVersionMismatch, while
// each round's unrelated keys — merged into the very same drive
// batches — commit untouched. This drives the committer directly
// (gcommit.enqueue), below the controller's commits locks, which is the
// only place same-key groups can actually race.
func TestGroupCommitCASStorm(t *testing.T) {
	h := newHarness(t, 1, nil)
	ctx := context.Background()
	ver := func(v int64) []byte {
		if v < 0 {
			return nil
		}
		return encodeVer(v)
	}

	const stormers, rounds = 32, 6
	// Create the hot key at version 0.
	err := h.ctl.gcommit.enqueue(ctx, 0, []wire.BatchOp{
		{Op: wire.BatchPut, Key: []byte("hot"), Value: []byte("seed"), NewVersion: ver(0)},
	}, 4)
	if err != nil {
		t.Fatalf("seed: %v", err)
	}

	for r := 0; r < rounds; r++ {
		var wg sync.WaitGroup
		var wins, losses, other atomic.Int64
		for s := 0; s < stormers; s++ {
			wg.Add(1)
			go func(s int) {
				defer wg.Done()
				// The contended CAS group.
				casErr := h.ctl.gcommit.enqueue(ctx, 0, []wire.BatchOp{
					{Op: wire.BatchPut, Key: []byte("hot"),
						Value:     []byte(fmt.Sprintf("r%d-s%d", r, s)),
						DBVersion: ver(int64(r)), NewVersion: ver(int64(r + 1))},
				}, 8)
				switch {
				case casErr == nil:
					wins.Add(1)
				case errors.Is(casErr, kclient.ErrVersionMismatch):
					losses.Add(1)
				default:
					other.Add(1)
					t.Errorf("round %d stormer %d: unexpected error %v", r, s, casErr)
				}
				// An unrelated key riding the same queue (and very
				// likely the same merged batches) must never share the
				// CAS group's fate.
				bys := []byte(fmt.Sprintf("ok-r%d-s%d", r, s))
				if err := h.ctl.gcommit.enqueue(ctx, 0, []wire.BatchOp{
					{Op: wire.BatchPut, Key: bys, Value: bys, Force: true, NewVersion: ver(1)},
				}, len(bys)); err != nil {
					t.Errorf("round %d stormer %d: unrelated key failed: %v", r, s, err)
				}
			}(s)
		}
		wg.Wait()
		if wins.Load() != 1 || losses.Load() != int64(stormers-1) {
			t.Fatalf("round %d: %d winners, %d losers, %d other; want 1/%d/0",
				r, wins.Load(), losses.Load(), other.Load(), stormers-1)
		}
	}

	// The hot key advanced exactly once per round.
	cl := driveConn(t, h.ctl, 0)
	_, gotVer, err := cl.Get(ctx, []byte("hot"))
	if err != nil {
		t.Fatalf("read hot: %v", err)
	}
	if want := encodeVer(rounds); string(gotVer) != string(want) {
		t.Fatalf("hot at version %x, want %x", gotVer, want)
	}
	// Every unrelated key from every round committed.
	for r := 0; r < rounds; r++ {
		for s := 0; s < stormers; s++ {
			k := fmt.Sprintf("ok-r%d-s%d", r, s)
			if _, _, err := cl.Get(ctx, []byte(k)); err != nil {
				t.Fatalf("unrelated key %s lost: %v", k, err)
			}
		}
	}
	if st := h.ctl.Stats().Snapshot(); st.GroupedWrites == 0 {
		t.Errorf("storm never shared a merged batch; the test exercised nothing")
	}
}

// TestGroupCommitFreezeDrain: group commit composes with shard
// handoff. A FreezeRange during a loaded concurrent run must drain
// the in-flight groups and return (no wedged queue), writes to the
// frozen range must block and then — once the range is released —
// fail with ErrWrongShard, while writes to other ranges keep
// committing throughout.
func TestGroupCommitFreezeDrain(t *testing.T) {
	full := HashRange{Start: 0, End: store.ShardSpace}
	h := newHarness(t, 1, func(cfg *Config) {
		cfg.Shard = &ShardInfo{ID: 0, Epoch: 1, Ranges: []HashRange{full}}
	}, func(int) kinetic.MediaModel { return slowHDD() })
	ctx := context.Background()
	sess := h.ctl.Session("writer")

	// Split the space in half and sort keys into the halves.
	frozen := HashRange{Start: 0, End: store.ShardSpace / 2}
	var frozenKeys, liveKeys []string
	for i := 0; len(frozenKeys) < 4 || len(liveKeys) < 4; i++ {
		k := fmt.Sprintf("fz/%d", i)
		if frozen.Contains(store.ShardHash(k)) {
			frozenKeys = append(frozenKeys, k)
		} else {
			liveKeys = append(liveKeys, k)
		}
	}

	// Background load on both halves.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var liveOK atomic.Int64
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				k := liveKeys[(w+i)%4]
				if _, err := sess.Put(ctx, k, []byte("live"), PutOptions{}); err == nil {
					liveOK.Add(1)
				}
				k = frozenKeys[(w+i)%4]
				wctx, cancel := context.WithTimeout(ctx, 50*time.Millisecond)
				_, _ = sess.Put(wctx, k, []byte("cold"), PutOptions{})
				cancel()
			}
		}(w)
	}
	time.Sleep(20 * time.Millisecond) // let the load build up

	// The drain: FreezeRange must return despite the loaded committer
	// queue. Guard with a timeout so a deadlock fails fast.
	frozeCh := make(chan error, 1)
	go func() { frozeCh <- h.ctl.FreezeRange(frozen) }()
	select {
	case err := <-frozeCh:
		if err != nil {
			t.Fatalf("freeze: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("FreezeRange deadlocked against the group-commit queue")
	}

	// While frozen: the other half keeps committing.
	before := liveOK.Load()
	deadline := time.Now().Add(2 * time.Second)
	for liveOK.Load() == before && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if liveOK.Load() == before {
		t.Fatal("no live-range write committed while the other range was frozen")
	}
	// And frozen-range writes block rather than fail.
	wctx, cancel := context.WithTimeout(ctx, 100*time.Millisecond)
	_, err := sess.Put(wctx, frozenKeys[0], []byte("blocked"), PutOptions{})
	cancel()
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("frozen-range write: %v, want blocked (deadline exceeded)", err)
	}

	// Release the range (handoff completes elsewhere): blocked and new
	// writers must wake into the retriable redirect.
	if err := h.ctl.ReleaseRange(ctx, 2, frozen, &Manifest{Range: frozen}); err != nil {
		t.Fatalf("release: %v", err)
	}
	if _, err := sess.Put(ctx, frozenKeys[0], []byte("gone"), PutOptions{}); !errors.Is(err, ErrWrongShard) {
		t.Fatalf("released-range write: %v, want ErrWrongShard", err)
	}
	before = liveOK.Load()
	deadline = time.Now().Add(2 * time.Second)
	for liveOK.Load() == before && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if liveOK.Load() == before {
		t.Fatal("live range stopped committing after the release")
	}
	close(stop)
	wg.Wait()
}

// TestGroupCommitClose: shutting the controller down under concurrent
// writers neither hangs nor panics; stragglers get ErrClosed (or a
// connection error when their batch was in flight).
func TestGroupCommitClose(t *testing.T) {
	h := newHarness(t, 1, nil, func(int) kinetic.MediaModel { return slowHDD() })
	ctx := context.Background()
	sess := h.ctl.Session("writer")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if _, err := sess.Put(ctx, fmt.Sprintf("cl/%d/%d", w, i), []byte("v"), PutOptions{}); err != nil {
					return // shutdown raced the write; any error is fine
				}
			}
		}(w)
	}
	time.Sleep(10 * time.Millisecond)
	if err := h.ctl.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("writers hung across controller shutdown")
	}
}
