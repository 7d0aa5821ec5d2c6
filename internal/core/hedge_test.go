package core

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"errors"

	"repro/internal/kinetic"
	"repro/internal/store"
)

// driveGets sums the Gets counter across all drives.
func driveGets(drives []*kinetic.Drive) uint64 {
	var n uint64
	for _, d := range drives {
		n += d.Stats().Gets.Load()
	}
	return n
}

// TestHedgedReadsReduceMediaOccupancy is the acceptance pin for the
// hedged read engine: on a read-heavy, cache-hostile workload a read
// occupies about one replica's media however many replicas hold the
// object — not all of them, as asking every replica would — without
// losing a single read. With a single replica there is nothing to
// hedge to: the read goes straight to the drive, fires no hedge, and
// still feeds the drive's latency estimator.
func TestHedgedReadsReduceMediaOccupancy(t *testing.T) {
	const (
		nKeys = 20
		reads = 100
	)
	for _, replicas := range []int{3, 1} {
		h := newHarness(t, 3, func(c *Config) {
			c.Replicas = replicas
			// Far above the in-memory RTT: hedges never fire, so the
			// measurement isolates engine occupancy, not hedge noise.
			c.hedgeDelay = 50 * time.Millisecond
		})
		s := h.ctl.Session("w")
		ctx := context.Background()
		for i := 0; i < nKeys; i++ {
			if _, err := s.Put(ctx, fmt.Sprintf("k%d", i), []byte("v"), PutOptions{}); err != nil {
				t.Fatal(err)
			}
		}
		before := driveGets(h.drives)
		for i := 0; i < reads; i++ {
			h.ctl.DropCaches() // cache-hostile: every read misses
			val, _, err := s.Get(ctx, fmt.Sprintf("k%d", i%nKeys), GetOptions{})
			if err != nil || !bytes.Equal(val, []byte("v")) {
				t.Fatalf("read %d (replicas=%d): %q %v", i, replicas, val, err)
			}
		}
		// Drive GETs per client read. Each read is a meta and a record
		// fetch, so one replica's worth is 2; all three would be 6.
		occupancy := float64(driveGets(h.drives)-before) / reads
		t.Logf("replicas=%d: media occupancy %.2f drive GETs per read", replicas, occupancy)
		if occupancy < 2 || occupancy > 2.5 {
			t.Errorf("replicas=%d: occupancy %.2f drive GETs per read, want about 2 (one replica)", replicas, occupancy)
		}
		if replicas > 1 {
			continue
		}
		if n := h.ctl.stats.ReadHedges.Load(); n != 0 {
			t.Errorf("single-replica reads fired %d hedges", n)
		}
		var samples uint64
		for _, dl := range h.ctl.DriveLatencies() {
			samples += dl.Samples
		}
		if samples < 2*reads {
			t.Errorf("latency estimators got %d samples from %d single-replica reads, want >= %d",
				samples, reads, 2*reads)
		}
	}
}

// TestHedgeFiresOnSlowReplica: when the primary's media is degraded,
// the hedge fires after the configured delay and the read completes at
// the healthy replica's speed instead of the slow one's — the
// no-tail-regression half of the acceptance criterion.
func TestHedgeFiresOnSlowReplica(t *testing.T) {
	const key = "k"
	slow := store.Placement(key, 2, 2)[0] // the untrained engine tries this first
	const slowDelay = 40 * time.Millisecond
	h := newHarness(t, 2, func(c *Config) {
		c.Replicas = 2
		c.hedgeDelay = 2 * time.Millisecond
	}, func(i int) kinetic.MediaModel {
		if i == slow {
			return &kinetic.HDDMedia{Positioning: slowDelay, BytesPerSec: 150e6, TimeScale: 1}
		}
		return nil
	})
	s := h.ctl.Session("w")
	ctx := context.Background()
	if _, err := s.Put(ctx, key, []byte("v"), PutOptions{}); err != nil {
		t.Fatal(err)
	}

	h.ctl.DropCaches()
	t0 := time.Now()
	val, _, err := s.Get(ctx, key, GetOptions{})
	elapsed := time.Since(t0)
	if err != nil || !bytes.Equal(val, []byte("v")) {
		t.Fatalf("get: %q %v", val, err)
	}
	if hedges := h.ctl.stats.Snapshot().ReadHedges; hedges == 0 {
		t.Error("slow primary did not trigger a hedge")
	}
	if elapsed >= slowDelay {
		t.Errorf("read took %v, gated on the slow replica (%v); hedge did not cover the tail", elapsed, slowDelay)
	}

	// The engine learns: the outlived slow primary was charged its
	// elapsed time, so subsequent reads order the healthy replica
	// first and stop paying the hedge delay.
	h.ctl.DropCaches()
	if _, _, err := s.Get(ctx, key, GetOptions{}); err != nil {
		t.Fatal(err)
	}
	lats := h.ctl.DriveLatencies()
	if lats[slow].Samples == 0 {
		t.Error("slow replica accumulated no latency samples despite losing hedge races")
	}
	placement := store.Placement(key, 2, 2)
	if h.ctl.drives.FirstChoices()(placement) == slow {
		t.Errorf("slow replica still ordered first after losing races (latencies %+v)", lats)
	}
}

// TestHedgedDegradedReplicaDoesNotShadow: a replica that lost both the
// record and the metadata answers not-found first (it is fastest);
// the hedged engine must still consult the healthy replica rather
// than affirming absence.
func TestHedgedDegradedReplicaDoesNotShadow(t *testing.T) {
	const key = "k"
	h := newKillableHarness(t, 2, func(c *Config) {
		c.Replicas = 2
		c.hedgeDelay = 5 * time.Millisecond
	})
	s := h.ctl.Session("w")
	ctx := context.Background()
	if _, err := s.Put(ctx, key, []byte("v"), PutOptions{}); err != nil {
		t.Fatal(err)
	}
	// Degrade the primary: delete its metadata and object record.
	victim := store.Placement(key, 2, 2)[0]
	h.deleteRaw(t, victim, store.MetaKey(key))
	h.deleteRaw(t, victim, store.ObjectKey(key, 0))

	h.ctl.DropCaches()
	val, _, err := s.Get(ctx, key, GetOptions{})
	if err != nil || !bytes.Equal(val, []byte("v")) {
		t.Fatalf("degraded replica shadowed the healthy copy: %q %v", val, err)
	}
}

// TestListVersionsWithheldRecordDoesNotHideVersion: the replica asked
// first has lost one version record (or withholds it); the listing is
// the union of the replicas' records, so that version is still listed.
func TestListVersionsWithheldRecordDoesNotHideVersion(t *testing.T) {
	r := newTamperRig(t, 3, true, func(c *Config) { c.Replicas = 3 })
	for i := 0; i < 3; i++ {
		if _, err := r.s.Put(r.ctx, "hist", []byte(fmt.Sprintf("v%d", i)), PutOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	placement := r.h.ctl.placement("hist")
	liar := placement[0]
	if err := driveConn(t, r.h.ctl, liar).Delete(r.ctx, store.ObjectKey("hist", 1), nil, true); err != nil {
		t.Fatal(err)
	}
	r.askFirst(liar, placement)
	vers, err := r.s.ListVersions(r.ctx, "hist", nil)
	if err != nil || fmt.Sprint(vers) != "[0 1 2]" {
		t.Fatalf("versions with v1 withheld by the replica asked first: %v, %v", vers, err)
	}
}

// TestHedgedMixedNotFoundErrorSurfacesError: one replica lost the
// record (not-found), the other is unreachable (error). Absence is
// not unanimous, so the read must surface the error, never not-found.
func TestHedgedMixedNotFoundErrorSurfacesError(t *testing.T) {
	const key = "k"
	h := newKillableHarness(t, 2, func(c *Config) {
		c.Replicas = 2
		c.hedgeDelay = time.Millisecond
	})
	s := h.ctl.Session("w")
	ctx := context.Background()
	if _, err := s.Put(ctx, key, []byte("v"), PutOptions{}); err != nil {
		t.Fatal(err)
	}
	degraded := store.Placement(key, 2, 2)[0]
	dead := store.Placement(key, 2, 2)[1]
	h.deleteRaw(t, degraded, store.MetaKey(key))
	h.deleteRaw(t, degraded, store.ObjectKey(key, 0))
	h.kill(dead)

	h.ctl.DropCaches()
	_, _, err := s.Get(ctx, key, GetOptions{})
	if err == nil {
		t.Fatal("read succeeded with one degraded and one dead replica")
	}
	if errors.Is(err, ErrNotFound) {
		t.Fatalf("mixed not-found/error affirmed absence: %v", err)
	}
}

// TestHedgedReadsFullWorkload runs a mixed read/write/delete workload
// under the hedged engine with replica failover mid-run — the
// "existing semantics hold under hedging" sweep.
func TestHedgedReadsFullWorkload(t *testing.T) {
	h := newKillableHarness(t, 3, func(c *Config) { c.Replicas = 3 })
	s := h.ctl.Session("w")
	ctx := context.Background()
	for i := 0; i < 10; i++ {
		k := fmt.Sprintf("k%d", i)
		if _, err := s.Put(ctx, k, []byte("v0"), PutOptions{}); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Put(ctx, k, []byte("v1"), PutOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	// Kill a non-primary replica: reads keep working off the rest.
	h.kill(1)
	h.ctl.DropCaches()
	for i := 0; i < 10; i++ {
		val, meta, err := s.Get(ctx, fmt.Sprintf("k%d", i), GetOptions{})
		if err != nil || !bytes.Equal(val, []byte("v1")) || meta.Version != 1 {
			t.Fatalf("get k%d with dead replica: %q v%v %v", i, val, meta, err)
		}
	}
	// Historic versions and version listings also fail over.
	h.ctl.DropCaches()
	if vs, err := s.ListVersions(ctx, "k0", nil); err != nil || len(vs) != 2 {
		t.Fatalf("list versions with dead replica: %v %v", vs, err)
	}
	val, _, err := s.Get(ctx, "k0", GetOptions{Version: 0, HasVersion: true})
	if err != nil || !bytes.Equal(val, []byte("v0")) {
		t.Fatalf("historic get with dead replica: %q %v", val, err)
	}
	// Revive and repair: convergence is unchanged under hedging.
	h.revive(1)
	if _, err := s.Repair(ctx, "k0"); err != nil {
		t.Fatalf("repair under hedged reads: %v", err)
	}
}

// TestDeadReplicaLosesPrimarySlot: a drive that only ever fails never
// completes a round trip, so latency samples alone could never demote
// it; the failure counter must push it out of the primary slot so
// healthy replicas stop paying the hedge delay on every read.
func TestDeadReplicaLosesPrimarySlot(t *testing.T) {
	const key = "k"
	h := newKillableHarness(t, 2, func(c *Config) {
		c.Replicas = 2
		c.hedgeDelay = time.Millisecond
	})
	s := h.ctl.Session("w")
	ctx := context.Background()
	if _, err := s.Put(ctx, key, []byte("v"), PutOptions{}); err != nil {
		t.Fatal(err)
	}
	dead := store.Placement(key, 2, 2)[0]
	h.kill(dead)
	// Pin the dead drive into the primary slot: feed it artificially
	// fast samples so EWMA ordering alone would keep trying it first.
	// Enough of them to bury its one real sample (the Put's metadata
	// probe) whatever that measured: 0.8^64 of a slow first round trip
	// is still far below the healthy replica's estimate, where 0.8^8 of
	// one six times slower than the healthy replica's was not, and the
	// dead drive was then never tried at all.
	for i := 0; i < 64; i++ {
		h.ctl.drives.Observe(dead, time.Nanosecond)
	}

	// Cold reads against the dead primary: each must still succeed off
	// the healthy replica, and the transport failures must mark the
	// drive as failing.
	for i := 0; i < 3; i++ {
		h.ctl.DropCaches()
		val, _, err := s.Get(ctx, key, GetOptions{})
		if err != nil || !bytes.Equal(val, []byte("v")) {
			t.Fatalf("read %d with dead primary: %q %v", i, val, err)
		}
	}
	if !h.ctl.drives.Failing(dead) {
		t.Fatal("dead drive not marked failing after transport errors")
	}
	placement := store.Placement(key, 2, 2)
	if h.ctl.drives.FirstChoices()(placement) == dead {
		t.Error("dead drive kept the primary slot; every read pays the hedge delay")
	}
	// Demotion is preference, not exclusion: revive the drive, fail the
	// other replica, and the demoted drive still serves the read — its
	// first success clears the failing mark.
	h.revive(dead)
	h.kill(placement[1])
	h.ctl.DropCaches()
	val, _, err := s.Get(ctx, key, GetOptions{})
	if err != nil || !bytes.Equal(val, []byte("v")) {
		t.Fatalf("read off the revived replica: %q %v", val, err)
	}
	if h.ctl.drives.Failing(dead) {
		t.Error("revived drive still marked failing after a successful read")
	}
}

// TestCoalescedMissesOneDriveRead: N concurrent cache misses on one
// hot key cost one drive round trip per record kind, not N.
func TestCoalescedMissesOneDriveRead(t *testing.T) {
	h := newHarness(t, 1, nil)
	s := h.ctl.Session("w")
	ctx := context.Background()
	if _, err := s.Put(ctx, "hot", bytes.Repeat([]byte("x"), 512), PutOptions{}); err != nil {
		t.Fatal(err)
	}
	h.ctl.DropCaches()
	before := driveGets(h.drives)
	// An in-memory drive answers in microseconds: on a loaded box the
	// first reader could finish, and fill the caches, before the second
	// was scheduled, and nothing would coalesce. A slow medium holds
	// the first flight open until every reader has joined it.
	h.drives[0].SetFaults(kinetic.Faults{ExtraDelay: 20 * time.Millisecond})

	const n = 32
	var wg sync.WaitGroup
	var fails atomic.Int32
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, _, err := s.Get(ctx, "hot", GetOptions{}); err != nil {
				fails.Add(1)
			}
		}()
	}
	wg.Wait()
	if fails.Load() != 0 {
		t.Fatalf("%d concurrent reads failed", fails.Load())
	}
	delta := driveGets(h.drives) - before
	// One meta read + one record read, plus a little slack for a
	// latecomer that starts a fresh flight after the first resolved.
	if delta > 6 {
		t.Errorf("%d concurrent misses cost %d drive reads, want coalescing to ~2", n, delta)
	}
	if h.ctl.stats.Snapshot().CoalescedReads == 0 {
		t.Error("no reads were coalesced")
	}
}

// TestSessionStaticPolicyDecidedAtBind: a policy whose verdict depends
// only on the session key is decided when the session's residual is
// bound — repeat checks reuse the decided residual and never run the
// clause machine, for grants and denials alike — while a policy that
// reads object state still evaluates on every request.
func TestSessionStaticPolicyDecidedAtBind(t *testing.T) {
	h := newHarness(t, 1, nil)
	ctx := context.Background()
	alice, mallory := h.ctl.Session("aa"), h.ctl.Session("bb")

	pid, err := h.ctl.PutPolicy(ctx, "read :- sessionKeyIs(k'aa')\nupdate :- sessionKeyIs(k'aa')")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := alice.Put(ctx, "o", []byte("v"), PutOptions{PolicyID: pid}); err != nil {
		t.Fatal(err)
	}

	const reads = 10
	st0 := h.ctl.stats.Snapshot()
	for i := 0; i < reads; i++ {
		if _, _, err := alice.Get(ctx, "o", GetOptions{}); err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
	}
	// Denials are decided at bind time too, with the reason preserved.
	const denials = 3
	for i := 0; i < denials; i++ {
		_, _, err := mallory.Get(ctx, "o", GetOptions{})
		var denied *DeniedError
		if !errors.As(err, &denied) || denied.Reason == "" {
			t.Fatalf("denial %d: %v", i, err)
		}
	}
	st := h.ctl.stats.Snapshot()
	if got := st.PolicyChecks - st0.PolicyChecks; got != reads+denials {
		t.Errorf("policy checks %d, want %d", got, reads+denials)
	}
	if got := st.PolicyEvals - st0.PolicyEvals; got != 0 {
		t.Errorf("session-static policy ran the clause machine %d times, want 0", got)
	}
	// One bind per session; every later check reuses it.
	if got := st.ResidualHits - st0.ResidualHits; got != reads+denials-2 {
		t.Errorf("residual hits %d, want %d", got, reads+denials-2)
	}
	if got := st.PolicyDenials - st0.PolicyDenials; got != denials {
		t.Errorf("policy denials %d, want %d", got, denials)
	}

	// A version-dependent policy cannot be decided at bind time: every
	// update evaluates its residual against the object's state.
	vpid, err := h.ctl.PutPolicy(ctx, "read :- sessionKeyIs(U)\nupdate :- currVersion(this, V) and nextVersion(V + 1)")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := alice.Put(ctx, "ver", []byte("v"), PutOptions{PolicyID: vpid}); err != nil {
		t.Fatal(err)
	}
	evals0 := h.ctl.stats.Snapshot().PolicyEvals
	const updates = 3
	for want := int64(1); want <= updates; want++ {
		if _, err := alice.Put(ctx, "ver", []byte("v"), PutOptions{Version: want, HasVersion: true}); err != nil {
			t.Fatalf("versioned put %d: %v", want, err)
		}
	}
	if got := h.ctl.stats.Snapshot().PolicyEvals - evals0; got != updates {
		t.Errorf("version-dependent policy evaluated %d times over %d updates", got, updates)
	}
	// Out of sequence is still denied, after three grants.
	if _, err := alice.Put(ctx, "ver", []byte("v"), PutOptions{Version: 9, HasVersion: true}); err == nil {
		t.Error("out-of-sequence versioned put succeeded")
	}
}

// TestDrivePoolConcurrentChurn hammers one drive pool from many
// goroutines while its network endpoint is killed and revived: no
// deadlocks, no lost pool state, and full recovery afterwards.
func TestDrivePoolConcurrentChurn(t *testing.T) {
	h := newKillableHarness(t, 1, nil)
	s := h.ctl.Session("w")
	ctx := context.Background()
	if _, err := s.Put(ctx, "k", []byte("v"), PutOptions{}); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				h.ctl.DropCaches()
				cctx, cancel := context.WithTimeout(ctx, 200*time.Millisecond)
				s.Get(cctx, "k", GetOptions{}) // errors expected mid-churn
				cancel()
			}
		}()
	}
	for i := 0; i < 15; i++ {
		h.kill(0)
		time.Sleep(time.Millisecond)
		h.revive(0)
		time.Sleep(2 * time.Millisecond)
	}
	close(stop)
	wg.Wait()

	// The pool must serve reads again once the drive is stable.
	h.ctl.DropCaches()
	deadline := time.Now().Add(5 * time.Second)
	for {
		val, _, err := s.Get(ctx, "k", GetOptions{})
		if err == nil && bytes.Equal(val, []byte("v")) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("pool did not recover after churn: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	// The latency estimator stayed coherent under the churn.
	for _, dl := range h.ctl.DriveLatencies() {
		if dl.Samples > 0 && (dl.EWMA <= 0 || dl.P95 < dl.EWMA) {
			t.Errorf("estimator incoherent after churn: %+v", dl)
		}
	}
}
