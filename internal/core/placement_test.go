package core

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/store"
)

// TestSubstituteDeadProperties fuzzes the slot-stable substitution
// that both replica placement and EC grouping build on: for random
// cluster sizes, window sizes and dead masks, the result must keep
// its length, never repeat a drive, avoid every dead drive while live
// spares remain, keep live base members in their exact slots, and be
// identical across calls for an unchanged mask.
func TestSubstituteDeadProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 2000; trial++ {
		n := 2 + rng.Intn(14)
		size := 1 + rng.Intn(n)
		primary := rng.Intn(n)
		// Kill a random subset, always leaving at least one drive.
		var mask uint64
		deadCount := rng.Intn(n)
		for _, di := range rng.Perm(n)[:deadCount] {
			mask |= 1 << uint(di)
		}

		base := substituteDead(primary, n, size, 0)
		out := substituteDead(primary, n, size, mask)
		if len(out) != size {
			t.Fatalf("n=%d size=%d mask=%b: len=%d", n, size, mask, len(out))
		}
		seen := map[int]bool{}
		for _, di := range out {
			if di < 0 || di >= n {
				t.Fatalf("n=%d size=%d mask=%b: drive %d out of range", n, size, mask, di)
			}
			if seen[di] {
				t.Fatalf("n=%d size=%d mask=%b: drive %d twice in %v", n, size, mask, di, out)
			}
			seen[di] = true
		}
		// Slot stability: live base members keep their slots.
		for s, di := range base {
			if mask&(1<<uint(di)) == 0 && out[s] != di {
				t.Fatalf("n=%d size=%d mask=%b: live slot %d moved %d -> %d", n, size, mask, s, di, out[s])
			}
		}
		// Dead drives appear only when no live spare was left to take
		// the slot (the degraded full-cluster case).
		live := n - deadCount
		for s, di := range out {
			if mask&(1<<uint(di)) != 0 && live >= size {
				t.Fatalf("n=%d size=%d mask=%b live=%d: slot %d still on dead drive %d (%v)",
					n, size, mask, live, s, di, out)
			}
		}
		// Determinism: the same mask re-derives the same layout.
		again := substituteDead(primary, n, size, mask)
		for s := range out {
			if again[s] != out[s] {
				t.Fatalf("n=%d size=%d mask=%b: unstable layout %v vs %v", n, size, mask, out, again)
			}
		}
	}
}

// TestListingCover: for every ring of up to 64 drives and every replica
// count, each placement window of 10 000 keys holds min(2, r) drives of
// the listing's cover, the cover is at most one drive over the bound
// ⌈min(2,r)·n/r⌉ no cover can beat, r ≤ 2 covers every drive, and the
// order lists every drive once.
func TestListingCover(t *testing.T) {
	keys := make([]string, 10000)
	for i := range keys {
		keys[i] = fmt.Sprintf("user%012d", i)
	}
	for n := 1; n <= 64; n++ {
		// A window is decided by its primary: one key per primary seen
		// stands for all keys sharing it.
		reps := make(map[int]string)
		for _, key := range keys {
			if p := store.Placement(key, n, 1)[0]; reps[p] == "" {
				reps[p] = key
			}
		}
		for r := 1; r <= n; r++ {
			order, size := listingCover(n, r)
			k := min(2, r)
			if bound := (k*n+r-1)/r + 1; size > bound || (r <= 2 && size != n) {
				t.Fatalf("n=%d r=%d: cover of %d drives, bound %d", n, r, size, bound)
			}
			if sorted := slices.Sorted(slices.Values(order)); len(order) != n || sorted[0] != 0 || sorted[n-1] != n-1 || len(slices.Compact(sorted)) != n {
				t.Fatalf("n=%d r=%d: order %v is not every drive once", n, r, order)
			}
			in := make(map[int]bool)
			for _, di := range order[:size] {
				in[di] = true
			}
			for _, key := range reps {
				held := 0
				for _, di := range store.Placement(key, n, r) {
					if in[di] {
						held++
					}
				}
				if held < k {
					t.Fatalf("n=%d r=%d: window %v of %q holds %d cover drives of %v, want %d",
						n, r, store.Placement(key, n, r), key, held, order[:size], k)
				}
			}
		}
	}
}

// TestListingCoverNeedsASweptRevival: a listing asks only the cover
// while no drive is dead and every revival — the detector's or
// MarkDriveLive's — is behind a sweeper pass that started after it and
// completed; a controller without a sweeper keeps the whole set.
func TestListingCoverNeedsASweptRevival(t *testing.T) {
	h := newHarness(t, 6, func(c *Config) { c.Replicas = 3; c.SweepKeysPerTick = 1 })
	ctx := context.Background()
	for _, key := range []string{"a", "b", "c"} {
		if _, err := h.ctl.Session("w").Put(ctx, key, []byte("v"), PutOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	cover := func() int { _, n := h.ctl.listingDrives(); return n }
	sweepTick := func() bool {
		rep, err := h.ctl.SweepTick(ctx)
		if err != nil {
			t.Fatal(err)
		}
		return rep.Wrapped
	}
	sweepPass := func() {
		for !sweepTick() {
		}
	}
	name := h.ctl.drives.Name(2)
	if got := cover(); got != 4 {
		t.Fatalf("healthy: cover of %d drives, want 4", got)
	}
	if sweepTick() {
		t.Fatal("a one-key tick over three keys finished its pass")
	}
	if err := h.ctl.MarkDriveDead(name); err != nil {
		t.Fatal(err)
	}
	if got := cover(); got != 0 {
		t.Fatalf("a drive dead: cover of %d, want the whole set", got)
	}
	if err := h.ctl.MarkDriveLive(name); err != nil {
		t.Fatal(err)
	}
	if got := cover(); got != 0 {
		t.Fatalf("revived, not swept: cover of %d, want the whole set", got)
	}
	sweepPass() // under way at the revival: does not count
	if got := cover(); got != 0 {
		t.Fatalf("revived during a pass: cover of %d after it, want the whole set", got)
	}
	sweepPass()
	if got := cover(); got != 4 {
		t.Fatalf("revived and swept: cover of %d, want 4", got)
	}
	// The detector's revive path: dead after deadAfter failed probes,
	// back after detectorReviveAfter answered ones.
	probes := []bool{true, true, false, true, true, true}
	for i := 0; i < h.ctl.detector.deadAfter; i++ {
		h.ctl.detector.record(probes)
	}
	if got := cover(); got != 0 {
		t.Fatalf("detected dead: cover of %d, want the whole set", got)
	}
	probes[2] = true
	for i := 0; i < detectorReviveAfter; i++ {
		h.ctl.detector.record(probes)
	}
	if got := cover(); got != 0 {
		t.Fatalf("detector revived, not swept: cover of %d, want the whole set", got)
	}
	sweepPass()
	if got := cover(); got != 4 {
		t.Fatalf("detector revived and swept: cover of %d, want 4", got)
	}
}

// TestECGroupPrefixesPlacement pins the structural relationship the
// EC design relies on: the replica placement drives are a prefix of
// the k+m group window, so stub and metadata records always live on
// group members.
func TestECGroupPrefixesPlacement(t *testing.T) {
	h := newHarness(t, 8, ecConfig)
	for _, key := range []string{"a", "b", "some/long/key", "zzz"} {
		placement := h.ctl.placement(key)
		group := h.ctl.ecGroup(key, 6)
		for i, di := range placement {
			if group[i] != di {
				t.Fatalf("key %q: placement %v is not a prefix of group %v", key, placement, group)
			}
		}
	}
}
