package core

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/policy"
	"repro/internal/store"
	"repro/internal/usecases"
)

// TestPartialEvalMatchesInterpreter pins the end-to-end verdicts of a
// guarded workload through the controller: the expected outcomes are
// the reference interpreter's (the differential fuzz in
// internal/policy holds the residual evaluator to it).
func TestPartialEvalMatchesInterpreter(t *testing.T) {
	ctx := context.Background()
	h := newHarness(t, 1, nil)
	alice := h.ctl.Session("a11ce")
	bob := h.ctl.Session("0b")
	eve := h.ctl.Session("e4e")
	pid, err := h.ctl.PutPolicy(ctx,
		"read :- sessionKeyIs(k'a11ce') or sessionKeyIs(k'0b')\n"+
			"update :- sessionKeyIs(k'a11ce') and currVersion(this, V) and nextVersion(V + 1)")
	if err != nil {
		t.Fatal(err)
	}
	put := func(s *Session, opts PutOptions) func() error {
		return func() error { _, err := s.Put(ctx, "k", []byte("v"), opts); return err }
	}
	get := func(s *Session) func() error {
		return func() error { _, _, err := s.Get(ctx, "k", GetOptions{}); return err }
	}
	steps := []struct {
		name   string
		do     func() error
		denied bool
	}{
		{"create (no policy governs creation)", put(alice, PutOptions{PolicyID: pid}), false},
		{"owner update to the next version", put(alice, PutOptions{}), false},
		{"reader update", put(bob, PutOptions{}), true},
		{"owner read", get(alice), false},
		{"reader read", get(bob), false},
		{"stranger read", get(eve), true},
		{"stranger update", put(eve, PutOptions{}), true},
	}
	for _, st := range steps {
		err := st.do()
		if st.denied && !errors.Is(err, ErrDenied) {
			t.Errorf("%s: got %v, want a policy denial", st.name, err)
		}
		if !st.denied && err != nil {
			t.Errorf("%s: got %v, want success", st.name, err)
		}
	}
}

// TestPutPolicyClearsResiduals pins the invalidation fix: replacing the
// policy root must drop cached residual programs, not only cached
// verdicts — a stale residual would keep enforcing the old clauses for
// the rest of the session.
func TestPutPolicyClearsResiduals(t *testing.T) {
	h := newHarness(t, 1, nil)
	ctx := context.Background()
	s := h.ctl.Session("a11ce")
	pid, err := h.ctl.PutPolicy(ctx, "read :- sessionKeyIs(U) and currVersion(this, V)\nupdate :- sessionKeyIs(U)")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put(ctx, "k", []byte("v"), PutOptions{PolicyID: pid}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Get(ctx, "k", GetOptions{}); err != nil {
		t.Fatal(err)
	}
	if h.ctl.residualCache.Len() == 0 {
		t.Fatal("read did not populate the residual cache")
	}
	if _, err := h.ctl.PutPolicy(ctx, "read :- eq(1, 2)\nupdate :- sessionKeyIs(U)"); err != nil {
		t.Fatal(err)
	}
	if n := h.ctl.residualCache.Len(); n != 0 {
		t.Fatalf("residual cache holds %d entries after PutPolicy, want 0", n)
	}
}

// TestReplacePolicyMidSessionRace swaps an object's policy while
// concurrent readers hold page-level policyEval contexts. Run under
// -race this exercises the residual resolution chain; the assertion is
// that decisions always follow the policy recorded in the object's
// metadata — content-addressed ids make a stale residual unreachable.
func TestReplacePolicyMidSessionRace(t *testing.T) {
	h := newHarness(t, 1, nil)
	ctx := context.Background()
	owner := h.ctl.Session("a11ce")
	outsider := h.ctl.Session("0b")

	openPol, err := h.ctl.PutPolicy(ctx, "read :- sessionKeyIs(U)\nupdate :- sessionKeyIs(k'a11ce')")
	if err != nil {
		t.Fatal(err)
	}
	closedPol, err := h.ctl.PutPolicy(ctx, "read :- sessionKeyIs(k'a11ce')\nupdate :- sessionKeyIs(k'a11ce')")
	if err != nil {
		t.Fatal(err)
	}
	const nKeys = 8
	for i := 0; i < nKeys; i++ {
		if _, err := owner.Put(ctx, fmt.Sprintf("r/%d", i), []byte("v"), PutOptions{PolicyID: openPol}); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				_, _, err := outsider.Get(ctx, fmt.Sprintf("r/%d", i%nKeys), GetOptions{})
				if err != nil && !errors.Is(err, ErrDenied) {
					t.Errorf("outsider read: %v", err)
					return
				}
			}
		}()
	}
	// Flip every key to the closed policy while the readers run.
	for i := 0; i < nKeys; i++ {
		if _, err := owner.Put(ctx, fmt.Sprintf("r/%d", i), []byte("v2"), PutOptions{PolicyID: closedPol}); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()

	// Steady state after the swap: the outsider must be denied on every
	// key, even though residuals for the open policy were cached for
	// this very session.
	for i := 0; i < nKeys; i++ {
		if _, _, err := outsider.Get(ctx, fmt.Sprintf("r/%d", i), GetOptions{}); !errors.Is(err, ErrDenied) {
			t.Fatalf("key r/%d readable after policy swap: %v", i, err)
		}
	}
	if _, _, err := owner.Get(ctx, "r/0", GetOptions{}); err != nil {
		t.Fatalf("owner read after swap: %v", err)
	}
}

// TestPolicyCountersExported checks the new stats surface: evaluation,
// residual-reuse, and index-skip counters move under a policy-filtered
// scan workload.
func TestPolicyCountersExported(t *testing.T) {
	h := newHarness(t, 1, nil)
	ctx := context.Background()
	s := h.ctl.Session("a11ce")
	// Session-guarded clauses ahead of an open versioned clause: the
	// distractors are killed by partial eval, and the surviving clause
	// needs the drive (currVersion), so every check runs a residual.
	pid, err := h.ctl.PutPolicy(ctx,
		"read :- sessionKeyIs(k'aa') or sessionKeyIs(k'bb') or sessionKeyIs(U) and currVersion(this, V) and ge(V, 0)\n"+
			"update :- sessionKeyIs(U)")
	if err != nil {
		t.Fatal(err)
	}
	const n = 6
	for i := 0; i < n; i++ {
		if _, err := s.Put(ctx, fmt.Sprintf("c/%d", i), []byte("v"), PutOptions{PolicyID: pid}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Scan(ctx, ScanOptions{Prefix: "c/", Limit: n}); err != nil {
		t.Fatal(err)
	}
	st := h.ctl.stats.Snapshot()
	if st.PolicyEvals == 0 {
		t.Fatal("PolicyEvals did not move")
	}
	if st.ResidualHits == 0 {
		t.Fatal("ResidualHits did not move: scan page should reuse one residual across keys")
	}
	if st.IndexSkippedClauses == 0 {
		t.Fatal("IndexSkippedClauses did not move: partial eval kills the distractor clauses")
	}
}

// TestResolvePolicyHashIsItsID: the policy hash a put's new head carries
// is read off the policy id, not recomputed from the program, so for
// every use-case policy the id must spell sha256 of the marshalled
// program; and a put naming a cached policy — by request or by its head
// — resolves it without allocating.
func TestResolvePolicyHashIsItsID(t *testing.T) {
	ctx := context.Background()
	h := newHarness(t, 1, nil)
	fp := strings.Repeat("ab", 32)
	srcs := map[string]string{
		"content-server": usecases.ContentServer([]string{fp, fp}, []string{fp}, []string{fp}),
		"time-capsule":   usecases.TimeCapsule(fp, 1750000000, 300, fp),
		"storage-lease":  usecases.StorageLease(fp, 1750000000, 300),
		"versioned":      usecases.Versioned(),
		"versioned-own":  usecases.VersionedOwned(fp),
		"mal":            usecases.MAL(),
	}
	for name, src := range srcs {
		prog, err := policy.CompileSource(src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		blob, err := prog.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		id, err := h.ctl.PutPolicy(ctx, src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		head := &store.Meta{Key: "k", PolicyID: id}
		for _, c := range []struct {
			how       string
			head      *store.Meta
			requested string
		}{{"requested", nil, id}, {"kept", head, ""}} {
			gotID, hash, err := h.ctl.resolvePolicy(ctx, c.head, c.requested)
			if err != nil || gotID != id || hash != sha256.Sum256(blob) {
				t.Errorf("%s, %s: id %q, hash %x, %v; want %q and sha256 of the program", name, c.how, gotID, hash, err, id)
			}
			if n := testing.AllocsPerRun(50, func() { _, _, _ = h.ctl.resolvePolicy(ctx, c.head, c.requested) }); n != 0 {
				t.Errorf("%s, %s: %v allocations to resolve a cached policy, want 0", name, c.how, n)
			}
		}
	}
}
