package core

import (
	"context"
	"crypto/rand"
	"encoding/base64"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/enclave/attest"
	"repro/internal/store"
)

// plantMeta overwrites one drive's copy of key's metadata record behind
// the controller's back: what a faulty or hostile replica would hold.
func plantMeta(t *testing.T, h *harness, di int, key string, raw []byte) {
	t.Helper()
	if err := h.drives[di].P2PPut(store.MetaKey(key), raw, nil); err != nil {
		t.Fatal(err)
	}
}

// driveMetaBytes reads one drive's copy of key's metadata record.
func driveMetaBytes(t *testing.T, h *harness, di int, key string) []byte {
	t.Helper()
	raw, err := driveConn(t, h.ctl, di).Range(context.Background(), store.MetaKey(key), store.MetaKey(key), true, false, 1, true)
	if err != nil || len(raw.Values) != 1 {
		t.Fatalf("drive %d copy of %q: %d records, %v", di, key, len(raw.Values), err)
	}
	return append([]byte(nil), raw.Values[0]...)
}

// collectPages drains a listing with the given page size, asserting
// per-page invariants, and returns every entry in order.
func collectPages(t *testing.T, s *Session, opts ScanOptions) []ScanEntry {
	t.Helper()
	ctx := context.Background()
	var all []ScanEntry
	for pages := 0; ; pages++ {
		if pages > 1000 {
			t.Fatal("scan does not terminate")
		}
		page, err := s.Scan(ctx, opts)
		if err != nil {
			t.Fatalf("scan page %d: %v", pages, err)
		}
		if opts.Limit > 0 && len(page.Entries) > opts.Limit {
			t.Fatalf("page %d has %d entries, limit %d", pages, len(page.Entries), opts.Limit)
		}
		all = append(all, page.Entries...)
		if page.NextToken == "" {
			return all
		}
		opts.Token = page.NextToken
	}
}

func TestScanMergedReplicasExactlyOnceNewestVersion(t *testing.T) {
	h := newHarness(t, 3, func(c *Config) { c.Replicas = 2 })
	s := h.ctl.Session("alice")
	ctx := context.Background()

	const n = 25
	want := make(map[string]int64)
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("obj/%03d", i)
		if _, err := s.Put(ctx, key, []byte("v0"), PutOptions{}); err != nil {
			t.Fatal(err)
		}
		want[key] = 0
		// Give every third key extra versions: the scan must report the
		// newest, exactly once, despite two replicas listing it.
		for v := int64(1); v <= int64(i%3); v++ {
			if _, err := s.Put(ctx, key, []byte("v"), PutOptions{}); err != nil {
				t.Fatal(err)
			}
			want[key] = v
		}
	}
	// Drop the meta cache so the scan's metadata loads hit the drives.
	h.ctl.metaCache.Clear()

	entries := collectPages(t, s, ScanOptions{Prefix: "obj/", Limit: 7})
	if len(entries) != n {
		t.Fatalf("scan returned %d entries, want %d", len(entries), n)
	}
	seen := make(map[string]bool)
	prev := ""
	for _, e := range entries {
		k := string(e.Key)
		if seen[k] {
			t.Errorf("key %q returned more than once", k)
		}
		seen[k] = true
		if k <= prev {
			t.Errorf("entries out of order: %q after %q", k, prev)
		}
		prev = k
		if want[k] != e.Version {
			t.Errorf("key %q at version %d, want newest %d", k, e.Version, want[k])
		}
	}
}

func TestScanPolicyFilterNeverLeaksAcrossPages(t *testing.T) {
	h := newHarness(t, 2, func(c *Config) { c.Replicas = 2 })
	owner := h.ctl.Session("aa")
	other := h.ctl.Session("bb")
	ctx := context.Background()

	sealed, err := h.ctl.PutPolicy(ctx, "read :- sessionKeyIs(k'aa')\nupdate :- sessionKeyIs(k'aa')")
	if err != nil {
		t.Fatal(err)
	}
	denied := make(map[string]bool)
	const n = 30
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("doc/%03d", i)
		opts := PutOptions{}
		if i%3 == 0 { // every third key is unreadable for bob
			opts.PolicyID = sealed
			denied[key] = true
		}
		if _, err := owner.Put(ctx, key, []byte("x"), opts); err != nil {
			t.Fatal(err)
		}
	}

	// A tiny page size forces page boundaries to land on and around
	// denied keys; none may leak on any page.
	entries := collectPages(t, other, ScanOptions{Prefix: "doc/", Limit: 2})
	if wantVisible := n - len(denied); len(entries) != wantVisible {
		t.Fatalf("bob sees %d entries, want %d", len(entries), wantVisible)
	}
	for _, e := range entries {
		if denied[string(e.Key)] {
			t.Errorf("policy-denied key %q leaked to bob", e.Key)
		}
	}
	// The owner still sees everything.
	if entries := collectPages(t, owner, ScanOptions{Prefix: "doc/", Limit: 4}); len(entries) != n {
		t.Fatalf("alice sees %d entries, want %d", len(entries), n)
	}
	st := h.ctl.stats.Snapshot()
	if st.ScanFiltered == 0 {
		t.Error("ScanFiltered counter not incremented")
	}
}

func TestScanTokensValidUnderConcurrentWrites(t *testing.T) {
	h := newHarness(t, 2, func(c *Config) { c.Replicas = 2 })
	s := h.ctl.Session("w")
	ctx := context.Background()

	for i := 0; i < 10; i++ {
		if _, err := s.Put(ctx, fmt.Sprintf("k/%02d", i), []byte("v"), PutOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	page1, err := s.Scan(ctx, ScanOptions{Prefix: "k/", Limit: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(page1.Entries) != 4 || page1.NextToken == "" {
		t.Fatalf("page1: %d entries, token %q", len(page1.Entries), page1.NextToken)
	}

	// Concurrent mutations between pages: an insert past the cursor, an
	// insert before it, a delete past it, and an update past it.
	if _, err := s.Put(ctx, "k/055", []byte("new"), PutOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put(ctx, "k/00a", []byte("new"), PutOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete(ctx, "k/07", DeleteOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put(ctx, "k/08", []byte("v1"), PutOptions{}); err != nil {
		t.Fatal(err)
	}

	rest := collectPages(t, s, ScanOptions{Prefix: "k/", Limit: 4, Token: page1.NextToken})
	got := make(map[string]int64)
	for _, e := range append(page1.Entries, rest...) {
		if _, dup := got[string(e.Key)]; dup {
			t.Errorf("key %q served twice across pages", e.Key)
		}
		got[string(e.Key)] = e.Version
	}
	// Keys after the resume position reflect the concurrent writes.
	if _, ok := got["k/055"]; !ok {
		t.Error("insert past the cursor not visible to the resumed listing")
	}
	if _, ok := got["k/07"]; ok {
		t.Error("deleted key still served by the resumed listing")
	}
	if got["k/08"] != 1 {
		t.Errorf("updated key served at version %d, want 1", got["k/08"])
	}
	// All surviving original keys are present.
	for i := 0; i < 10; i++ {
		key := fmt.Sprintf("k/%02d", i)
		if i == 7 {
			continue
		}
		if _, ok := got[key]; !ok {
			t.Errorf("original key %q missing from paginated listing", key)
		}
	}
}

func TestScanPrefixStartAndLimits(t *testing.T) {
	h := newHarness(t, 1, nil)
	s := h.ctl.Session("w")
	ctx := context.Background()
	for _, k := range []string{"a/1", "a/2", "ab", "b/1", "a"} {
		if _, err := s.Put(ctx, k, []byte("v"), PutOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	entries := collectPages(t, s, ScanOptions{Prefix: "a/"})
	if len(entries) != 2 || entries[0].Key != "a/1" || entries[1].Key != "a/2" {
		t.Fatalf("prefix a/ returned %+v", entries)
	}
	// Prefix "a" also matches "a", "ab" — but never "b/1".
	if entries := collectPages(t, s, ScanOptions{Prefix: "a"}); len(entries) != 4 {
		t.Fatalf("prefix a returned %+v", entries)
	}
	// Start inside the prefix skips earlier keys ("a" and "a/1" sort
	// before "a/2"; "ab" after).
	entries = collectPages(t, s, ScanOptions{Prefix: "a", Start: "a/2"})
	if len(entries) != 2 || entries[0].Key != "a/2" || entries[1].Key != "ab" {
		t.Fatalf("start a/2 returned %+v", entries)
	}
	// Empty prefix lists everything.
	if entries := collectPages(t, s, ScanOptions{}); len(entries) != 5 {
		t.Fatalf("full listing returned %+v", entries)
	}
}

func TestScanRejectsBadTokens(t *testing.T) {
	h := newHarness(t, 1, nil)
	s := h.ctl.Session("w")
	ctx := context.Background()
	for i := 0; i < 6; i++ {
		if _, err := s.Put(ctx, fmt.Sprintf("t/%d", i), []byte("v"), PutOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Scan(ctx, ScanOptions{Token: "garbage!!"}); !errors.Is(err, ErrBadToken) {
		t.Errorf("garbage token: %v", err)
	}
	page, err := s.Scan(ctx, ScanOptions{Prefix: "t/", Limit: 2})
	if err != nil || page.NextToken == "" {
		t.Fatalf("page: %v token %q", err, page.NextToken)
	}
	// A token is bound to its listing's prefix.
	if _, err := s.Scan(ctx, ScanOptions{Prefix: "other/", Token: page.NextToken}); !errors.Is(err, ErrBadToken) {
		t.Errorf("cross-prefix token: %v", err)
	}
	// Tampering breaks authentication.
	tampered := []byte(page.NextToken)
	tampered[len(tampered)/2] ^= 0x41
	if _, err := s.Scan(ctx, ScanOptions{Prefix: "t/", Token: string(tampered)}); !errors.Is(err, ErrBadToken) {
		t.Errorf("tampered token: %v", err)
	}
}

func TestScanSurvivesReplicaFailure(t *testing.T) {
	// Replicas-1 dead drives: every key still has a live replica
	// reporting it, so the listing must stay complete.
	for _, c := range []struct {
		drives, replicas int
		dead             []int
	}{
		{3, 2, []int{1}},
		{5, 3, []int{0, 3}},
	} {
		h := newHarness(t, c.drives, func(cfg *Config) { cfg.Replicas = c.replicas })
		s := h.ctl.Session("w")
		ctx := context.Background()
		const n = 40
		for i := 0; i < n; i++ {
			if _, err := s.Put(ctx, fmt.Sprintf("f/%02d", i), []byte("v"), PutOptions{}); err != nil {
				t.Fatal(err)
			}
		}
		for _, di := range c.dead {
			h.servers[di].Close()
			h.lns[di].Close()
		}
		entries := collectPages(t, s, ScanOptions{Prefix: "f/", Limit: 5})
		if len(entries) != n {
			t.Fatalf("%d replicas, drives %v dead: scan returned %d entries, want %d", c.replicas, c.dead, len(entries), n)
		}
	}
	// One more and coverage cannot be guaranteed: an error, not a
	// listing with holes.
	h := newHarness(t, 3, func(cfg *Config) { cfg.Replicas = 2 })
	s := h.ctl.Session("w")
	if _, err := s.Put(context.Background(), "f/0", []byte("v"), PutOptions{}); err != nil {
		t.Fatal(err)
	}
	for _, di := range []int{0, 1} {
		h.servers[di].Close()
		h.lns[di].Close()
	}
	if page, err := s.Scan(context.Background(), ScanOptions{Prefix: "f/"}); err == nil {
		t.Fatalf("scan with Replicas drives dead returned a page of %d entries", len(page.Entries))
	}
}

// TestScanNewestReplicaCopyWins: replicas disagree (a revived drive
// holding yesterday's record); the listing reports the newest copy
// whichever drive the merge meets first.
func TestScanNewestReplicaCopyWins(t *testing.T) {
	h := newHarness(t, 3, func(c *Config) { c.Replicas = 3 })
	s := h.ctl.Session("w")
	ctx := context.Background()
	stale := make(map[string][]byte)
	for _, key := range []string{"n/a", "n/b", "n/c"} {
		if _, err := s.Put(ctx, key, []byte("v0"), PutOptions{}); err != nil {
			t.Fatal(err)
		}
		stale[key] = driveMetaBytes(t, h, 0, key)
		for v := 1; v <= 3; v++ {
			if _, err := s.Put(ctx, key, []byte("newer"), PutOptions{}); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Each key's stale copy sits on a different drive, so it is first,
	// middle and last among the copies the merge collects.
	for di, key := range []string{"n/a", "n/b", "n/c"} {
		plantMeta(t, h, di, key, stale[key])
	}
	entries := collectPages(t, s, ScanOptions{Prefix: "n/"})
	if len(entries) != 3 {
		t.Fatalf("listed %d entries, want 3", len(entries))
	}
	for _, e := range entries {
		if e.Version != 3 || e.Size != int64(len("newer")) {
			t.Errorf("%q listed at version %d size %d, want the newest copy (3, %d)", e.Key, e.Version, e.Size, len("newer"))
		}
	}
}

// TestScanSkipsUnreadableCopies: one replica's record is garbage and
// another's is a different object's record served under this key — with
// a newer version and no policy, the copy a careless merge would
// prefer. The remaining replica stands in; the entry is listed with its
// own metadata and judged by its own policy.
func TestScanSkipsUnreadableCopies(t *testing.T) {
	h := newHarness(t, 3, func(c *Config) { c.Replicas = 3 })
	owner, other := h.ctl.Session("aa"), h.ctl.Session("bb")
	ctx := context.Background()
	private, err := h.ctl.PutPolicy(ctx, "read :- sessionKeyIs(k'aa')\nupdate :- sessionKeyIs(k'aa')")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := owner.Put(ctx, "u/secret", []byte("classified"), PutOptions{PolicyID: private}); err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 5; v++ {
		if _, err := other.Put(ctx, "u/public", []byte("x"), PutOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	plantMeta(t, h, 0, "u/secret", []byte("\x05not a metadata record"))
	plantMeta(t, h, 1, "u/secret", driveMetaBytes(t, h, 1, "u/public"))

	entries := collectPages(t, owner, ScanOptions{Prefix: "u/"})
	if len(entries) != 2 || entries[1].Key != "u/secret" || entries[1].Version != 0 || entries[1].PolicyID != private {
		t.Fatalf("owner's listing: %+v, want u/secret at version 0 under its own policy", entries)
	}
	for _, e := range collectPages(t, other, ScanOptions{Prefix: "u/"}) {
		if e.Key == "u/secret" {
			t.Fatalf("u/secret listed to a reader its policy denies, as %+v", e)
		}
	}
}

// TestScanFailsClosedWithoutReadableCopy: when no replica's record of a
// reported key decodes and names that key, the page fails. Listing the
// entry unchecked would bypass its policy; dropping it would hide an
// object from its readers.
func TestScanFailsClosedWithoutReadableCopy(t *testing.T) {
	h := newHarness(t, 2, func(c *Config) { c.Replicas = 2 })
	s := h.ctl.Session("w")
	ctx := context.Background()
	for _, key := range []string{"c/1", "c/2", "c/3"} {
		if _, err := s.Put(ctx, key, []byte("v"), PutOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	plantMeta(t, h, 0, "c/2", []byte{0xff})
	plantMeta(t, h, 1, "c/2", driveMetaBytes(t, h, 1, "c/3"))
	page, err := s.Scan(ctx, ScanOptions{Prefix: "c/"})
	if !errors.Is(err, store.ErrCorrupt) {
		t.Fatalf("scan over an unreadable entry: page %+v, err %v; want store.ErrCorrupt", page, err)
	}
	// Entries before the damage are still reachable.
	page, err = s.Scan(ctx, ScanOptions{Prefix: "c/", Limit: 1})
	if err != nil || len(page.Entries) != 1 || page.Entries[0].Key != "c/1" {
		t.Fatalf("page ahead of the damage: %+v, %v", page, err)
	}
}

// TestScanNeverReportsOlderThanAcknowledged: whatever version of a key
// was acknowledged before a listing began, the listing reports that
// version or a later one — it reads the drives, which hold every
// acknowledged write, never a cache that might trail them.
func TestScanNeverReportsOlderThanAcknowledged(t *testing.T) {
	h := newHarness(t, 3, func(c *Config) { c.Replicas = 2 })
	ctx := context.Background()
	const nKeys = 8
	var acked [nKeys]atomic.Int64
	keys := make([]string, nKeys)
	for i := range keys {
		keys[i] = fmt.Sprintf("v/%d", i)
		if _, err := h.ctl.Session("w").Put(ctx, keys[i], []byte("0"), PutOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := h.ctl.Session("w")
			for round := 0; ; round++ {
				for i := w; i < nKeys; i += 2 { // each key has one writer
					select {
					case <-stop:
						return
					default:
					}
					v, err := s.Put(ctx, keys[i], []byte("x"), PutOptions{})
					if err != nil {
						t.Errorf("put %s: %v", keys[i], err)
						return
					}
					acked[i].Store(v)
				}
			}
		}(w)
	}
	s := h.ctl.Session("reader")
	for listing := 0; listing < 60; listing++ {
		var floor [nKeys]int64
		for i := range floor {
			floor[i] = acked[i].Load()
		}
		entries := collectPages(t, s, ScanOptions{Prefix: "v/", Limit: 3})
		if len(entries) != nKeys {
			t.Fatalf("listing %d: %d entries, want %d", listing, len(entries), nKeys)
		}
		for i, e := range entries {
			if e.Version < floor[i] {
				t.Fatalf("listing %d: %s reported at version %d, but %d was acknowledged before it began", listing, e.Key, e.Version, floor[i])
			}
		}
	}
	close(stop)
	wg.Wait()
}

// TestScanLeavesTheKeyCacheAlone: listings neither fill the key cache
// nor evict from it, empty or warm.
func TestScanLeavesTheKeyCacheAlone(t *testing.T) {
	h := newHarness(t, 3, func(c *Config) { c.Replicas = 2 })
	s := h.ctl.Session("w")
	ctx := context.Background()
	for i := 0; i < 50; i++ {
		if _, err := s.Put(ctx, fmt.Sprintf("q/%02d", i), []byte("v"), PutOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	for _, warm := range []bool{false, true} {
		h.ctl.metaCache.Clear()
		if warm {
			for i := 0; i < 10; i++ {
				if _, _, err := s.Get(ctx, fmt.Sprintf("q/%02d", i*5), GetOptions{}); err != nil {
					t.Fatal(err)
				}
			}
		}
		before := h.ctl.metaCache.Len()
		_, _, evictedBefore := h.ctl.metaCache.Stats()
		for i := 0; i < 200; i++ {
			if got := collectPages(t, s, ScanOptions{Prefix: "q/", Limit: 20}); len(got) != 50 {
				t.Fatalf("listing %d: %d entries", i, len(got))
			}
		}
		_, _, evicted := h.ctl.metaCache.Stats()
		if after := h.ctl.metaCache.Len(); after != before || evicted != evictedBefore || (warm && before == 0) {
			t.Errorf("warm %t: key cache %d -> %d entries, %d evictions over 200 listings", warm, before, after, evicted-evictedBefore)
		}
	}
}

// TestScanPageAllocBudget pins what one 100-entry page costs in
// allocations end to end — controller, six drive round trips, the
// drives' side of them — in the style of TestBatchWritePathAllocs. The
// per-key metadata GETs this path replaced cost ~40 allocations per
// entry; a regression towards that fails here, not only in a benchmark.
func TestScanPageAllocBudget(t *testing.T) {
	h := newHarness(t, 6, func(c *Config) { c.Replicas = 3 })
	s := h.ctl.Session("aa")
	ctx := context.Background()
	hidden, err := h.ctl.PutPolicy(ctx, "read :- sessionKeyIs(k'ee')\nupdate :- sessionKeyIs(k'aa')")
	if err != nil {
		t.Fatal(err)
	}
	open, err := h.ctl.PutPolicy(ctx, "read :- sessionKeyIs(k'aa')\nupdate :- sessionKeyIs(k'aa')")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		opts := PutOptions{PolicyID: open}
		if i%4 == 3 {
			opts.PolicyID = hidden // every 4th entry is examined and dropped
		}
		if _, err := s.Put(ctx, fmt.Sprintf("p/%04d", i), []byte("v"), opts); err != nil {
			t.Fatal(err)
		}
	}
	scan := func() {
		page, err := s.Scan(ctx, ScanOptions{Prefix: "p/", Limit: 100})
		if err != nil || len(page.Entries) != 100 {
			t.Fatalf("page: %v, %d entries", err, len(page.Entries))
		}
	}
	scan() // connections, residuals, pools
	perEntry := testing.AllocsPerRun(20, scan) / 100
	// Measured 7.2 per returned entry, 133 examined for 100 returned:
	// per examined key its string, its placement, the policy's object
	// source and, where the policy changes, its id; the six round trips
	// spread over the page.
	if perEntry > 10 {
		t.Fatalf("a 100-entry page costs %.1f allocations per entry, budget 10", perEntry)
	}
}

// FuzzScanToken: the pagination token is client-supplied. Arbitrary
// bytes never panic and never yield a resume key unless they are a token
// this controller sealed for that prefix; sealing then unsealing is the
// identity; one flipped bit, another prefix or another controller's key
// is ErrBadToken.
func FuzzScanToken(f *testing.F) {
	// The sealing keys are this process's own, so no input from a corpus
	// or another fuzz worker is a token either controller sealed.
	controllers := make([]*Controller, 2)
	for i := range controllers {
		controllers[i] = &Controller{secrets: &attest.Secrets{}}
		if _, err := rand.Read(controllers[i].secrets.ObjectKey[:]); err != nil {
			f.Fatal(err)
		}
		if err := controllers[i].initScanTokens(); err != nil {
			f.Fatal(err)
		}
	}
	c, stranger := controllers[0], controllers[1]
	sealed := map[string][2]string{} // token → the prefix and position c sealed it for
	for _, seed := range [][2]string{{"", "k"}, {"p/", "p/k1"}, {"p/", ""}, {"bin\xff", "bin\xff\xfe"}} {
		tok := c.sealScanToken(seed[0], seed[1])
		sealed[tok] = seed
		f.Add(tok, seed[0], seed[1], uint16(0))
	}
	f.Add("", "", "", uint16(1))
	f.Add("garbage!!", "p/", "k", uint16(2))
	f.Add(stranger.sealScanToken("p/", "p/k1"), "p/", "p/k1\x00tail", uint16(77))
	f.Add("AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA", "nul\x00prefix", "k", uint16(9))
	f.Fuzz(func(t *testing.T, token, prefix, resume string, flip uint16) {
		got, err := c.unsealScanToken(token, prefix)
		if want, ok := sealed[token]; err == nil && (!ok || want != [2]string{prefix, got}) {
			t.Fatalf("unsealed a resume key %q for prefix %q from bytes this controller never sealed for it", got, prefix)
		} else if err != nil && !errors.Is(err, ErrBadToken) {
			t.Fatalf("refused with %v, want ErrBadToken", err)
		}

		tok := c.sealScanToken(prefix, resume)
		got, err = c.unsealScanToken(tok, prefix)
		if strings.ContainsRune(prefix, 0) {
			// The API boundary admits no NUL in a prefix; one that got
			// here must not come back as a shorter prefix's token.
			if err == nil {
				t.Fatalf("prefix %q with a NUL round-tripped to %q", prefix, got)
			}
			return
		}
		if err != nil || got != resume {
			t.Fatalf("seal→unseal of (%q, %q): %q, %v", prefix, resume, got, err)
		}
		raw, err := base64.RawURLEncoding.DecodeString(tok)
		if err != nil {
			t.Fatal(err)
		}
		raw[int(flip)%len(raw)] ^= 1 << (flip % 8)
		for _, bad := range [][3]string{
			{"one flipped bit", base64.RawURLEncoding.EncodeToString(raw), prefix},
			{"another listing's prefix", tok, prefix + "x"},
			{"another controller's key", stranger.sealScanToken(prefix, resume), prefix},
		} {
			if got, err := c.unsealScanToken(bad[1], bad[2]); !errors.Is(err, ErrBadToken) {
				t.Fatalf("%s: %q, %v", bad[0], got, err)
			}
		}
	})
}
