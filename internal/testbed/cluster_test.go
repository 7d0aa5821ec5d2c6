package testbed

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	mrand "math/rand"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/kinetic"
	"repro/internal/kinetic/wire"
	"repro/internal/store"
)

// TestClusterFullWorkloadThroughRouter drives the complete v2 surface
// — put, get, delete, batch get/put, streamed put/get, cluster-wide
// listing — through the router against a 3-controller cluster, and
// checks the keyspace is genuinely partitioned (every shard stores a
// share) with zero redirects in steady state.
func TestClusterFullWorkloadThroughRouter(t *testing.T) {
	mc, err := StartMulti(3, Options{Enclave: true})
	if err != nil {
		t.Fatal(err)
	}
	defer mc.Close()
	r, _, err := mc.NewRouter("alice")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	// Puts + gets across the keyspace.
	const n = 60
	values := make(map[string][]byte, n)
	var keys []string
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("obj/%03d", i)
		val := []byte(fmt.Sprintf("value-%d", i))
		res, err := r.Put(ctx, key, val, client.PutOptions{})
		if err != nil || res.Err != nil {
			t.Fatalf("put %q: %v / %v", key, err, res.Err)
		}
		if res.Version != 0 {
			t.Fatalf("put %q: version %d, want 0", key, res.Version)
		}
		values[key] = val
		keys = append(keys, key)
	}
	for key, want := range values {
		got, meta, err := r.Get(ctx, key, client.GetOptions{})
		if err != nil {
			t.Fatalf("get %q: %v", key, err)
		}
		if !bytes.Equal(got, want) || meta.Version != 0 {
			t.Fatalf("get %q: wrong value/version", key)
		}
	}

	// Batch put + batch get, spanning shards.
	var bops []client.BatchPutOp
	for i := 0; i < 40; i++ {
		key := fmt.Sprintf("batch/%03d", i)
		val := []byte(fmt.Sprintf("batch-value-%d", i))
		bops = append(bops, client.BatchPutOp{Key: core.JSONKey(key), Value: val})
		values[key] = val
		keys = append(keys, key)
	}
	bres, err := r.BatchPut(ctx, bops)
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range bres {
		if res.Err != nil {
			t.Fatalf("batch put op %d: %v", i, res.Err)
		}
	}
	var bkeys []string
	for _, op := range bops {
		bkeys = append(bkeys, string(op.Key))
	}
	gres, err := r.BatchGet(ctx, bkeys)
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range gres {
		if res.Err != nil || !bytes.Equal(res.Value, values[bkeys[i]]) {
			t.Fatalf("batch get %q: %v", bkeys[i], res.Err)
		}
	}

	// Streamed put/get of a chunked (>1 MB) object.
	big := make([]byte, (store.MaxObjectSize*5)/2)
	mrand.New(mrand.NewSource(3)).Read(big)
	sres, err := r.PutStream(ctx, "stream/big", func() (io.Reader, error) {
		return bytes.NewReader(big), nil
	}, client.PutOptions{})
	if err != nil || sres.Err != nil {
		t.Fatalf("stream put: %v / %v", err, sres.Err)
	}
	body, _, err := r.GetStream(ctx, "stream/big", client.GetOptions{})
	if err != nil {
		t.Fatal(err)
	}
	echo, err := io.ReadAll(body)
	body.Close()
	if err != nil || !bytes.Equal(echo, big) {
		t.Fatalf("stream get: %v (len %d vs %d)", err, len(echo), len(big))
	}
	values["stream/big"] = nil
	keys = append(keys, "stream/big")

	// Cluster-wide listing, small pages: exactly the live keys, each
	// once, in order.
	var listed []string
	opts := client.ListOptions{Limit: 7}
	for {
		page, err := r.List(ctx, opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range page.Entries {
			listed = append(listed, string(e.Key))
		}
		if page.NextToken == "" {
			break
		}
		opts.Token = page.NextToken
	}
	sort.Strings(keys)
	if !sort.StringsAreSorted(listed) {
		t.Fatal("merged listing out of order")
	}
	if fmt.Sprint(listed) != fmt.Sprint(keys) {
		t.Fatalf("listing mismatch:\n got %d: %v\nwant %d: %v", len(listed), listed, len(keys), keys)
	}

	// Deletes.
	for _, key := range []string{"obj/000", "batch/000", "stream/big"} {
		res, err := r.Delete(ctx, key)
		if err != nil || res.Err != nil {
			t.Fatalf("delete %q: %v / %v", key, err, res.Err)
		}
		if _, _, err := r.Get(ctx, key, client.GetOptions{}); err == nil {
			t.Fatalf("get deleted %q succeeded", key)
		}
	}

	// The keyspace is really partitioned: every shard served writes.
	for i, node := range mc.Nodes {
		if puts := node.Controller.Stats().Snapshot().Puts; puts == 0 {
			t.Errorf("shard %d served no puts — keyspace not partitioned", i)
		}
	}
	// Steady state needs no redirects.
	if got := r.Stats().Redirects.Load(); got != 0 {
		t.Errorf("%d redirects in a handoff-free run", got)
	}
}

// TestShardHandoffUnderLoad runs concurrent read/write load through
// router clients while a live handoff moves half of shard 0's range
// to shard 1. Acceptance: zero failed operations, zero duplicated
// writes (dense version counting detects any), and at most one
// retried redirect per operation.
func TestShardHandoffUnderLoad(t *testing.T) {
	mc, err := StartMulti(2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer mc.Close()
	ctx := context.Background()

	loader, _, err := mc.NewRouter("loader")
	if err != nil {
		t.Fatal(err)
	}
	const nKeys = 120
	keys := make([]string, nKeys)
	for i := range keys {
		keys[i] = fmt.Sprintf("load/%04d", i)
		res, err := loader.Put(ctx, keys[i], []byte("v0"), client.PutOptions{})
		if err != nil || res.Err != nil {
			t.Fatalf("load %q: %v / %v", keys[i], err, res.Err)
		}
	}

	// The moving range: the upper half of shard 0's slice.
	m := mc.Map()
	own := m.ShardByID(0).Ranges[0]
	moved := core.HashRange{Start: (own.Start + own.End) / 2, End: own.End}

	const workers = 6
	const opsPerWorker = 240
	routers := make([]*cluster.Router, workers)
	for w := range routers {
		r, _, err := mc.NewRouter(fmt.Sprintf("worker-%d", w))
		if err != nil {
			t.Fatal(err)
		}
		routers[w] = r
	}

	// Every key has a single writer (worker w owns indices ≡ w mod
	// workers), so the per-key put counters need no synchronization
	// and version counting is deterministic.
	perWorker := nKeys / workers
	puts := make([]int, nKeys)
	var failures errCollector
	start := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := routers[w]
			<-start
			for i := 0; i < opsPerWorker; i++ {
				ki := w + workers*(i%perWorker)
				key := keys[ki]
				if i%3 == 2 {
					if _, _, err := r.Get(ctx, key, client.GetOptions{}); err != nil {
						failures.add(fmt.Errorf("get %q: %w", key, err))
					}
					continue
				}
				res, err := r.Put(ctx, key, []byte(fmt.Sprintf("w%d-i%d", w, i)), client.PutOptions{})
				if err != nil {
					failures.add(fmt.Errorf("put %q: %w", key, err))
					continue
				}
				if res.Err != nil {
					failures.add(fmt.Errorf("put %q: %v", key, res.Err))
					continue
				}
				puts[ki]++
			}
		}(w)
	}

	close(start)
	// Live handoff in the middle of the load.
	manifest, err := mc.Handoff(ctx, 0, 1, moved)
	if err != nil {
		t.Fatalf("handoff: %v", err)
	}
	wg.Wait()

	if errs := failures.snapshot(); len(errs) > 0 {
		t.Fatalf("%d failed operations under handoff; first: %v", len(errs), errs[0])
	}

	// No lost or duplicated write: versions are dense, so each key's
	// head version must equal its exact put count (the load-phase put
	// is version 0).
	checker, _, err := mc.NewRouter("checker")
	if err != nil {
		t.Fatal(err)
	}
	for i, key := range keys {
		_, meta, err := checker.Get(ctx, key, client.GetOptions{})
		if err != nil {
			t.Fatalf("verify get %q: %v", key, err)
		}
		if meta.Version != int64(puts[i]) {
			t.Fatalf("key %q: version %d, want %d (lost or duplicated write)", key, meta.Version, puts[i])
		}
	}

	// At most one retried redirect per operation, for every client.
	for w, r := range routers {
		if got := r.Stats().MaxRedirectsPerOp.Load(); got > 1 {
			t.Errorf("worker %d: an operation needed %d redirects, want <= 1", w, got)
		}
	}

	// The manifest covers exactly the keys in the moved range.
	movedSet := make(map[string]bool)
	for _, e := range manifest.Entries {
		movedSet[e.Key] = true
	}
	for _, key := range keys {
		inRange := moved.Contains(store.ShardHash(key))
		if inRange != movedSet[key] {
			t.Errorf("key %q: in moved range %v, in manifest %v", key, inRange, movedSet[key])
		}
	}
}

// TestSplitMovesOnlyExpectedKeys boots a 2-shard cluster, hands off a
// quarter of shard 0's range, and checks live placement: every key is
// served by exactly the controller the new map names, moved keys are
// destroyed on (and redirected by) the old owner, and a stale router
// minted before the handoff needs exactly one redirect.
func TestSplitMovesOnlyExpectedKeys(t *testing.T) {
	mc, err := StartMulti(2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer mc.Close()
	ctx := context.Background()

	stale, _, err := mc.NewRouter("stale") // holds the epoch-1 map
	if err != nil {
		t.Fatal(err)
	}
	const nKeys = 80
	keys := make([]string, nKeys)
	for i := range keys {
		keys[i] = fmt.Sprintf("split/%04d", i)
		if res, err := stale.Put(ctx, keys[i], []byte("x"), client.PutOptions{}); err != nil || res.Err != nil {
			t.Fatalf("load: %v / %v", err, res.Err)
		}
	}

	before := mc.Map()
	own := before.ShardByID(0).Ranges[0]
	moved := core.HashRange{Start: own.End - (own.End-own.Start)/4, End: own.End}
	if _, err := mc.Handoff(ctx, 0, 1, moved); err != nil {
		t.Fatal(err)
	}
	after := mc.Map()

	s0 := mc.Nodes[0].Controller.Session("probe")
	s1 := mc.Nodes[1].Controller.Session("probe")
	for _, key := range keys {
		owner, err := after.OwnerOf(key)
		if err != nil {
			t.Fatal(err)
		}
		_, _, err0 := s0.Get(ctx, key, core.GetOptions{})
		_, _, err1 := s1.Get(ctx, key, core.GetOptions{})
		switch owner.ID {
		case 0:
			if err0 != nil {
				t.Fatalf("key %q: owner shard 0 cannot serve it: %v", key, err0)
			}
			if !errors.Is(err1, core.ErrWrongShard) {
				t.Fatalf("key %q: non-owner shard 1 answered %v, want wrong-shard", key, err1)
			}
		case 1:
			if err1 != nil {
				t.Fatalf("key %q: owner shard 1 cannot serve it: %v", key, err1)
			}
			if !errors.Is(err0, core.ErrWrongShard) {
				t.Fatalf("key %q: non-owner shard 0 answered %v, want wrong-shard", key, err0)
			}
		}
		// Only keys in the moved range changed owner.
		prevOwner, _ := before.OwnerOf(key)
		if moved.Contains(store.ShardHash(key)) {
			if prevOwner.ID != 0 || owner.ID != 1 {
				t.Fatalf("key %q in moved range: owner %d->%d", key, prevOwner.ID, owner.ID)
			}
		} else if prevOwner.ID != owner.ID {
			t.Fatalf("unrelated key %q changed owner %d->%d", key, prevOwner.ID, owner.ID)
		}
	}

	// The moved records are gone from shard 0's drive (destroyed at
	// release), not just hidden: each remaining key accounts for
	// exactly a metadata record plus one version record.
	remaining := 0
	for _, key := range keys {
		if owner, _ := after.OwnerOf(key); owner.ID == 0 {
			remaining++
		}
	}
	driveKeys := 0
	for _, d := range mc.Nodes[0].Drives {
		driveKeys += d.Len()
	}
	if driveKeys != 2*remaining {
		t.Errorf("old owner's drives hold %d records, want %d (2 per remaining key) — migrated records not destroyed", driveKeys, 2*remaining)
	}

	// A stale router redirects exactly once per op and then sticks to
	// the new map.
	var movedKey string
	for _, key := range keys {
		if moved.Contains(store.ShardHash(key)) {
			movedKey = key
			break
		}
	}
	if movedKey == "" {
		t.Skip("no test key hashed into the moved range")
	}
	if res, err := stale.Put(ctx, movedKey, []byte("after"), client.PutOptions{}); err != nil || res.Err != nil {
		t.Fatalf("stale-router put after handoff: %v / %v", err, res.Err)
	}
	if got := stale.Stats().MaxRedirectsPerOp.Load(); got != 1 {
		t.Errorf("stale router used %d redirects, want exactly 1", got)
	}
	if res, err := stale.Put(ctx, movedKey, []byte("again"), client.PutOptions{}); err != nil || res.Err != nil {
		t.Fatalf("second put: %v / %v", err, res.Err)
	}
	if got := stale.Stats().Redirects.Load(); got != 1 {
		t.Errorf("router redirected %d times total, want 1 (map refresh must stick)", got)
	}
}

// TestHandoffDoesNotCopyACorruptFirstReplica: version 0 of a key on
// three drives at three copies has one flipped byte on its first
// placement replica, which the source reads over from the two healthy
// copies. The handoff must move a healthy copy — release destroys the
// source's, so a moved corrupt one would lose the version for good.
func TestHandoffDoesNotCopyACorruptFirstReplica(t *testing.T) {
	mc, err := StartMulti(2, Options{Drives: 3, Replicas: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer mc.Close()
	ctx := context.Background()
	node := mc.Nodes[0]
	src := node.Controller.Session("w")
	key := ""
	for i := 0; key == ""; i++ {
		if k := fmt.Sprintf("flip/%d", i); mc.Map().ShardByID(0).Owns(store.ShardHash(k)) {
			key = k
		}
	}
	for v := 0; v < 2; v++ {
		if _, err := src.Put(ctx, key, []byte(fmt.Sprintf("value %d", v)), core.PutOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	first := store.Placement(key, 3, 3)[0]
	dk := store.ObjectKey(key, 0)
	got := node.driveReq(first, &wire.Message{Type: wire.TGet, Key: dk})
	if got.Status != wire.StatusOK {
		t.Fatalf("raw read of v0 on drive %d: %v", first, got.Status)
	}
	got.Value[len(got.Value)/2] ^= 0x40
	if resp := node.driveReq(first, &wire.Message{Type: wire.TPut, Key: dk, Value: got.Value, NewVersion: got.DBVersion, Force: true}); resp.Status != wire.StatusOK {
		t.Fatalf("plant the flipped copy: %v", resp.Status)
	}
	v0 := core.GetOptions{Version: 0, HasVersion: true}
	if val, _, err := src.Get(ctx, key, v0); err != nil || string(val) != "value 0" {
		t.Fatalf("the source reads v0 as %q, %v", val, err)
	}

	h := store.ShardHash(key)
	if _, err := mc.Handoff(ctx, 0, 1, core.HashRange{Start: h, End: h + 1}); err != nil {
		t.Fatal(err)
	}
	dst := mc.Nodes[1].Controller.Session("w")
	for v, opts := range []core.GetOptions{v0, {}} {
		if val, _, err := dst.Get(ctx, key, opts); err != nil || string(val) != fmt.Sprintf("value %d", v) {
			t.Fatalf("the gaining side reads v%d as %q, %v", v, val, err)
		}
	}
}

// onlyCopyFixture puts two versions of a key of shard 0 on three
// drives at three copies and deletes version 0 from all but one replica,
// the drive it returns.
func onlyCopyFixture(t *testing.T) (mc *MultiCluster, key string, holder int) {
	t.Helper()
	mc, err := StartMulti(2, Options{Drives: 3, Replicas: 3})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(mc.Close)
	for i := 0; key == ""; i++ {
		if k := fmt.Sprintf("lone/%d", i); mc.Map().ShardByID(0).Owns(store.ShardHash(k)) {
			key = k
		}
	}
	node := mc.Nodes[0]
	for v := 0; v < 2; v++ {
		if _, err := node.Controller.Session("w").Put(context.Background(), key, []byte(fmt.Sprintf("value %d", v)), core.PutOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	placement := store.Placement(key, 3, 3)
	for _, di := range placement[:2] {
		deleteDriveRecord(t, node, di, store.ObjectKey(key, 0))
	}
	return mc, key, placement[2]
}

// TestHandoffFailsOnAnUnreadableOnlyCopy: the source cannot reach the
// only replica holding version 0 during the handoff. Release would
// destroy the copy the export could not read, so the export fails, the
// handoff rolls back, and the source still serves v0 once the drive is
// back.
func TestHandoffFailsOnAnUnreadableOnlyCopy(t *testing.T) {
	mc, key, holder := onlyCopyFixture(t)
	ctx := context.Background()
	node := mc.Nodes[0]
	node.CutDrive(holder)
	h := store.ShardHash(key)
	_, err := mc.Handoff(ctx, 0, 1, core.HashRange{Start: h, End: h + 1})
	node.HealDrive(holder)
	if err == nil {
		t.Fatal("the handoff succeeded without reading the only copy of v0")
	}
	if owner, _ := mc.Map().OwnerOf(key); owner.ID != 0 {
		t.Fatalf("the failed handoff moved the key to shard %d", owner.ID)
	}
	if !driveHasRecord(t, node, holder, store.ObjectKey(key, 0)) {
		t.Fatal("the source's only copy of v0 was destroyed")
	}
	val, _, err := node.Controller.Session("w").Get(ctx, key, core.GetOptions{Version: 0, HasVersion: true})
	if err != nil || string(val) != "value 0" {
		t.Fatalf("the source reads v0 as %q, %v", val, err)
	}
}

// TestHandoffMovesAnOnlyCopyHiddenFromTheListing: the only replica
// holding version 0 answers reads but withholds every record from its
// range replies. The export cannot list that replica's versions, asks
// for each version up to the head instead, and moves v0. (The release,
// which must list each replica's own records, fails closed on the liar;
// the handoff stands.)
func TestHandoffMovesAnOnlyCopyHiddenFromTheListing(t *testing.T) {
	mc, key, holder := onlyCopyFixture(t)
	ctx := context.Background()
	mc.Nodes[0].Drives[holder].SetFaults(kinetic.Faults{RangeLie: kinetic.RangeCutToNothing})
	h := store.ShardHash(key)
	_, err := mc.Handoff(ctx, 0, 1, core.HashRange{Start: h, End: h + 1})
	if err != nil && !strings.Contains(err.Error(), "cluster: release:") {
		t.Fatalf("handoff: %v", err)
	}
	for v := 0; v < 2; v++ {
		val, _, err := mc.Nodes[1].Controller.Session("w").Get(ctx, key, core.GetOptions{Version: int64(v), HasVersion: true})
		if err != nil || string(val) != fmt.Sprintf("value %d", v) {
			t.Fatalf("the gaining side reads v%d as %q, %v", v, val, err)
		}
	}
}

// TestScanTokensAcrossHandoff paginates a cluster-wide listing with a
// live handoff between pages: no key may be skipped or duplicated at
// the shard boundary.
func TestScanTokensAcrossHandoff(t *testing.T) {
	mc, err := StartMulti(2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer mc.Close()
	ctx := context.Background()
	r, _, err := mc.NewRouter("lister")
	if err != nil {
		t.Fatal(err)
	}

	const nKeys = 120
	want := make([]string, nKeys)
	for i := range want {
		want[i] = fmt.Sprintf("scan/%04d", i)
		if res, err := r.Put(ctx, want[i], []byte("x"), client.PutOptions{}); err != nil || res.Err != nil {
			t.Fatalf("load: %v / %v", err, res.Err)
		}
	}

	var got []string
	opts := client.ListOptions{Limit: 10}
	pages := 0
	for {
		page, err := r.List(ctx, opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range page.Entries {
			got = append(got, string(e.Key))
		}
		pages++
		if pages == 4 {
			// Mid-pagination handoff: move half of shard 0's range.
			own := mc.Map().ShardByID(0).Ranges[0]
			moved := core.HashRange{Start: (own.Start + own.End) / 2, End: own.End}
			if _, err := mc.Handoff(ctx, 0, 1, moved); err != nil {
				t.Fatalf("handoff: %v", err)
			}
		}
		if page.NextToken == "" {
			break
		}
		opts.Token = page.NextToken
	}

	seen := make(map[string]int)
	for _, k := range got {
		seen[k]++
	}
	for _, k := range want {
		switch seen[k] {
		case 0:
			t.Errorf("key %q skipped at the shard boundary", k)
		case 1:
		default:
			t.Errorf("key %q duplicated (%d times)", k, seen[k])
		}
	}
	if len(got) != nKeys {
		t.Errorf("listed %d keys, want %d", len(got), nKeys)
	}
	if !sort.StringsAreSorted(got) {
		t.Error("merged listing out of order")
	}
}

// errCollector collects failures from concurrent workers.
type errCollector struct {
	mu   sync.Mutex
	errs []error
}

func (a *errCollector) add(err error) {
	a.mu.Lock()
	a.errs = append(a.errs, err)
	a.mu.Unlock()
}

func (a *errCollector) snapshot() []error {
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]error(nil), a.errs...)
}
