package testbed

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/kinetic"
	"repro/internal/kinetic/wire"
	"repro/internal/store"
)

// ecOpts is the chaos-speed maintenance configuration with the
// erasure-coded storage class enabled at the default 4+2 geometry and
// a threshold low enough for test-sized streams.
func ecOpts(drives int) Options {
	o := chaosOpts(drives, 2)
	o.EC = true
	o.ECMinBytes = 1 << 20
	return o
}

// chunkSet is the chunk set key's head stub names its chunk records by.
func chunkSet(t *testing.T, ctl *core.Controller, key string) int64 {
	t.Helper()
	meta, _, err := ctl.Session("chunk-set").GetStream(context.Background(), key, core.GetOptions{})
	if err != nil {
		t.Fatalf("stub of %q: %v", key, err)
	}
	return meta.ChunkSet()
}

// ecShardKeys enumerates every shard record key of an EC object's chunk
// set: the data chunks plus each stripe's parity records.
func ecShardKeys(key string, set, chunks int64, k, m int) [][]byte {
	var out [][]byte
	for idx := int64(0); idx < chunks; idx++ {
		out = append(out, store.ChunkKey(key, set, idx))
	}
	stripes := (chunks + int64(k) - 1) / int64(k)
	for t := int64(0); t < stripes; t++ {
		for j := 0; j < m; j++ {
			out = append(out, store.ChunkKey(key, set, store.ParityIndex(t, int64(m), int64(j))))
		}
	}
	return out
}

// TestECDriveKillAcceptance is the erasure-coding acceptance test: a
// multi-stripe object goes in as EC, m shard-holding drives die under
// a live write load, the object streams back byte-identical while the
// victims are still dead, the sweeper rebuilds the lost shards onto
// substitutes without touching a healthy shard, and a replaced drive
// is refilled by drive-to-drive P2P copy — with zero acked writes
// lost anywhere.
func TestECDriveKillAcceptance(t *testing.T) {
	const (
		drives  = 8
		k, m    = 4, 2
		workers = 3
	)
	c, err := Start(ecOpts(drives))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()

	cl, _, err := c.NewClient("ec-acceptance")
	if err != nil {
		t.Fatal(err)
	}

	// A 6 MB object: 6 chunks in 2 stripes at k=4, erasure-coded.
	payload := make([]byte, 6<<20)
	rand.New(rand.NewSource(7)).Read(payload)
	const key = "ec/acceptance"
	res, err := cl.PutStream(ctx, key, bytes.NewReader(payload), client.PutOptions{})
	if err != nil || res.Err != nil {
		t.Fatalf("PutStream: %v %v", err, res.Err)
	}
	chunks := int64(6)
	shardKeys := ecShardKeys(key, chunkSet(t, c.Controller, key), chunks, k, m)

	// Map every shard to its home drive.
	shardHome := make(map[string]int, len(shardKeys))
	for _, dk := range shardKeys {
		for di := 0; di < drives; di++ {
			if driveHasRecord(t, c, di, dk) {
				if prev, dup := shardHome[string(dk)]; dup {
					t.Fatalf("shard %q on both drive %d and %d", dk, prev, di)
				}
				shardHome[string(dk)] = di
			}
		}
	}
	if len(shardHome) != len(shardKeys) {
		t.Fatalf("found %d of %d shard records", len(shardHome), len(shardKeys))
	}

	// Pick m victims among the drives holding shards.
	holders := map[int]bool{}
	for _, di := range shardHome {
		holders[di] = true
	}
	var victims []int
	for di := 0; di < drives && len(victims) < m; di++ {
		if holders[di] {
			victims = append(victims, di)
		}
	}

	// Closed-loop streamed write load across other keys, single
	// writer per key; every ack is recorded and must survive.
	const nKeys = 9
	wkeys := make([]string, nKeys)
	wpayloads := make([][]byte, nKeys)
	for ki := range wkeys {
		wkeys[ki] = fmt.Sprintf("ec/load-%02d", ki)
		wpayloads[ki] = make([]byte, (1<<20)+ki*137)
		rand.New(rand.NewSource(int64(100 + ki))).Read(wpayloads[ki])
	}
	clients := make([]*client.Client, workers)
	for w := range clients {
		if clients[w], _, err = c.NewClient(fmt.Sprintf("ec-w%d", w)); err != nil {
			t.Fatal(err)
		}
	}
	acked := make([]int64, nKeys)
	for ki := range acked {
		acked[ki] = -1
	}
	stop := make(chan struct{})
	failures := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				ki := (w + i*workers) % nKeys
				deadline := time.Now().Add(20 * time.Second)
				for {
					res, err := clients[w].PutStream(ctx, wkeys[ki], bytes.NewReader(wpayloads[ki]), client.PutOptions{})
					if err == nil && res.Err == nil {
						acked[ki] = res.Version
						break
					}
					if time.Now().After(deadline) {
						failures[w] = fmt.Errorf("stream to %q never recovered: %v / %v", wkeys[ki], err, res.Err)
						return
					}
					time.Sleep(5 * time.Millisecond)
				}
				time.Sleep(2 * time.Millisecond)
			}
		}(w)
	}

	// Kill the victims mid-load and wait for the detector verdicts.
	time.Sleep(100 * time.Millisecond)
	for _, v := range victims {
		c.SetDriveFaults(v, kinetic.Faults{Blackhole: true})
	}
	deadBy := time.Now().Add(10 * time.Second)
	for {
		dead := 0
		for _, h := range c.Controller.DriveHealth() {
			for _, v := range victims {
				if h.Name == c.Drives[v].Name() && h.State == core.DriveDead {
					dead++
				}
			}
		}
		if dead == len(victims) {
			break
		}
		if time.Now().After(deadBy) {
			t.Fatalf("detector never declared the victims dead: %+v", c.Controller.DriveHealth())
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The object must stream back byte-identical with the victims
	// still dead — any k of k+m shards reconstruct every stripe.
	rc, _, err := cl.GetStream(ctx, key, client.GetOptions{})
	if err != nil {
		t.Fatalf("GetStream with %d drives dead: %v", m, err)
	}
	got, err := io.ReadAll(rc)
	rc.Close()
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("degraded read: %d bytes, err=%v", len(got), err)
	}

	// Convergence: the sweeper rebuilds every lost shard onto a live
	// substitute; healthy shards stay exactly where they were.
	live := func(di int) bool {
		for _, v := range victims {
			if di == v {
				return false
			}
		}
		return true
	}
	convBy := time.Now().Add(20 * time.Second)
	for {
		present := 0
		for _, dk := range shardKeys {
			for di := 0; di < drives; di++ {
				if live(di) && driveHasRecord(t, c, di, dk) {
					present++
					break
				}
			}
		}
		if present == len(shardKeys) {
			break
		}
		if time.Now().After(convBy) {
			t.Fatalf("shard rebuild stalled: %d of %d shards on live drives (sweeper: %+v)",
				present, len(shardKeys), c.Controller.SweeperStatus())
		}
		time.Sleep(25 * time.Millisecond)
	}
	for dks, home := range shardHome {
		if live(home) && !driveHasRecord(t, c, home, []byte(dks)) {
			t.Errorf("healthy shard %q moved off drive %d during rebuild", dks, home)
		}
	}
	if st := c.Controller.Stats().Snapshot(); st.ECShardRepairs == 0 {
		t.Error("no EC shard repairs recorded")
	}

	close(stop)
	wg.Wait()
	for w, err := range failures {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}
	// Zero acked writes lost, read through the normal client path
	// with the victims still dead.
	for ki := range wkeys {
		if acked[ki] < 0 {
			continue
		}
		rc, meta, err := cl.GetStream(ctx, wkeys[ki], client.GetOptions{})
		if err != nil {
			t.Fatalf("read %q after kill: %v", wkeys[ki], err)
		}
		got, err := io.ReadAll(rc)
		rc.Close()
		if err != nil || !bytes.Equal(got, wpayloads[ki]) {
			t.Fatalf("acked stream %q diverges (v%d >= acked v%d): %v", wkeys[ki], meta.Version, acked[ki], err)
		}
		if meta.Version < acked[ki] {
			t.Fatalf("acked write lost: %q at v%d < acked v%d", wkeys[ki], meta.Version, acked[ki])
		}
	}

	// Revive the victims, then simulate replacing the first one: its
	// store is erased and repair must refill it by drive-to-drive P2P
	// copy of the healthy rebuilt shards — the controller never
	// carries the bytes.
	for _, v := range victims {
		c.ClearDriveFaults(v)
	}
	reviveBy := time.Now().Add(10 * time.Second)
	for {
		deadLeft := 0
		for _, h := range c.Controller.DriveHealth() {
			if h.State == core.DriveDead {
				deadLeft++
			}
		}
		if deadLeft == 0 {
			break
		}
		if time.Now().After(reviveBy) {
			t.Fatalf("victims never revived: %+v", c.Controller.DriveHealth())
		}
		time.Sleep(10 * time.Millisecond)
	}
	replaced := victims[0]
	if resp := c.driveReq(replaced, &wire.Message{Type: wire.TErase}); resp == nil || resp.Status != wire.StatusOK {
		t.Fatalf("erase drive %d: %+v", replaced, resp)
	}
	p2pBefore := uint64(0)
	for di := 0; di < drives; di++ {
		p2pBefore += c.Drives[di].Stats().P2PPushes.Load()
	}
	report, err := c.Controller.Session("ec-repair").Repair(ctx, key)
	if err != nil {
		t.Fatalf("repair after replacement: %v", err)
	}
	if report.Restored == 0 {
		t.Error("replacement repair restored nothing")
	}
	p2pAfter := uint64(0)
	for di := 0; di < drives; di++ {
		p2pAfter += c.Drives[di].Stats().P2PPushes.Load()
	}
	if p2pAfter == p2pBefore {
		t.Error("replacement repair moved no shards via drive P2P")
	}
	for dks, home := range shardHome {
		if home == replaced && !driveHasRecord(t, c, home, []byte(dks)) {
			t.Errorf("shard %q not back on replaced drive %d", dks, home)
		}
	}
	rc, _, err = cl.GetStream(ctx, key, client.GetOptions{})
	if err != nil {
		t.Fatalf("GetStream after replacement repair: %v", err)
	}
	got, err = io.ReadAll(rc)
	rc.Close()
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("read after replacement repair: %d bytes, err=%v", len(got), err)
	}
}

// ecHandoff is a two-shard cluster on eight drives a shard with one
// 6 MiB erasure-coded (4+2) object owned by shard 0, the sweeper off so
// every repair a test sees is the export's.
type ecHandoff struct {
	mc      *MultiCluster
	key     string
	payload []byte
	shards  [][]byte // the object's data and parity shard record keys
}

func newECHandoff(t *testing.T) *ecHandoff {
	t.Helper()
	opts := ecOpts(8)
	opts.SweepInterval = 0
	mc, err := StartMulti(2, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(mc.Close)
	f := &ecHandoff{mc: mc, payload: make([]byte, 6<<20)}
	for i := 0; f.key == ""; i++ {
		if k := fmt.Sprintf("ec/moving-%d", i); mc.Map().ShardByID(0).Owns(store.ShardHash(k)) {
			f.key = k
		}
	}
	rand.New(rand.NewSource(23)).Read(f.payload)
	src := mc.Nodes[0].Controller.Session("ec-handoff")
	if res := src.PutStream(context.Background(), f.key, bytes.NewReader(f.payload), core.PutOptions{}); res.Err != nil {
		t.Fatal(res.Err)
	}
	f.shards = ecShardKeys(f.key, chunkSet(t, mc.Nodes[0].Controller, f.key), 6, 4, 2)
	if got := f.held(t, 0); got != len(f.shards) {
		t.Fatalf("source holds %d of %d shard records", got, len(f.shards))
	}
	return f
}

// held counts the object's shard records on node ni's drives.
func (f *ecHandoff) held(t *testing.T, ni int) (n int) {
	t.Helper()
	node := f.mc.Nodes[ni]
	for _, dk := range f.shards {
		for di := range node.Drives {
			switch resp := f.mc.driveReq(node, di, &wire.Message{Type: wire.TGet, Key: dk}); resp.Status {
			case wire.StatusOK:
				n++
			case wire.StatusNotFound:
			default:
				t.Fatalf("node %d drive %d raw read: %v", ni, di, resp.Status)
			}
		}
	}
	return n
}

// handoff moves the object's hash to shard 1 and checks it there: byte
// identical, every shard record at its home, none left on the source.
func (f *ecHandoff) handoff(t *testing.T) {
	t.Helper()
	ctx := context.Background()
	h := store.ShardHash(f.key)
	if _, err := f.mc.Handoff(ctx, 0, 1, core.HashRange{Start: h, End: h + 1}); err != nil {
		t.Fatalf("handoff of an erasure-coded object: %v", err)
	}
	dst := f.mc.Nodes[1].Controller.Session("ec-handoff")
	_, send, err := dst.GetStream(ctx, f.key, core.GetOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var back bytes.Buffer
	if err := send(&back); err != nil || !bytes.Equal(back.Bytes(), f.payload) {
		t.Fatalf("gaining side read back %d bytes of %d, %v", back.Len(), len(f.payload), err)
	}
	if got := f.held(t, 1); got != len(f.shards) {
		t.Errorf("gaining side holds %d of %d shard records", got, len(f.shards))
	}
	if got := f.held(t, 0); got != 0 {
		t.Errorf("after release the source holds %d shard records, want 0", got)
	}
	if v, err := dst.Put(ctx, f.key, []byte("small again"), core.PutOptions{}); err != nil || v != 1 {
		t.Fatalf("write on the gaining side: v%d, %v", v, err)
	}
}

// TestHandoffOfErasureCodedObjectMoves: the export aims each data and
// parity shard at its home in the gaining shard's layout, and release
// destroys the shards across the source's whole EC group.
func TestHandoffOfErasureCodedObjectMoves(t *testing.T) {
	newECHandoff(t).handoff(t)
}

// TestHandoffRebuildsALostShard: a shard the source lost before the
// handoff is decoded from the stripe's survivors during the export, so
// the gaining side receives the whole stripe.
func TestHandoffRebuildsALostShard(t *testing.T) {
	f := newECHandoff(t)
	node := f.mc.Nodes[0]
	lost := f.shards[1]
	for di := range node.Drives {
		if driveHasRecord(t, node, di, lost) {
			deleteDriveRecord(t, node, di, lost)
		}
	}
	before := node.Controller.Stats().Snapshot().ECShardRepairs
	f.handoff(t)
	if node.Controller.Stats().Snapshot().ECShardRepairs == before {
		t.Error("the export rebuilt no shard")
	}
}

// TestHandoffRefusesANarrowTarget: a target with fewer drives than the
// object's k+m is refused by name before any record is pushed, and the
// source keeps the object whole.
func TestHandoffRefusesANarrowTarget(t *testing.T) {
	f := newECHandoff(t)
	ctx := context.Background()
	src := f.mc.Nodes[0]
	pushes := func() (n uint64) {
		for _, node := range f.mc.Nodes {
			for _, d := range node.Drives {
				n += d.Stats().P2PPushes.Load()
			}
		}
		return n
	}
	before := pushes()
	h := store.ShardHash(f.key)
	r := core.HashRange{Start: h, End: h + 1}
	if err := src.Controller.FreezeRange(r); err != nil {
		t.Fatal(err)
	}
	_, err := src.Controller.ExportRange(ctx, r, core.MigrationTarget{
		Drives: f.mc.Map().ShardByID(1).Drives[:5], Replicas: 2,
	})
	src.Controller.UnfreezeRange(r)
	if !errors.Is(err, core.ErrTargetTooNarrow) {
		t.Fatalf("export to 5 drives of a 4+2 object: %v, want ErrTargetTooNarrow", err)
	}
	if got := pushes() - before; got != 0 {
		t.Errorf("the refused export pushed %d records", got)
	}
	for di, d := range f.mc.Nodes[1].Drives {
		if d.Len() != 0 {
			t.Errorf("target drive %d holds %d records", di, d.Len())
		}
	}
	if got := f.held(t, 0); got != len(f.shards) {
		t.Errorf("after the refusal the source holds %d of %d shard records", got, len(f.shards))
	}
}

// TestAutobalancerLiveErasureCoded is TestAutobalancerLive over
// erasure-coded objects: the balancer's live handoff of the hot shard's
// skewed range moves streams striped 4+2, and every one reads back
// byte-identical through a fresh router.
func TestAutobalancerLiveErasureCoded(t *testing.T) {
	mc, err := StartMulti(2, ecOpts(8))
	if err != nil {
		t.Fatal(err)
	}
	defer mc.Close()
	ctx := context.Background()
	r, _, err := mc.NewRouter("load")
	if err != nil {
		t.Fatal(err)
	}

	const nKeys = 12
	keys := make([]string, nKeys)
	payloads := make([][]byte, nKeys)
	for i := range keys {
		keys[i] = fmt.Sprintf("bal/ec-%04d", i)
		payloads[i] = make([]byte, 2<<20+1<<10) // three chunks: one past the replica placement
		rand.New(rand.NewSource(int64(i))).Read(payloads[i])
		body := func() (io.Reader, error) { return bytes.NewReader(payloads[i]), nil }
		if res, err := r.PutStream(ctx, keys[i], body, client.PutOptions{}); err != nil || res.Err != nil {
			t.Fatalf("load: %v / %v", err, res.Err)
		}
	}
	read := func(r interface {
		GetStream(context.Context, string, client.GetOptions) (io.ReadCloser, *client.ObjectMeta, error)
	}, i int) error {
		body, meta, err := r.GetStream(ctx, keys[i], client.GetOptions{})
		if err != nil {
			return err
		}
		got, err := io.ReadAll(body)
		body.Close()
		if err != nil || !bytes.Equal(got, payloads[i]) || meta.Version != 0 {
			return fmt.Errorf("%d bytes of %d at v%d: %v", len(got), len(payloads[i]), meta.Version, err)
		}
		return nil
	}

	b := mc.NewBalancer(cluster.BalancerConfig{
		Interval: time.Second, Threshold: 1.5, MinOps: 50, MaxMoves: 1, Cooldown: 2,
	})
	if n, err := b.Step(ctx); err != nil || n != 0 {
		t.Fatalf("seed step: n=%d err=%v", n, err)
	}

	// Skew: hammer only shard 0's keys.
	before := mc.Map()
	for hot := 0; hot < 60; {
		for i, key := range keys {
			if owner, _ := before.OwnerOf(key); owner.ID != 0 {
				continue
			}
			if err := read(r, i); err != nil {
				t.Fatalf("hot get %q: %v", key, err)
			}
			hot++
		}
	}
	n, err := b.Step(ctx)
	if err != nil {
		t.Fatalf("balance step: %v", err)
	}
	if n != 1 || b.Moved() != 1 {
		t.Fatalf("balancer executed %d moves, want 1", n)
	}
	after := mc.Map()

	checker, _, err := mc.NewRouter("checker")
	if err != nil {
		t.Fatal(err)
	}
	migrated := 0
	for i, key := range keys {
		prev, _ := before.OwnerOf(key)
		now, _ := after.OwnerOf(key)
		if prev.ID == 1 && now.ID == 0 {
			t.Fatalf("key %q moved cold -> hot", key)
		}
		if prev.ID == 0 && now.ID == 1 {
			migrated++
		}
		if err := read(checker, i); err != nil {
			t.Fatalf("verify %q: %v", key, err)
		}
	}
	if migrated == 0 {
		t.Fatal("no erasure-coded object changed owner despite an executed move")
	}
}
