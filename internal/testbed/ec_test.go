package testbed

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/client"
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

// ecShardKeys enumerates every shard record key of an EC object: the
// data chunks plus each stripe's parity records.
func ecShardKeys(key string, version, chunks int64, k, m int) [][]byte {
	var out [][]byte
	for idx := int64(0); idx < chunks; idx++ {
		out = append(out, store.ChunkKey(key, version, idx))
	}
	stripes := (chunks + int64(k) - 1) / int64(k)
	for t := int64(0); t < stripes; t++ {
		for j := 0; j < m; j++ {
			out = append(out, store.ChunkKey(key, version, store.ParityIndex(t, int64(m), int64(j))))
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
	version, chunks := res.Version, int64(6)
	shardKeys := ecShardKeys(key, version, chunks, k, m)

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

// TestHandoffOfErasureCodedObjectIsRefused pins a limit (docs/cluster.md):
// the export walks a key's replica placement, an erasure-coded object's
// shards live across its wider group, so the gaining shard cannot read
// the object back and refuses the range at import verification. The
// source keeps serving the object byte-identical, destroys nothing and
// takes writes to the key again.
func TestHandoffOfErasureCodedObjectIsRefused(t *testing.T) {
	mc, err := StartMulti(2, ecOpts(8))
	if err != nil {
		t.Fatal(err)
	}
	defer mc.Close()
	ctx := context.Background()
	src := mc.Nodes[0].Controller.Session("ec-handoff")
	key := ""
	for i := 0; key == ""; i++ {
		if k := fmt.Sprintf("ec/moving-%d", i); mc.Map().ShardByID(0).Owns(store.ShardHash(k)) {
			key = k
		}
	}
	payload := make([]byte, 6<<20)
	rand.New(rand.NewSource(23)).Read(payload)
	if res := src.PutStream(ctx, key, bytes.NewReader(payload), core.PutOptions{}); res.Err != nil {
		t.Fatal(res.Err)
	}
	shardKeys := ecShardKeys(key, 0, 6, 4, 2)
	held := func() (n int) {
		for _, dk := range shardKeys {
			for di := range mc.Nodes[0].Drives {
				if driveHasRecord(t, mc.Nodes[0], di, dk) {
					n++
				}
			}
		}
		return n
	}
	if got := held(); got != len(shardKeys) {
		t.Fatalf("source holds %d of %d shard records", got, len(shardKeys))
	}

	h := store.ShardHash(key)
	_, err = mc.Handoff(ctx, 0, 1, core.HashRange{Start: h, End: h + 1})
	if err == nil || !strings.Contains(err.Error(), "import verification") {
		t.Fatalf("handoff of an erasure-coded object: %v, want a refusal at import verification", err)
	}
	t.Logf("refused: %v", err)

	if got := held(); got != len(shardKeys) {
		t.Errorf("after the refused handoff the source holds %d of %d shard records", got, len(shardKeys))
	}
	_, send, err := src.GetStream(ctx, key, core.GetOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var back bytes.Buffer
	if err := send(&back); err != nil || !bytes.Equal(back.Bytes(), payload) {
		t.Fatalf("read back %d bytes of %d, %v", back.Len(), len(payload), err)
	}
	if v, err := src.Put(ctx, key, []byte("small again"), core.PutOptions{}); err != nil || v != 1 {
		t.Fatalf("write after the refused handoff: v%d, %v", v, err)
	}
}
