package kinetic

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/kinetic/kclient"
	"repro/internal/kinetic/wire"
	"repro/internal/netx"
)

// TestServerRecyclesRequestFrames: the server reads every request into
// a pooled frame and hands it to the next request once the reply is
// out, so nothing a drive stores may alias one. On one connection,
// puts of two different 1 MiB values, a batch and a P2P push each read
// back byte-exact after later requests have reused their frames, and
// 1 MiB puts grow the heap by less than one frame between them.
func TestServerRecyclesRequestFrames(t *testing.T) {
	peer := NewDrive(Config{Name: "peer"})
	d := NewDrive(Config{Name: "src", P2PDial: func(name string) (P2PTarget, error) {
		if name != "peer" {
			return nil, fmt.Errorf("unknown peer %s", name)
		}
		return peer, nil
	}})
	ln := netx.NewListener("drive")
	srv := Serve(d, ln, nil)
	t.Cleanup(func() { srv.Close(); ln.Close() })
	cl, err := kclient.Dial(context.Background(),
		func(ctx context.Context) (net.Conn, error) { return ln.DialContext(ctx) },
		kclient.Credentials{Identity: DefaultAdminIdentity, Key: DefaultAdminKey})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	ctx := context.Background()

	rng := rand.New(rand.NewSource(1))
	value := func(n int) []byte {
		v := make([]byte, n)
		rng.Read(v)
		return v
	}
	want := map[string][]byte{"a": value(1 << 20), "b": value(1 << 20), "c": value(512 << 10), "d": value(512 << 10), "e": value(1 << 20)}
	put := func(k string) {
		t.Helper()
		if err := cl.Put(ctx, []byte(k), want[k], nil, []byte("v"+k), true); err != nil {
			t.Fatalf("put %s: %v", k, err)
		}
	}
	put("a")
	put("b")
	errs, err := cl.BatchGroups(ctx, []wire.BatchOp{
		{Op: wire.BatchPut, Key: []byte("c"), Value: want["c"], NewVersion: []byte("vc"), Force: true},
		{Op: wire.BatchPut, Key: []byte("d"), Value: want["d"], NewVersion: []byte("vd"), Force: true},
	}, []uint32{2}, wire.SyncWriteThrough)
	if err != nil || errs[0] != nil {
		t.Fatalf("batch: %v, %v", err, errs)
	}
	if err := cl.P2PPush(ctx, []byte("a"), "peer"); err != nil {
		t.Fatalf("p2p push: %v", err)
	}
	put("e")
	for _, k := range []string{"a", "b", "c", "d", "e"} {
		v, ver, err := cl.Get(ctx, []byte(k))
		if err != nil || !bytes.Equal(v, want[k]) || string(ver) != "v"+k {
			t.Fatalf("get %s: %d bytes, version %q, %v: not what was put", k, len(v), ver, err)
		}
	}
	if v, ver, ok := peer.store.get([]byte("a"), new(reply)); !ok || !bytes.Equal(v, want["a"]) || string(ver) != "va" {
		t.Fatalf("pushed copy: %d bytes, version %q, found %v: not what was put", len(v), ver, ok)
	}

	// One P and no collection: what a sync.Pool is handed back it hands
	// out again, so the byte count is exact.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	put("a")
	const puts = 8
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < puts; i++ {
		put("a")
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 512<<10 && !raceEnabled {
		t.Fatalf("%d 1 MiB puts allocated %d bytes", puts, grew)
	}
}
