package kclient

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/kinetic"
	"repro/internal/kinetic/wire"
	"repro/internal/netx"
)

// startDrive serves a fresh drive over the in-memory network and
// returns a connected client with factory credentials.
func startDrive(t *testing.T) (*kinetic.Drive, *Client) {
	t.Helper()
	drive := kinetic.NewDrive(kinetic.Config{Name: "t"})
	ln := netx.NewListener("drive")
	srv := kinetic.Serve(drive, ln, nil)
	t.Cleanup(func() { srv.Close(); ln.Close() })
	cl, err := Dial(context.Background(),
		func(ctx context.Context) (net.Conn, error) { return ln.DialContext(ctx) },
		Credentials{Identity: kinetic.DefaultAdminIdentity, Key: kinetic.DefaultAdminKey})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { cl.Close() })
	return drive, cl
}

func TestClientPutGetDelete(t *testing.T) {
	_, cl := startDrive(t)
	ctx := context.Background()
	if err := cl.Put(ctx, []byte("k"), []byte("v"), nil, []byte("1"), false); err != nil {
		t.Fatalf("put: %v", err)
	}
	v, ver, err := cl.Get(ctx, []byte("k"))
	if err != nil || !bytes.Equal(v, []byte("v")) || !bytes.Equal(ver, []byte("1")) {
		t.Fatalf("get: %q %q %v", v, ver, err)
	}
	gv, err := cl.GetVersion(ctx, []byte("k"))
	if err != nil || !bytes.Equal(gv, []byte("1")) {
		t.Fatalf("getversion: %q %v", gv, err)
	}
	if err := cl.Delete(ctx, []byte("k"), []byte("1"), false); err != nil {
		t.Fatalf("delete: %v", err)
	}
	if _, _, err := cl.Get(ctx, []byte("k")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("get deleted: %v", err)
	}
}

func TestClientVersionMismatch(t *testing.T) {
	_, cl := startDrive(t)
	ctx := context.Background()
	if err := cl.Put(ctx, []byte("k"), []byte("v"), nil, []byte("1"), false); err != nil {
		t.Fatal(err)
	}
	err := cl.Put(ctx, []byte("k"), []byte("v2"), []byte("WRONG"), []byte("2"), false)
	if !errors.Is(err, ErrVersionMismatch) {
		t.Fatalf("want version mismatch, got %v", err)
	}
}

func TestClientRange(t *testing.T) {
	_, cl := startDrive(t)
	ctx := context.Background()
	for i := 0; i < 10; i++ {
		if err := cl.Put(ctx, []byte(fmt.Sprintf("k%02d", i)), []byte("v"), nil, nil, true); err != nil {
			t.Fatal(err)
		}
	}
	keys, err := cl.GetKeyRange(ctx, []byte("k03"), []byte("k07"), true, false, 100)
	if err != nil || len(keys) != 5 {
		t.Fatalf("range: %d keys, %v", len(keys), err)
	}
}

func TestClientSecurityAndCredentialSwitch(t *testing.T) {
	drive, cl := startDrive(t)
	ctx := context.Background()
	newKey := []byte("new-admin-secret")
	err := cl.SetSecurity(ctx, []wire.ACL{
		{Identity: "pesos-admin", Key: newKey, Perms: wire.PermAll},
	}, nil)
	if err != nil {
		t.Fatalf("set security: %v", err)
	}
	// Old credentials no longer work.
	if err := cl.Noop(ctx); !errors.Is(err, ErrNotAuthorized) {
		t.Fatalf("noop with stale creds: %v", err)
	}
	// Switching credentials on the same connection recovers.
	cl.SetCredentials(Credentials{Identity: "pesos-admin", Key: newKey})
	if err := cl.Noop(ctx); err != nil {
		t.Fatalf("noop with new creds: %v", err)
	}
	if got := drive.Accounts(); len(got) != 1 || got[0] != "pesos-admin" {
		t.Fatalf("accounts after takeover: %v", got)
	}
}

func TestClientEraseAndLog(t *testing.T) {
	drive, cl := startDrive(t)
	ctx := context.Background()
	for i := 0; i < 5; i++ {
		if err := cl.Put(ctx, []byte(fmt.Sprintf("k%d", i)), []byte("v"), nil, nil, true); err != nil {
			t.Fatal(err)
		}
	}
	log, err := cl.GetLog(ctx)
	if err != nil || log["keys"] != "5" {
		t.Fatalf("getlog: %v %v", log, err)
	}
	if err := cl.InstantErase(ctx, nil); err != nil {
		t.Fatalf("erase: %v", err)
	}
	if drive.Len() != 0 {
		t.Fatalf("%d keys after erase", drive.Len())
	}
}

// TestClientConcurrentPipelining exercises many in-flight requests on
// one connection — the decoupled request/response design of §4.3.
func TestClientConcurrentPipelining(t *testing.T) {
	_, cl := startDrive(t)
	ctx := context.Background()
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				key := []byte(fmt.Sprintf("w%d-k%d", w, i))
				if err := cl.Put(ctx, key, []byte("v"), nil, nil, true); err != nil {
					errs <- err
					return
				}
				if _, _, err := cl.Get(ctx, key); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestClientReconnectAfterConnLoss(t *testing.T) {
	drive := kinetic.NewDrive(kinetic.Config{Name: "t"})
	ln := netx.NewListener("drive")
	srv := kinetic.Serve(drive, ln, nil)
	defer srv.Close()
	defer ln.Close()

	var mu sync.Mutex
	var conns []net.Conn
	dial := func(ctx context.Context) (net.Conn, error) {
		c, err := ln.DialContext(ctx)
		if err == nil {
			mu.Lock()
			conns = append(conns, c)
			mu.Unlock()
		}
		return c, err
	}
	cl, err := Dial(context.Background(), dial,
		Credentials{Identity: kinetic.DefaultAdminIdentity, Key: kinetic.DefaultAdminKey})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx := context.Background()
	if err := cl.Put(ctx, []byte("k"), []byte("v"), nil, nil, true); err != nil {
		t.Fatal(err)
	}
	// Sever the connection from underneath the client.
	mu.Lock()
	conns[0].Close()
	mu.Unlock()
	// The next call may fail once, then the lazy reconnect recovers.
	var got []byte
	for attempt := 0; attempt < 3; attempt++ {
		if got, _, err = cl.Get(ctx, []byte("k")); err == nil {
			break
		}
	}
	if err != nil || !bytes.Equal(got, []byte("v")) {
		t.Fatalf("after reconnect: %q %v", got, err)
	}
}

// severableConn is a connection that can be closed under its client
// without the client's reader noticing: once severed, Write fails as on
// a closed connection — after passing one byte on, when partial — while
// Read stays blocked.
type severableConn struct {
	net.Conn
	severed, partial atomic.Bool
}

func (c *severableConn) Write(b []byte) (int, error) {
	if !c.severed.Load() {
		return c.Conn.Write(b)
	}
	if c.partial.Load() {
		n, _ := c.Conn.Write(b[:1])
		return n, net.ErrClosed
	}
	return 0, net.ErrClosed
}

// TestRequestOnAConnectionClosedUnderItIsRedialedOnce: a request whose
// send fails before a byte of it reached the connection is sent once
// more on a fresh one; a request the drive may have seen part of is not.
func TestRequestOnAConnectionClosedUnderItIsRedialedOnce(t *testing.T) {
	drive := kinetic.NewDrive(kinetic.Config{Name: "t"})
	ln := netx.NewListener("drive")
	srv := kinetic.Serve(drive, ln, nil)
	t.Cleanup(func() { srv.Close(); ln.Close() })
	var mu sync.Mutex
	var conns []*severableConn
	dial := func(ctx context.Context) (net.Conn, error) {
		c, err := ln.DialContext(ctx)
		if err != nil {
			return nil, err
		}
		sc := &severableConn{Conn: c}
		mu.Lock()
		conns = append(conns, sc)
		mu.Unlock()
		return sc, nil
	}
	dials := func() int {
		mu.Lock()
		defer mu.Unlock()
		return len(conns)
	}
	sever := func(partial bool) {
		mu.Lock()
		defer mu.Unlock()
		c := conns[len(conns)-1]
		c.partial.Store(partial)
		c.severed.Store(true)
	}
	cl, err := Dial(context.Background(), dial,
		Credentials{Identity: kinetic.DefaultAdminIdentity, Key: kinetic.DefaultAdminKey})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx := context.Background()
	if err := cl.Put(ctx, []byte("k"), []byte("v"), nil, nil, true); err != nil {
		t.Fatal(err)
	}

	sever(false)
	if got, _, err := cl.Get(ctx, []byte("k")); err != nil || string(got) != "v" {
		t.Fatalf("get on a connection closed under the client: %q, %v", got, err)
	}
	if n := dials(); n != 2 {
		t.Fatalf("%d dials, want 2: one redial", n)
	}

	sever(true)
	if err := cl.Put(ctx, []byte("k"), []byte("w"), nil, nil, true); !errors.Is(err, net.ErrClosed) {
		t.Fatalf("put with a byte sent: %v, want the closed connection's error", err)
	}
	if n := dials(); n != 2 {
		t.Fatalf("%d dials, want 2: a request the drive may have seen was sent again", n)
	}
}

func TestClientClosedErrors(t *testing.T) {
	_, cl := startDrive(t)
	cl.Close()
	if err := cl.Noop(context.Background()); !errors.Is(err, ErrClosed) {
		t.Fatalf("after close: %v", err)
	}
}

// batch submits ops as a one-group batch and returns the group's verdict.
func batch(ctx context.Context, cl *Client, ops []wire.BatchOp) error {
	verdicts, err := cl.BatchGroups(ctx, ops, []uint32{uint32(len(ops))}, wire.SyncWriteThrough)
	if err != nil {
		return err
	}
	return verdicts[0]
}

func TestClientBatch(t *testing.T) {
	drive, cl := startDrive(t)
	ctx := context.Background()
	err := batch(ctx, cl, []wire.BatchOp{
		{Op: wire.BatchPut, Key: []byte("obj"), Value: []byte("payload"), NewVersion: []byte("1"), Force: true},
		{Op: wire.BatchPut, Key: []byte("meta"), Value: []byte("m"), NewVersion: []byte("1")},
	})
	if err != nil {
		t.Fatalf("batch: %v", err)
	}
	if drive.Len() != 2 {
		t.Fatalf("drive holds %d keys, want 2", drive.Len())
	}

	// A stale CAS on the second sub-op rejects the whole group and
	// reports the failing index through BatchError.
	err = batch(ctx, cl, []wire.BatchOp{
		{Op: wire.BatchPut, Key: []byte("obj2"), Value: []byte("p2"), NewVersion: []byte("2"), Force: true},
		{Op: wire.BatchPut, Key: []byte("meta"), Value: []byte("m2"), DBVersion: []byte("stale"), NewVersion: []byte("2")},
	})
	if !errors.Is(err, ErrVersionMismatch) {
		t.Fatalf("stale batch: %v, want ErrVersionMismatch", err)
	}
	var be *BatchError
	if !errors.As(err, &be) || be.Index != 1 {
		t.Fatalf("batch error index: %v", err)
	}
	if _, _, err := cl.Get(ctx, []byte("obj2")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("rejected batch left residue: %v", err)
	}
}

func TestClientBatchPipelining(t *testing.T) {
	// Batches share the pending-table pipeline: many in flight on one
	// connection, correlated by sequence number.
	_, cl := startDrive(t)
	ctx := context.Background()
	var wg sync.WaitGroup
	errCh := make(chan error, 32)
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			key := fmt.Sprintf("k%d", i)
			errCh <- batch(ctx, cl, []wire.BatchOp{
				{Op: wire.BatchPut, Key: []byte("o/" + key), Value: []byte(key), NewVersion: []byte("1"), Force: true},
				{Op: wire.BatchPut, Key: []byte("m/" + key), Value: []byte(key), NewVersion: []byte("1"), Force: true},
			})
		}(i)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		if err != nil {
			t.Fatalf("pipelined batch: %v", err)
		}
	}
}

// TestSlowRedialDoesNotBlockOtherCallers pins the reconnect fix: while
// one caller is stuck in a slow redial, a concurrent caller with a
// short deadline returns promptly (its context error) instead of
// queueing on the client mutex behind the dial, and SetCredentials
// stays responsive.
func TestSlowRedialDoesNotBlockOtherCallers(t *testing.T) {
	drive := kinetic.NewDrive(kinetic.Config{Name: "t"})
	ln := netx.NewListener("drive")
	srv := kinetic.Serve(drive, ln, nil)
	t.Cleanup(func() { srv.Close(); ln.Close() })

	dialStarted := make(chan struct{}, 8)
	releaseDial := make(chan struct{})
	var first atomic.Bool
	first.Store(true)
	cl, err := Dial(context.Background(), func(ctx context.Context) (net.Conn, error) {
		if first.CompareAndSwap(true, false) {
			return ln.DialContext(ctx) // initial connect succeeds at once
		}
		dialStarted <- struct{}{}
		select {
		case <-releaseDial:
			return ln.DialContext(ctx)
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}, Credentials{Identity: kinetic.DefaultAdminIdentity, Key: kinetic.DefaultAdminKey})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { cl.Close() })

	// Sever the connection so the next call must redial.
	cl.mu.Lock()
	cl.conn.Close()
	cl.conn = nil
	cl.mu.Unlock()

	// Leader: blocks inside the gated redial.
	leaderErr := make(chan error, 1)
	go func() { leaderErr <- cl.Noop(context.Background()) }()
	<-dialStarted

	// A second caller with an already-expired context must not hang.
	expired, cancel := context.WithCancel(context.Background())
	cancel()
	done := make(chan error, 1)
	go func() { done <- cl.Noop(expired) }()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("waiter error: %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("caller blocked behind the in-flight redial")
	}

	// SetCredentials must not block behind the dial either.
	credsDone := make(chan struct{})
	go func() {
		cl.SetCredentials(Credentials{Identity: kinetic.DefaultAdminIdentity, Key: kinetic.DefaultAdminKey})
		close(credsDone)
	}()
	select {
	case <-credsDone:
	case <-time.After(2 * time.Second):
		t.Fatal("SetCredentials blocked behind the in-flight redial")
	}

	// Release the dial: the leader's call completes against the drive.
	close(releaseDial)
	if err := <-leaderErr; err != nil {
		t.Fatalf("leader after redial: %v", err)
	}
}

// TestReconnectChurn hammers a client from many goroutines while the
// connection is repeatedly severed: every caller either succeeds or
// gets a transport error, the client never deadlocks, and it always
// recovers once the network calms down.
func TestReconnectChurn(t *testing.T) {
	drive := kinetic.NewDrive(kinetic.Config{Name: "t"})
	ln := netx.NewListener("drive")
	srv := kinetic.Serve(drive, ln, nil)
	t.Cleanup(func() { srv.Close(); ln.Close() })
	cl, err := Dial(context.Background(),
		func(ctx context.Context) (net.Conn, error) { return ln.DialContext(ctx) },
		Credentials{Identity: kinetic.DefaultAdminIdentity, Key: kinetic.DefaultAdminKey})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { cl.Close() })

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
				ctx, cancel := context.WithTimeout(context.Background(), time.Second)
				cl.Noop(ctx) // transport errors are expected mid-churn
				cancel()
			}
		}()
	}
	for i := 0; i < 30; i++ {
		cl.mu.Lock()
		if cl.conn != nil {
			cl.conn.Close()
		}
		cl.mu.Unlock()
		time.Sleep(2 * time.Millisecond)
	}
	close(stop)
	wg.Wait()
	// After the churn the client must still serve requests.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := cl.Noop(ctx); err != nil {
		t.Fatalf("client did not recover after churn: %v", err)
	}
}

// TestUnsendableReplyFailsTheCall: a reply the drive cannot frame (a
// record past the frame limit, here installed behind the wire's back)
// must not strand its caller on a connection that still looks alive.
// The drive drops the connection; the call fails at once, and the
// client redials for the next one.
func TestUnsendableReplyFailsTheCall(t *testing.T) {
	drive, cl := startDrive(t)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := drive.P2PPut([]byte("big"), make([]byte, wire.MaxMessageSize+1), []byte("1")); err != nil {
		t.Fatal(err)
	}
	if err := cl.Put(ctx, []byte("small"), []byte("v"), nil, []byte("1"), true); err != nil {
		t.Fatal(err)
	}
	_, _, err := cl.Get(ctx, []byte("big"))
	if err == nil || errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("over-size reply: %v, want a prompt transport error", err)
	}
	if v, _, err := cl.Get(ctx, []byte("small")); err != nil || string(v) != "v" {
		t.Fatalf("after the dropped connection: %q, %v", v, err)
	}
}

// TestOversizeRangeIsTruncated: a listing past the frame limit — the
// reply that used to be unsendable — comes back cut and marked, and the
// caller drains the range by resuming past the last key.
func TestOversizeRangeIsTruncated(t *testing.T) {
	_, cl := startDrive(t)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	pad := bytes.Repeat([]byte("k"), 3000)
	for i := 0; i < 800; i++ { // 800 keys x 3 KB: a 2.4 MB listing
		key := append([]byte(fmt.Sprintf("%04d/", i)), pad...)
		if err := cl.Put(ctx, key, []byte("v"), nil, []byte("1"), true); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	got, rounds := 0, 0
	start, inclusive := []byte("0"), true
	for {
		kr, err := cl.Range(ctx, start, []byte("9"), inclusive, false, 800, rounds%2 == 1)
		if err != nil {
			t.Fatalf("round %d: %v", rounds, err)
		}
		got += len(kr.Keys)
		rounds++
		if !kr.Truncated {
			break
		}
		start, inclusive = kr.Keys[len(kr.Keys)-1], false
	}
	if got != 800 || rounds < 2 {
		t.Fatalf("drained %d keys in %d replies, want 800 in several", got, rounds)
	}
}

// TestReleasedValueFrameIsReused: a chunk-sized get reply handed back
// by Release lends its frame to the next one, status replies in between
// do not take it, and an unreleased value stays intact.
func TestReleasedValueFrameIsReused(t *testing.T) {
	_, cl := startDrive(t)
	ctx := context.Background()
	big := bytes.Repeat([]byte{0x5a}, 1<<20)
	for _, k := range []string{"a", "b"} {
		if err := cl.Put(ctx, []byte(k), big, nil, []byte("1"), true); err != nil {
			t.Fatal(err)
		}
	}
	get := func(k string, release bool) {
		v, err := cl.GetValue(ctx, []byte(k))
		if err != nil || !bytes.Equal(v.Value, big) || !bytes.Equal(v.Version, []byte("1")) {
			t.Fatalf("get %s: %d bytes, version %q, %v", k, len(v.Value), v.Version, err)
		}
		if release {
			v.Release()
		}
	}
	// One P and no collection: what a sync.Pool is handed back it
	// hands out again, so the byte count below is exact.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	get("a", true) // the frame every later released get reads into
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 4; i++ {
		get("a", true)
		if err := cl.Put(ctx, []byte("s"), []byte("small"), nil, []byte("1"), true); err != nil {
			t.Fatal(err)
		}
		get("b", true)
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 512<<10 && !raceEnabled {
		t.Fatalf("eight released 1 MiB gets allocated %d bytes", grew)
	}

	kept, err := cl.GetValue(ctx, []byte("a"))
	if err != nil {
		t.Fatal(err)
	}
	get("b", true)
	get("b", true)
	if !bytes.Equal(kept.Value, big) {
		t.Fatal("a value that was never released was overwritten by a later reply")
	}

	// Status replies go back to the pool small values come from: one
	// released between a kept value and the next ones is never the kept
	// value's message.
	small, err := cl.GetValue(ctx, []byte("s"))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := cl.Put(ctx, []byte("t"), []byte("other"), nil, []byte("2"), true); err != nil {
			t.Fatal(err)
		}
		v, err := cl.GetValue(ctx, []byte("t"))
		if err != nil || string(v.Value) != "other" {
			t.Fatalf("get t: %q, %v", v.Value, err)
		}
		v.Release()
	}
	if string(small.Value) != "small" || string(small.Version) != "1" {
		t.Fatalf("a kept value read %q at version %q after released status replies", small.Value, small.Version)
	}
}

// TestPutRoundTripAllocs pins what one put round trip allocates, the
// drive's side (it shares the process) included: 5. It was 9 before the
// status reply — a message and its frame — went back to the pool, and 7
// before the drive read its request into a pooled message as well.
func TestPutRoundTripAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a quarter of what it is handed under the race detector")
	}
	_, cl := startDrive(t)
	ctx := context.Background()
	key, value, version := []byte("k"), bytes.Repeat([]byte("v"), 100), []byte("1")
	put := func() {
		if err := cl.Put(ctx, key, value, nil, version, true); err != nil {
			t.Fatal(err)
		}
	}
	put()
	if n := testing.AllocsPerRun(200, put); n > 5 {
		t.Errorf("a put round trip allocates %.1f times, budget 5", n)
	}
}

// TestSendBlockedOnADeafPeer: a peer that accepted the connection and
// never reads blocks the sender in its write. Neither Close nor the
// caller's own context may wait behind that write — both must end it:
// Close closes the connection under the sender, and so does the watch on
// the send once its caller's context is cancelled.
func TestSendBlockedOnADeafPeer(t *testing.T) {
	within := func(t *testing.T, what string, done <-chan struct{}) {
		t.Helper()
		select {
		case <-done:
		case <-time.After(time.Second):
			t.Fatalf("%s still blocked after 1s", what)
		}
	}
	deaf := func(t *testing.T) *Client {
		t.Helper()
		cl, err := Dial(context.Background(), func(context.Context) (net.Conn, error) {
			client, server := net.Pipe() // nobody ever reads server
			t.Cleanup(func() { server.Close() })
			return client, nil
		}, Credentials{Identity: kinetic.DefaultAdminIdentity, Key: kinetic.DefaultAdminKey})
		if err != nil {
			t.Fatal(err)
		}
		return cl
	}
	// get issues a read on its own goroutine; failed closes once it has
	// returned an error.
	get := func(t *testing.T, ctx context.Context, cl *Client) (failed chan struct{}) {
		failed = make(chan struct{})
		go func() {
			if _, _, err := cl.Get(ctx, []byte("k")); err == nil {
				t.Error("get through a peer that never reads succeeded")
			}
			close(failed)
		}()
		return failed
	}
	// sending waits until the read is inside its write.
	sending := func(t *testing.T, cl *Client) {
		t.Helper()
		cl.mu.Lock()
		conn := cl.conn
		cl.mu.Unlock()
		inProgress := func() bool {
			conn.smu.Lock()
			defer conn.smu.Unlock()
			return conn.sending != nil
		}
		for deadline := time.Now().Add(time.Second); !inProgress(); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatal("the read never started sending")
			}
		}
	}

	t.Run("close", func(t *testing.T) {
		cl := deaf(t)
		failed := get(t, context.Background(), cl)
		sending(t, cl)
		closed := make(chan struct{})
		go func() { cl.Close(); close(closed) }()
		within(t, "Close", closed)
		within(t, "the round trip under Close", failed)
	})
	t.Run("cancel", func(t *testing.T) {
		cl := deaf(t)
		defer cl.Close()
		ctx, cancel := context.WithCancel(context.Background())
		failed := get(t, ctx, cl)
		sending(t, cl)
		cancel()
		within(t, "the cancelled round trip", failed)
		// A second caller is not stuck behind the first's write lock.
		ctx2, cancel2 := context.WithTimeout(context.Background(), 50*time.Millisecond)
		defer cancel2()
		within(t, "a second round trip", get(t, ctx2, cl))
	})
}

// TestClientGetMany: one round trip answers every key, found or absent;
// the client refuses before sending a request the drive would refuse,
// and hands on a well-formed reply as the drive gave it, lies included,
// for its caller to judge.
func TestClientGetMany(t *testing.T) {
	drive, cl := startDrive(t)
	ctx := context.Background()
	if err := cl.Put(ctx, []byte("a"), []byte("va"), nil, []byte("1"), false); err != nil {
		t.Fatal(err)
	}
	m, err := cl.GetMany(ctx, [][]byte{[]byte("a"), []byte("b")})
	if err != nil || len(m.Keys) != 2 || !m.Found[0] || m.Found[1] || string(m.Values[0]) != "va" || len(m.Values[1]) != 0 || m.Truncated {
		t.Fatalf("reply %+v, %v", m, err)
	}
	m.Release()
	if got := drive.Stats().GetManys.Load(); got != 1 {
		t.Errorf("%d multi-key reads reached the drive, want 1", got)
	}
	for _, n := range []int{0, wire.MaxBatchOps + 1} {
		if _, err := cl.GetMany(ctx, make([][]byte, n)); err == nil {
			t.Errorf("%d keys: no error", n)
		}
	}
	if got := drive.Stats().GetManys.Load(); got != 1 {
		t.Errorf("requests the client refused reached the drive: %d multi-key reads", got)
	}
	drive.SetFaults(kinetic.Faults{RangeLie: kinetic.RangeCutToNothing})
	if m, err := cl.GetMany(ctx, [][]byte{[]byte("a")}); err != nil || len(m.Keys) != 0 || !m.Truncated {
		t.Errorf("a reply cut to nothing: %+v, %v; the client passes it on for its caller to judge", m, err)
	}
}
