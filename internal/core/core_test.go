package core

import (
	"bytes"
	"context"
	"crypto/rand"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/enclave"
	"repro/internal/enclave/attest"
	"repro/internal/kinetic"
	"repro/internal/kinetic/kclient"
	"repro/internal/netx"
	"repro/internal/policy/value"
	"repro/internal/store"
)

// harness wires a controller to in-memory drives without TLS (the
// full TLS path is covered by the testbed integration tests).
type harness struct {
	ctl     *Controller
	drives  []*kinetic.Drive
	servers []*kinetic.Server
	lns     []*netx.Listener
}

// newHarness builds a controller over nDrives in-memory drives; media,
// when given, picks drive i's media model (nil: the default simulator).
func newHarness(t *testing.T, nDrives int, mutate func(*Config), media ...func(i int) kinetic.MediaModel) *harness {
	t.Helper()
	h := &harness{}
	secrets := &attest.Secrets{}
	if _, err := rand.Read(secrets.ObjectKey[:]); err != nil {
		t.Fatal(err)
	}
	if _, err := rand.Read(secrets.AdminSeed[:]); err != nil {
		t.Fatal(err)
	}
	cfg := Config{Replicas: 1, Encrypt: true, Secrets: secrets}
	for i := 0; i < nDrives; i++ {
		name := fmt.Sprintf("d%d", i)
		var m kinetic.MediaModel
		if len(media) > 0 {
			m = media[0](i)
		}
		drive := kinetic.NewDrive(kinetic.Config{Name: name, Media: m})
		ln := netx.NewListener(name)
		h.drives = append(h.drives, drive)
		h.lns = append(h.lns, ln)
		h.servers = append(h.servers, kinetic.Serve(drive, ln, nil))
		cfg.Drives = append(cfg.Drives, DriveEndpoint{
			Name: name,
			Dial: func(ctx context.Context) (net.Conn, error) { return ln.DialContext(ctx) },
		})
		secrets.Drives = append(secrets.Drives, attest.DriveCredential{
			Address: name, Identity: kinetic.DefaultAdminIdentity, Key: kinetic.DefaultAdminKey,
		})
	}
	if mutate != nil {
		mutate(&cfg)
	}
	ctl, err := New(context.Background(), cfg)
	if err != nil {
		t.Fatalf("controller: %v", err)
	}
	h.ctl = ctl
	t.Cleanup(func() {
		ctl.Close()
		for _, s := range h.servers {
			s.Close()
		}
	})
	return h
}

func TestVersioningRules(t *testing.T) {
	h := newHarness(t, 1, nil)
	s := h.ctl.Session("alice")
	ctx := context.Background()

	// Creation defaults to version 0.
	v, err := s.Put(ctx, "k", []byte("v0"), PutOptions{})
	if err != nil || v != 0 {
		t.Fatalf("create: v=%d err=%v", v, err)
	}
	// Explicit creation must use 0.
	if _, err := s.Put(ctx, "new", []byte("x"), PutOptions{Version: 2, HasVersion: true}); !errors.Is(err, ErrBadVersion) {
		t.Fatalf("create at v2: %v", err)
	}
	// Updates are dense: current+1 only.
	if _, err := s.Put(ctx, "k", []byte("v1"), PutOptions{Version: 5, HasVersion: true}); !errors.Is(err, ErrBadVersion) {
		t.Fatalf("sparse version: %v", err)
	}
	v, err = s.Put(ctx, "k", []byte("v1"), PutOptions{Version: 1, HasVersion: true})
	if err != nil || v != 1 {
		t.Fatalf("update: v=%d err=%v", v, err)
	}
	// Implicit update continues the sequence.
	v, err = s.Put(ctx, "k", []byte("v2"), PutOptions{})
	if err != nil || v != 2 {
		t.Fatalf("implicit update: v=%d err=%v", v, err)
	}
	// All versions readable.
	for i := int64(0); i <= 2; i++ {
		val, meta, err := s.Get(ctx, "k", GetOptions{Version: i, HasVersion: true})
		if err != nil || string(val) != fmt.Sprintf("v%d", i) || meta.Version != i {
			t.Fatalf("get v%d: %q %v", i, val, err)
		}
	}
	vers, err := s.ListVersions(ctx, "k", nil)
	if err != nil || len(vers) != 3 {
		t.Fatalf("versions: %v %v", vers, err)
	}
}

func TestGetMissing(t *testing.T) {
	h := newHarness(t, 1, nil)
	s := h.ctl.Session("alice")
	if _, _, err := s.Get(context.Background(), "ghost", GetOptions{}); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing: %v", err)
	}
}

func TestDeleteRemovesHistory(t *testing.T) {
	h := newHarness(t, 1, nil)
	s := h.ctl.Session("alice")
	ctx := context.Background()
	for i := 0; i < 4; i++ {
		if _, err := s.Put(ctx, "k", []byte(fmt.Sprint(i)), PutOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Delete(ctx, "k", DeleteOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Get(ctx, "k", GetOptions{}); !errors.Is(err, ErrNotFound) {
		t.Fatalf("after delete: %v", err)
	}
	if _, _, err := s.Get(ctx, "k", GetOptions{Version: 1, HasVersion: true}); !errors.Is(err, ErrNotFound) {
		t.Fatalf("history after delete: %v", err)
	}
	// The drive holds nothing for the key.
	if h.drives[0].Len() != 0 {
		t.Fatalf("drive still holds %d keys", h.drives[0].Len())
	}
	// The key can be recreated from scratch.
	if v, err := s.Put(ctx, "k", []byte("again"), PutOptions{}); err != nil || v != 0 {
		t.Fatalf("recreate: v=%d err=%v", v, err)
	}
}

func TestPolicyGovernsChange(t *testing.T) {
	h := newHarness(t, 1, nil)
	alice := h.ctl.Session("a11cef")
	bob := h.ctl.Session("b0bf00")
	ctx := context.Background()

	restrictive, err := h.ctl.PutPolicy(ctx, "read :- sessionKeyIs(k'a11cef')\nupdate :- sessionKeyIs(k'a11cef')")
	if err != nil {
		t.Fatal(err)
	}
	open, err := h.ctl.PutPolicy(ctx, "read :- sessionKeyIs(U)\nupdate :- sessionKeyIs(U)")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := alice.Put(ctx, "doc", []byte("x"), PutOptions{PolicyID: restrictive}); err != nil {
		t.Fatal(err)
	}
	// Bob cannot swap the policy: policy change is an update.
	if _, err := bob.Put(ctx, "doc", []byte("x"), PutOptions{PolicyID: open}); !errors.Is(err, ErrDenied) {
		t.Fatalf("bob policy change: %v", err)
	}
	// Alice can change the policy; afterwards bob may update.
	if _, err := alice.Put(ctx, "doc", []byte("x2"), PutOptions{PolicyID: open}); err != nil {
		t.Fatal(err)
	}
	if _, err := bob.Put(ctx, "doc", []byte("bob!"), PutOptions{}); err != nil {
		t.Fatalf("bob after policy change: %v", err)
	}
}

func TestPolicyPersistsAcrossCacheDrop(t *testing.T) {
	h := newHarness(t, 1, nil)
	s := h.ctl.Session("4d4e")
	ctx := context.Background()
	pid, err := h.ctl.PutPolicy(ctx, "read :- sessionKeyIs(k'4d4e')")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put(ctx, "k", []byte("v"), PutOptions{PolicyID: pid}); err != nil {
		t.Fatal(err)
	}
	// Clear in-enclave caches: the policy must come back from disk.
	h.ctl.policyCache.Clear()
	h.ctl.metaCache.Clear()
	h.ctl.objectCache.Clear()
	if _, _, err := s.Get(ctx, "k", GetOptions{}); err != nil {
		t.Fatalf("get after cache drop: %v", err)
	}
	other := h.ctl.Session("07e4")
	if _, _, err := other.Get(ctx, "k", GetOptions{}); !errors.Is(err, ErrDenied) {
		t.Fatalf("denial after cache drop: %v", err)
	}
	// The stored policy text is auditable.
	src, err := h.ctl.GetPolicySource(ctx, pid)
	if err != nil || src == "" {
		t.Fatalf("policy source: %q %v", src, err)
	}
}

// TestPutPolicyTupleDepth: a policy whose tuple pattern nests deeper
// than the drive record's decoder reads is refused at PutPolicy, not
// stored to become unreadable after its cache entry goes; one nested as
// deep as the decoder reads comes back off the drives.
func TestPutPolicyTupleDepth(t *testing.T) {
	h := newHarness(t, 1, nil)
	ctx := context.Background()
	nested := func(depth int) string {
		return "read :- sessionKeyIs(U) and certificateSays(k'aa', 60, " +
			strings.Repeat("'t'(", depth) + "U" + strings.Repeat(")", depth) + ")"
	}
	if _, err := h.ctl.PutPolicy(ctx, nested(value.MaxDepth+1)); !errors.Is(err, ErrInvalidArgument) {
		t.Errorf("a pattern nested %d deep: %v", value.MaxDepth+1, err)
	}
	pid, err := h.ctl.PutPolicy(ctx, nested(value.MaxDepth))
	if err != nil {
		t.Fatal(err)
	}
	h.ctl.DropCaches()
	if _, err := h.ctl.GetPolicySource(ctx, pid); err != nil {
		t.Errorf("a pattern nested %d deep, read back off the drives: %v", value.MaxDepth, err)
	}
}

func TestUnknownPolicyRejected(t *testing.T) {
	h := newHarness(t, 1, nil)
	s := h.ctl.Session("4d4e")
	_, err := s.Put(context.Background(), "k", []byte("v"), PutOptions{PolicyID: "deadbeef"})
	if !errors.Is(err, ErrNoSuchPolicy) {
		t.Fatalf("unknown policy: %v", err)
	}
}

func TestReplicationAndFailover(t *testing.T) {
	h := newHarness(t, 3, func(c *Config) { c.Replicas = 3 })
	s := h.ctl.Session("4d4e")
	ctx := context.Background()
	if _, err := s.Put(ctx, "k", []byte("replicated"), PutOptions{}); err != nil {
		t.Fatal(err)
	}
	// Every drive holds the object + meta.
	for i, d := range h.drives {
		if d.Len() != 2 {
			t.Fatalf("drive %d holds %d keys, want 2", i, d.Len())
		}
	}
	// Kill the primary; reads must fail over to a replica.
	placement := store.Placement("k", 3, 3)
	primary := placement[0]
	h.servers[primary].Close()
	h.ctl.metaCache.Clear()
	h.ctl.objectCache.Clear()
	val, _, err := s.Get(ctx, "k", GetOptions{})
	if err != nil || !bytes.Equal(val, []byte("replicated")) {
		t.Fatalf("failover get: %q %v", val, err)
	}
}

// TestAsyncResults: an async operation's outcome is polled through
// ResultOp — by its owner only, with errors reported under their
// taxonomy code, and not for ids never issued or aged out of the window.
func TestAsyncResults(t *testing.T) {
	h := newHarness(t, 1, nil)
	s := h.ctl.Session("4d4e")
	ctx := context.Background()
	await := func(op uint64, what string) OpResult {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for {
			res, done, ok := s.ResultOp(op)
			if ok && done {
				return res
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s never completed", what)
			}
			time.Sleep(time.Millisecond)
		}
	}
	first := s.PutOp(ctx, "k", []byte("async"), PutOptions{Async: true})
	if first.Failed() || first.OpID == 0 {
		t.Fatalf("async put not enqueued: %+v", first)
	}
	if res := await(first.OpID, "async put"); res.Err != nil {
		t.Fatalf("async failed: %v", res.Err)
	} else if res.OpID != first.OpID || res.Key != "k" || res.Version != 0 {
		t.Errorf("async result = %+v, want op %d on k at version 0", res, first.OpID)
	}
	// Another session cannot read someone else's result.
	if _, _, ok := h.ctl.Session("07e4").ResultOp(first.OpID); ok {
		t.Fatal("cross-session result leak")
	}
	// An id nobody was given is unknown.
	if _, _, ok := s.ResultOp(first.OpID + 1000); ok {
		t.Fatal("result reported for an operation id never issued")
	}
	// Async errors are reported, not swallowed.
	bad := s.PutOp(ctx, "k", []byte("x"), PutOptions{Async: true, Version: 99, HasVersion: true})
	if res := await(bad.OpID, "async error"); res.Err == nil {
		t.Fatal("bad-version async put reported success")
	} else if res.Err.Code != CodeVersionConflict {
		t.Errorf("bad-version async put: code %q, want %q", res.Err.Code, CodeVersionConflict)
	}
	// A window's worth of later operations ages the first one out.
	var last OpResult
	for i := 0; i < cache.DefaultResultCapacity; i++ {
		last = s.DeleteOp(ctx, "absent", DeleteOptions{Async: true})
	}
	if res := await(last.OpID, "async delete"); res.Err == nil || res.Err.Code != CodeNotFound {
		t.Errorf("async delete of a missing key: %+v, want not_found", res.Err)
	}
	if _, _, ok := s.ResultOp(first.OpID); ok {
		t.Error("result still served after a full window of later operations")
	}
}

// TestSessionExpiry: creating a session drops the ones idle past the
// TTL, at most once a minute by the controller's clock, and frees their
// enclave memory; nothing else has to call for it.
func TestSessionExpiry(t *testing.T) {
	var now atomic.Int64 // the controller's clock, in unix nanoseconds
	now.Store(time.Now().UnixNano())
	h := newHarness(t, 1, func(c *Config) { c.Clock = func() time.Time { return time.Unix(0, now.Load()) } })
	s1 := h.ctl.Session("ephemeral")
	resident := h.ctl.EPC().Usage()["sessions"]
	if resident == 0 {
		t.Fatal("session memory not accounted")
	}
	live := func(want int64, when string) {
		t.Helper()
		if got := h.ctl.EPC().Usage()["sessions"]; got != want*resident {
			t.Fatalf("%s: %d sessions resident, want %d", when, got/resident, want)
		}
	}
	now.Add(int64(sessionTTL))
	h.ctl.Session("second")
	live(2, "a session idle for exactly the TTL")
	now.Add(1)
	h.ctl.Session("third")
	live(3, "within a minute of the last sweep")
	now.Add(int64(time.Minute))
	h.ctl.Session("fourth")
	live(3, "a minute later")
	// A returning client gets a fresh session transparently.
	if h.ctl.Session("ephemeral") == s1 {
		t.Fatal("expired session resurrected")
	}
}

func TestSessionReuseOnReconnect(t *testing.T) {
	h := newHarness(t, 1, nil)
	if h.ctl.Session("4d4e") != h.ctl.Session("4d4e") {
		t.Fatal("same identity should reuse the session context")
	}
}

func TestContentHashVerification(t *testing.T) {
	h := newHarness(t, 1, nil)
	s := h.ctl.Session("4d4e")
	ctx := context.Background()
	if _, err := s.Put(ctx, "k", []byte("good"), PutOptions{}); err != nil {
		t.Fatal(err)
	}
	meta, err := s.Verify(ctx, "k", 0)
	if err != nil {
		t.Fatal(err)
	}
	if meta.ContentHash != store.HashContent([]byte("good")) {
		t.Fatal("verify hash mismatch")
	}
}

func TestEncryptionOnDisk(t *testing.T) {
	h := newHarness(t, 1, nil)
	s := h.ctl.Session("4d4e")
	ctx := context.Background()
	secret := []byte("super secret payload 1234567890")
	if _, err := s.Put(ctx, "k", secret, PutOptions{}); err != nil {
		t.Fatal(err)
	}
	// Read the raw drive record: the plaintext must not appear.
	cl, err := kclient.Dial(ctx,
		func(ctx context.Context) (net.Conn, error) { return h.lns[0].DialContext(ctx) },
		kclient.Credentials{Identity: AdminIdentity, Key: h.ctl.adminKeyFor("d0")})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	raw, _, err := cl.Get(ctx, store.ObjectKey("k", 0))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(raw, secret) {
		t.Fatal("plaintext visible on the drive")
	}
}

func TestBootstrapLocksOutFactoryAccount(t *testing.T) {
	h := newHarness(t, 1, nil)
	ctx := context.Background()
	cl, err := kclient.Dial(ctx,
		func(ctx context.Context) (net.Conn, error) { return h.lns[0].DialContext(ctx) },
		kclient.Credentials{Identity: kinetic.DefaultAdminIdentity, Key: kinetic.DefaultAdminKey})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Noop(ctx); !errors.Is(err, kclient.ErrNotAuthorized) {
		t.Fatalf("factory account still alive after takeover: %v", err)
	}
}

func TestAttestationGatedBootstrap(t *testing.T) {
	// Controller refuses to start when attestation fails (wrong
	// measurement registered).
	platform, err := enclave.NewPlatform()
	if err != nil {
		t.Fatal(err)
	}
	encl := platform.Launch([]byte("real"), nil, 0)
	svc := attest.NewService(platform.AttestationPublicKey())
	// Register a different measurement.
	other := platform.Launch([]byte("expected"), nil, 0)
	svc.Register(other.Measurement(), &attest.Secrets{})

	drive := kinetic.NewDrive(kinetic.Config{Name: "d"})
	ln := netx.NewListener("d")
	srv := kinetic.Serve(drive, ln, nil)
	defer srv.Close()

	_, err = New(context.Background(), Config{
		Drives: []DriveEndpoint{{
			Name: "d",
			Dial: func(ctx context.Context) (net.Conn, error) { return ln.DialContext(ctx) },
		}},
		Enclave:     encl,
		Attestation: svc,
	})
	if err == nil {
		t.Fatal("controller started with failing attestation")
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(context.Background(), Config{}); err == nil {
		t.Error("no drives accepted")
	}
	_, err := New(context.Background(), Config{
		Drives:   []DriveEndpoint{{Name: "a"}, {Name: "b"}},
		Replicas: 3,
		Secrets:  &attest.Secrets{},
	})
	if err == nil {
		t.Error("replicas > drives accepted")
	}
	_, err = New(context.Background(), Config{Drives: []DriveEndpoint{{Name: "a"}}})
	if err == nil {
		t.Error("missing secrets accepted")
	}
}

func TestLogKeyFor(t *testing.T) {
	if LogKeyFor("x") != "x.log" {
		t.Fatalf("log key = %q", LogKeyFor("x"))
	}
}

func TestObjectSizeLimit(t *testing.T) {
	h := newHarness(t, 1, nil)
	s := h.ctl.Session("4d4e")
	_, err := s.Put(context.Background(), "big", make([]byte, store.MaxObjectSize+1), PutOptions{})
	if !errors.Is(err, store.ErrTooLarge) {
		t.Fatalf("oversized object: %v", err)
	}
}

// TestFetchMetaBindsRecordToKey: a drive answering m/k1 with m/k2's
// record must not hand k1's policy check k2's policy. The mis-keyed
// copy counts as corrupt — the next replica stands in — and with no
// honest replica the read fails rather than trusting the record. Repair
// and the sweeper elect k1's newest metadata under the same binding:
// however high k2's version, its record is the copy that gets replaced,
// never the one written onto the honest replicas.
func TestFetchMetaBindsRecordToKey(t *testing.T) {
	h := newHarness(t, 2, func(c *Config) { c.Replicas = 2 })
	owner, other := h.ctl.Session("aa"), h.ctl.Session("bb")
	ctx := context.Background()
	private, err := h.ctl.PutPolicy(ctx, "read :- sessionKeyIs(k'aa')\nupdate :- sessionKeyIs(k'aa')")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := owner.Put(ctx, "k1", []byte("classified"), PutOptions{PolicyID: private}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ { // k2 ends a version ahead of k1
		if _, err := other.Put(ctx, "k2", []byte("anyone's"), PutOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	k2 := driveMetaBytes(t, h, 0, "k2")

	plantMeta(t, h, 0, "k1", k2)
	for i := 0; i < 20; i++ { // whichever replica the read engine asks first
		m, err := h.ctl.drives.ReadHead(ctx, "k1", h.ctl.placement("k1"))
		if err != nil || m.Key != "k1" || m.PolicyID != private {
			t.Fatalf("read %d with one mis-keyed replica: %+v, %v", i, m, err)
		}
		h.ctl.metaCache.Clear()
		if _, _, err := other.Get(ctx, "k1", GetOptions{}); !errors.Is(err, ErrDenied) {
			t.Fatalf("read %d: k1 served to a reader its policy denies: %v", i, err)
		}
	}
	for _, heal := range []struct {
		name string
		run  func() error
	}{
		{"repair", func() error { _, err := owner.Repair(ctx, "k1"); return err }},
		{"sweep", func() error { _, err := h.ctl.SweepTick(ctx); return err }},
	} {
		plantMeta(t, h, 0, "k1", k2)
		h.ctl.metaCache.Clear()
		if err := heal.run(); err != nil {
			t.Fatalf("%s: %v", heal.name, err)
		}
		if m, ok := h.ctl.metaCache.Get("k1"); !ok || m.Key != "k1" || m.PolicyID != private {
			t.Fatalf("%s cached %+v for k1", heal.name, m)
		}
		for di := range h.drives {
			m := new(store.Meta)
			if err := h.ctl.codec.DecodeMeta(driveMetaBytes(t, h, di, "k1"), "k1", m); err != nil || m.PolicyID != private {
				t.Fatalf("%s left drive %d answering m/k1 with %+v, %v", heal.name, di, m, err)
			}
		}
		if _, _, err := other.Get(ctx, "k1", GetOptions{}); !errors.Is(err, ErrDenied) {
			t.Fatalf("after %s: k1 served to a reader its policy denies: %v", heal.name, err)
		}
	}
	plantMeta(t, h, 0, "k1", k2)
	plantMeta(t, h, 1, "k1", k2)
	if m, err := h.ctl.drives.ReadHead(ctx, "k1", h.ctl.placement("k1")); !errors.Is(err, store.ErrCorrupt) {
		t.Fatalf("every replica mis-keyed: %+v, %v; want store.ErrCorrupt", m, err)
	}
}
