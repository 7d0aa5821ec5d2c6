package core

import (
	"bytes"
	"context"
	"crypto/rand"
	"fmt"
	"net"
	"sync/atomic"
	"testing"

	"repro/internal/enclave/attest"
	"repro/internal/kinetic"
	"repro/internal/kinetic/wire"
	"repro/internal/netx"
	"repro/internal/store"
)

// TestPutIssuesOneBatchPerReplica pins the wire shape of the write
// path: one atomic batch request per replica drive carrying exactly
// the object record and the metadata record, no singleton puts.
func TestPutIssuesOneBatchPerReplica(t *testing.T) {
	h := newHarness(t, 3, func(c *Config) { c.Replicas = 3 })
	s := h.ctl.Session("w")
	if _, err := s.Put(context.Background(), "k", []byte("v"), PutOptions{}); err != nil {
		t.Fatal(err)
	}
	for di, d := range h.drives {
		st := d.Stats()
		if got := st.Batches.Load(); got != 1 {
			t.Errorf("drive %d: %d batches, want exactly 1", di, got)
		}
		if got := st.BatchOps.Load(); got != 2 {
			t.Errorf("drive %d: %d batch sub-ops, want 2 (object+meta)", di, got)
		}
		if got := st.Puts.Load(); got != 0 {
			t.Errorf("drive %d: %d singleton puts, want 0", di, got)
		}
	}
}

// TestTxCommitBatchesWrites: a committed transaction's writes go out
// as batches (object+meta pairs grouped per drive), not singleton
// puts, and read back correctly.
func TestTxCommitBatchesWrites(t *testing.T) {
	h := newHarness(t, 2, func(c *Config) { c.Replicas = 2 })
	s := h.ctl.Session("w")
	ctx := context.Background()

	var ops []BatchPutOp
	for i := 0; i < 4; i++ {
		ops = append(ops, BatchPutOp{Key: JSONKey(fmt.Sprintf("txk%d", i)), Value: []byte(fmt.Sprintf("v%d", i))})
	}
	if _, _, err := s.Tx(ctx, nil, ops, nil); err != nil {
		t.Fatalf("commit: %v", err)
	}
	for i := 0; i < 4; i++ {
		val, meta, err := s.Get(ctx, fmt.Sprintf("txk%d", i), GetOptions{})
		if err != nil || !bytes.Equal(val, []byte(fmt.Sprintf("v%d", i))) || meta.Version != 0 {
			t.Fatalf("get txk%d: %q %+v %v", i, val, meta, err)
		}
	}
	for di, d := range h.drives {
		if d.Stats().Puts.Load() != 0 {
			t.Errorf("drive %d: tx commit used %d singleton puts", di, d.Stats().Puts.Load())
		}
		// Both drives hold all 4 keys (replicas=2 of 2 drives); the 8
		// sub-op pairs must arrive in at most a handful of batches, not
		// one message per record.
		if got := d.Stats().BatchOps.Load(); got != 8 {
			t.Errorf("drive %d: %d batch sub-ops, want 8", di, got)
		}
		if got := d.Stats().Batches.Load(); got != 1 {
			t.Errorf("drive %d: tx writes split into %d batches, want 1", di, got)
		}
	}
}

// killableHarness is a controller over drives whose network endpoints
// can be killed (server closed, dial refused) and revived, simulating
// a drive dropping off the fabric mid-operation.
type killableHarness struct {
	ctl     *Controller
	drives  []*kinetic.Drive
	servers []*kinetic.Server
	slots   []atomic.Pointer[netx.Listener]
}

func newKillableHarness(t *testing.T, nDrives int, mutate func(*Config)) *killableHarness {
	t.Helper()
	h := &killableHarness{
		drives:  make([]*kinetic.Drive, nDrives),
		servers: make([]*kinetic.Server, nDrives),
		slots:   make([]atomic.Pointer[netx.Listener], nDrives),
	}
	secrets := &attest.Secrets{}
	if _, err := rand.Read(secrets.ObjectKey[:]); err != nil {
		t.Fatal(err)
	}
	if _, err := rand.Read(secrets.AdminSeed[:]); err != nil {
		t.Fatal(err)
	}
	cfg := Config{Replicas: 1, Encrypt: true, Secrets: secrets}
	for i := 0; i < nDrives; i++ {
		i := i
		name := fmt.Sprintf("d%d", i)
		h.drives[i] = kinetic.NewDrive(kinetic.Config{Name: name})
		ln := netx.NewListener(name)
		h.slots[i].Store(ln)
		h.servers[i] = kinetic.Serve(h.drives[i], ln, nil)
		cfg.Drives = append(cfg.Drives, DriveEndpoint{
			Name: name,
			Dial: func(ctx context.Context) (net.Conn, error) {
				ln := h.slots[i].Load()
				if ln == nil {
					return nil, fmt.Errorf("drive %s is down", name)
				}
				return ln.DialContext(ctx)
			},
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
			if s != nil {
				s.Close()
			}
		}
	})
	return h
}

// kill closes drive di's server (tearing down live connections) and
// makes new dials fail.
func (h *killableHarness) kill(di int) {
	h.slots[di].Store(nil)
	h.servers[di].Close()
	h.servers[di] = nil
}

// revive brings drive di back on a fresh listener, its store intact.
func (h *killableHarness) revive(di int) {
	ln := netx.NewListener(h.drives[di].Name())
	h.servers[di] = kinetic.Serve(h.drives[di], ln, nil)
	h.slots[di].Store(ln)
}

// driveMeta reads key's metadata record directly off a drive.
func (h *killableHarness) driveMeta(t *testing.T, di int, key string) (*store.Meta, bool) {
	t.Helper()
	req := &wire.Message{Type: wire.TGet, Key: store.MetaKey(key), User: AdminIdentity}
	req.Sign(h.ctl.adminKeyFor(h.drives[di].Name()))
	resp := h.drives[di].Handle(req)
	if resp.Status == wire.StatusNotFound {
		return nil, false
	}
	if resp.Status != wire.StatusOK {
		t.Fatalf("drive %d meta read: %v", di, resp.Status)
	}
	m := new(store.Meta)
	if err := h.ctl.codec.DecodeMeta(resp.Value, key, m); err != nil {
		t.Fatalf("drive %d meta decode: %v", di, err)
	}
	return m, true
}

// deleteRaw force-deletes a raw key directly off one drive, simulating
// a degraded replica that lost a record before repair.
func (h *killableHarness) deleteRaw(t *testing.T, di int, key []byte) {
	t.Helper()
	req := &wire.Message{Type: wire.TDelete, Key: key, Force: true, User: AdminIdentity}
	req.Sign(h.ctl.adminKeyFor(h.drives[di].Name()))
	if resp := h.drives[di].Handle(req); resp.Status != wire.StatusOK {
		t.Fatalf("drive %d raw delete: %v", di, resp.Status)
	}
}

// driveHasObject reports whether a drive holds key's record at version.
func (h *killableHarness) driveHasObject(t *testing.T, di int, key string, version int64) bool {
	t.Helper()
	req := &wire.Message{Type: wire.TGet, Key: store.ObjectKey(key, version), User: AdminIdentity}
	req.Sign(h.ctl.adminKeyFor(h.drives[di].Name()))
	return h.drives[di].Handle(req).Status == wire.StatusOK
}

// TestReplicaFailureDuringWrite kills one replica mid-workload: the
// client gets a clean error, no healthy replica is left with an object
// record whose metadata did not commit with it (the crash-consistency
// bug the atomic batch closes), and repair reconverges the revived
// drive.
func TestReplicaFailureDuringWrite(t *testing.T) {
	const key = "k"
	h := newKillableHarness(t, 3, func(c *Config) { c.Replicas = 3 })
	s := h.ctl.Session("w")
	ctx := context.Background()

	if _, err := s.Put(ctx, key, []byte("v0"), PutOptions{}); err != nil {
		t.Fatal(err)
	}

	victim := store.Placement(key, 3, 3)[1]
	h.kill(victim)

	// The write fails cleanly: write-through needs every replica.
	if _, err := s.Put(ctx, key, []byte("v1"), PutOptions{}); err == nil {
		t.Fatal("put succeeded with a dead replica under all-replica write-through")
	}

	// Healthy replicas must be internally consistent: wherever the
	// metadata advanced to version 1, the version-1 object record
	// committed with it atomically — and vice versa.
	for di := range h.drives {
		if di == victim {
			continue
		}
		m, ok := h.driveMeta(t, di, key)
		if !ok {
			t.Fatalf("drive %d lost the metadata record", di)
		}
		if !h.driveHasObject(t, di, key, m.Version) {
			t.Errorf("drive %d: meta at v%d without its object record (orphaned meta)", di, m.Version)
		}
		if h.driveHasObject(t, di, key, m.Version+1) {
			t.Errorf("drive %d: object record v%d beyond meta v%d (orphaned object)", di, m.Version+1, m.Version)
		}
	}

	// Revive the drive and repair: the survivors' newest version is
	// re-established everywhere, including the revived replica.
	h.revive(victim)
	report, err := s.Repair(ctx, key)
	if err != nil {
		t.Fatalf("repair: %v", err)
	}
	if report.Restored == 0 {
		t.Fatal("repair restored nothing on the revived replica")
	}
	newest, ok := h.driveMeta(t, 0, key)
	if !ok {
		t.Fatal("no metadata after repair")
	}
	for di := range h.drives {
		m, ok := h.driveMeta(t, di, key)
		if !ok || m.Version != newest.Version {
			t.Errorf("drive %d: meta %+v, want version %d", di, m, newest.Version)
		}
		for v := int64(0); v <= newest.Version; v++ {
			if !h.driveHasObject(t, di, key, v) {
				t.Errorf("drive %d missing object record v%d after repair", di, v)
			}
		}
	}
	// The object reads back at the converged version.
	val, meta, err := s.Get(ctx, key, GetOptions{})
	if err != nil {
		t.Fatalf("get after repair: %v", err)
	}
	if meta.Version != newest.Version {
		t.Errorf("controller reads v%d, drives converged at v%d", meta.Version, newest.Version)
	}
	want := []byte("v0")
	if newest.Version == 1 {
		want = []byte("v1")
	}
	if !bytes.Equal(val, want) {
		t.Errorf("value %q at v%d", val, meta.Version)
	}
}

// TestReadFailsOverToHealthyReplica: parallel first-wins reads serve a
// key even when a replica drops off, and a degraded replica that lost
// a record cannot shadow a healthy copy with not-found.
func TestReadFailsOverToHealthyReplica(t *testing.T) {
	const key = "k"
	h := newKillableHarness(t, 2, func(c *Config) { c.Replicas = 2 })
	s := h.ctl.Session("w")
	ctx := context.Background()
	if _, err := s.Put(ctx, key, []byte("v"), PutOptions{}); err != nil {
		t.Fatal(err)
	}
	h.kill(store.Placement(key, 2, 2)[0]) // kill the primary
	// Drop the caches so the read must reach the drives.
	h.ctl.metaCache.Remove(key)
	h.ctl.objectCache.Remove(key)
	val, _, err := s.Get(ctx, key, GetOptions{})
	if err != nil || !bytes.Equal(val, []byte("v")) {
		t.Fatalf("get with dead primary: %q %v", val, err)
	}
}
