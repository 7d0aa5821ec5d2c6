package kinetic

import (
	"bufio"
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/kinetic/wire"
)

// signedReq builds and signs a request under the factory account.
func signedReq(m *wire.Message) *wire.Message {
	m.User = DefaultAdminIdentity
	m.Sign(DefaultAdminKey)
	return m
}

func TestDrivePutGetDelete(t *testing.T) {
	d := NewDrive(Config{Name: "t0"})
	resp := d.Handle(signedReq(&wire.Message{
		Type: wire.TPut, Key: []byte("k"), Value: []byte("v"), NewVersion: []byte("1"), Force: true,
	}))
	if resp.Status != wire.StatusOK {
		t.Fatalf("put: %v %s", resp.Status, resp.StatusMsg)
	}
	resp = d.Handle(signedReq(&wire.Message{Type: wire.TGet, Key: []byte("k")}))
	if resp.Status != wire.StatusOK || !bytes.Equal(resp.Value, []byte("v")) || !bytes.Equal(resp.DBVersion, []byte("1")) {
		t.Fatalf("get: %+v", resp)
	}
	resp = d.Handle(signedReq(&wire.Message{Type: wire.TDelete, Key: []byte("k"), DBVersion: []byte("1")}))
	if resp.Status != wire.StatusOK {
		t.Fatalf("delete: %v", resp.Status)
	}
	resp = d.Handle(signedReq(&wire.Message{Type: wire.TGet, Key: []byte("k")}))
	if resp.Status != wire.StatusNotFound {
		t.Fatalf("get after delete: %v", resp.Status)
	}
}

func TestDriveVersionCAS(t *testing.T) {
	d := NewDrive(Config{})
	// Create with expected-absent (no DBVersion).
	resp := d.Handle(signedReq(&wire.Message{
		Type: wire.TPut, Key: []byte("k"), Value: []byte("v1"), NewVersion: []byte("a"),
	}))
	if resp.Status != wire.StatusOK {
		t.Fatalf("create: %v", resp.Status)
	}
	// Update with wrong expected version fails.
	resp = d.Handle(signedReq(&wire.Message{
		Type: wire.TPut, Key: []byte("k"), Value: []byte("v2"),
		DBVersion: []byte("WRONG"), NewVersion: []byte("b"),
	}))
	if resp.Status != wire.StatusVersionMismatch {
		t.Fatalf("cas mismatch: %v", resp.Status)
	}
	if !bytes.Equal(resp.DBVersion, []byte("a")) {
		t.Fatalf("mismatch response should carry stored version, got %q", resp.DBVersion)
	}
	// Correct expected version succeeds.
	resp = d.Handle(signedReq(&wire.Message{
		Type: wire.TPut, Key: []byte("k"), Value: []byte("v2"),
		DBVersion: []byte("a"), NewVersion: []byte("b"),
	}))
	if resp.Status != wire.StatusOK {
		t.Fatalf("cas update: %v", resp.Status)
	}
	// Creating over an existing key without version fails.
	resp = d.Handle(signedReq(&wire.Message{
		Type: wire.TPut, Key: []byte("k"), Value: []byte("v3"), NewVersion: []byte("c"),
	}))
	if resp.Status != wire.StatusVersionMismatch {
		t.Fatalf("create over existing: %v", resp.Status)
	}
	// Force overrides.
	resp = d.Handle(signedReq(&wire.Message{
		Type: wire.TPut, Key: []byte("k"), Value: []byte("v3"), NewVersion: []byte("c"), Force: true,
	}))
	if resp.Status != wire.StatusOK {
		t.Fatalf("force put: %v", resp.Status)
	}
	// Delete with wrong version fails.
	resp = d.Handle(signedReq(&wire.Message{Type: wire.TDelete, Key: []byte("k"), DBVersion: []byte("x")}))
	if resp.Status != wire.StatusVersionMismatch {
		t.Fatalf("delete wrong version: %v", resp.Status)
	}
}

func TestDriveAuth(t *testing.T) {
	d := NewDrive(Config{})
	// Unknown user.
	m := &wire.Message{Type: wire.TGet, Key: []byte("k"), User: "nobody"}
	m.Sign([]byte("whatever"))
	if resp := d.Handle(m); resp.Status != wire.StatusNoSuchUser {
		t.Fatalf("unknown user: %v", resp.Status)
	}
	// Known user, wrong key.
	m = &wire.Message{Type: wire.TGet, Key: []byte("k"), User: DefaultAdminIdentity}
	m.Sign([]byte("wrong-secret"))
	if resp := d.Handle(m); resp.Status != wire.StatusHMACFailure {
		t.Fatalf("bad hmac: %v", resp.Status)
	}
	if d.Stats().Rejected.Load() != 2 {
		t.Fatalf("rejected counter = %d, want 2", d.Stats().Rejected.Load())
	}
}

func TestDrivePermissions(t *testing.T) {
	d := NewDrive(Config{})
	// Install a read-only account plus an admin.
	resp := d.Handle(signedReq(&wire.Message{Type: wire.TSecurity, ACLs: []wire.ACL{
		{Identity: "admin", Key: []byte("adminsecret1"), Perms: wire.PermAll},
		{Identity: "reader", Key: []byte("readersecret"), Perms: wire.PermRead},
	}}))
	if resp.Status != wire.StatusOK {
		t.Fatalf("security: %v %s", resp.Status, resp.StatusMsg)
	}

	write := &wire.Message{Type: wire.TPut, Key: []byte("k"), Value: []byte("v"), Force: true, User: "reader"}
	write.Sign([]byte("readersecret"))
	if resp := d.Handle(write); resp.Status != wire.StatusNotAuthorized {
		t.Fatalf("reader write: %v", resp.Status)
	}

	// The old factory account is gone.
	old := signedReq(&wire.Message{Type: wire.TGet, Key: []byte("k")})
	if resp := d.Handle(old); resp.Status != wire.StatusNoSuchUser {
		t.Fatalf("factory account after takeover: %v", resp.Status)
	}

	read := &wire.Message{Type: wire.TGet, Key: []byte("k"), User: "reader"}
	read.Sign([]byte("readersecret"))
	if resp := d.Handle(read); resp.Status != wire.StatusNotFound {
		t.Fatalf("reader read: %v", resp.Status)
	}
}

func TestDriveSecurityValidation(t *testing.T) {
	d := NewDrive(Config{})
	resp := d.Handle(signedReq(&wire.Message{Type: wire.TSecurity}))
	if resp.Status != wire.StatusInvalidRequest {
		t.Fatalf("empty ACL set: %v", resp.Status)
	}
	resp = d.Handle(signedReq(&wire.Message{Type: wire.TSecurity, ACLs: []wire.ACL{
		{Identity: "x", Key: []byte("short"), Perms: wire.PermAll},
	}}))
	if resp.Status != wire.StatusInvalidRequest {
		t.Fatalf("weak key accepted: %v", resp.Status)
	}
}

func TestDriveRange(t *testing.T) {
	d := NewDrive(Config{})
	for i := 0; i < 20; i++ {
		d.Handle(signedReq(&wire.Message{
			Type: wire.TPut, Key: []byte(fmt.Sprintf("k%02d", i)), Value: []byte("v"), Force: true,
		}))
	}
	resp := d.Handle(signedReq(&wire.Message{
		Type: wire.TGetKeyRange, StartKey: []byte("k05"), EndKey: []byte("k10"),
		KeyInclusive: true, MaxReturned: 100,
	}))
	if resp.Status != wire.StatusOK || len(resp.Keys) != 6 {
		t.Fatalf("range: %v, %d keys", resp.Status, len(resp.Keys))
	}
	if string(resp.Keys[0]) != "k05" || string(resp.Keys[5]) != "k10" {
		t.Fatalf("range bounds: %q..%q", resp.Keys[0], resp.Keys[5])
	}
}

// TestDriveRangeWithValues: a values range carries each key's stored
// value beside it (the store's own bytes, not copies), marks a reply it
// cut — by the key cap or by the reply byte budget — and nothing else,
// in both directions.
func TestDriveRangeWithValues(t *testing.T) {
	d := NewDrive(Config{})
	for i := 0; i < 20; i++ {
		d.Handle(signedReq(&wire.Message{
			Type: wire.TPut, Key: []byte(fmt.Sprintf("k%02d", i)), Value: []byte(fmt.Sprintf("value-%02d", i)), Force: true,
		}))
	}
	ask := func(m wire.Message) *wire.Message {
		t.Helper()
		m.Type = wire.TGetKeyRange
		resp := d.Handle(signedReq(&m))
		if resp.Status != wire.StatusOK {
			t.Fatalf("range %+v: %v %s", m, resp.Status, resp.StatusMsg)
		}
		return resp
	}
	for _, c := range []struct {
		name        string
		req         wire.Message
		first, last string
		n           int
		truncated   bool
	}{
		{"whole range", wire.Message{StartKey: []byte("k05"), EndKey: []byte("k10"), KeyInclusive: true, MaxReturned: 100}, "k05", "k10", 6, false},
		{"exclusive start", wire.Message{StartKey: []byte("k05"), EndKey: []byte("k10"), MaxReturned: 100}, "k06", "k10", 5, false},
		{"exactly max", wire.Message{StartKey: []byte("k05"), EndKey: []byte("k10"), KeyInclusive: true, MaxReturned: 6}, "k05", "k10", 6, false},
		{"cut by max", wire.Message{StartKey: []byte("k05"), EndKey: []byte("k10"), KeyInclusive: true, MaxReturned: 5}, "k05", "k09", 5, true},
		{"open end", wire.Message{StartKey: []byte("k18"), KeyInclusive: true}, "k18", "k19", 2, false},
		{"reverse", wire.Message{StartKey: []byte("k05"), EndKey: []byte("k10"), KeyInclusive: true, Reverse: true, MaxReturned: 100}, "k10", "k05", 6, false},
		{"reverse cut", wire.Message{StartKey: []byte("k05"), EndKey: []byte("k10"), KeyInclusive: true, Reverse: true, MaxReturned: 2}, "k10", "k09", 2, true},
	} {
		for _, withValues := range []bool{false, true} {
			c.req.WithValues = withValues
			resp := ask(c.req)
			if len(resp.Keys) != c.n || string(resp.Keys[0]) != c.first || string(resp.Keys[c.n-1]) != c.last || resp.Truncated != c.truncated {
				t.Errorf("%s (values %t): %d keys %q..%q truncated %t, want %d %q..%q %t", c.name, withValues,
					len(resp.Keys), resp.Keys[0], resp.Keys[len(resp.Keys)-1], resp.Truncated, c.n, c.first, c.last, c.truncated)
			}
			if !withValues {
				if resp.Values != nil {
					t.Errorf("%s: keys-only range returned values", c.name)
				}
				continue
			}
			if len(resp.Values) != len(resp.Keys) {
				t.Fatalf("%s: %d values for %d keys", c.name, len(resp.Values), len(resp.Keys))
			}
			for i, k := range resp.Keys {
				if want := "value-" + string(k[1:]); string(resp.Values[i]) != want {
					t.Errorf("%s: %q carries %q, want %q", c.name, k, resp.Values[i], want)
				}
			}
		}
	}

	// Copied out of the store, never served from it.
	resp := ask(wire.Message{StartKey: []byte("k07"), EndKey: []byte("k07"), KeyInclusive: true, WithValues: true})
	if inArena(d.store, resp.Keys[0]) || inArena(d.store, resp.Values[0]) {
		t.Error("range reply points into the drive's arena")
	}
}

// TestDriveRangeReplyBudget: records far larger than metadata — a range
// over object records — are cut by bytes long before the key cap, the
// reply always fits a frame, always carries at least one entry, and a
// caller resuming past the last key drains the range.
func TestDriveRangeReplyBudget(t *testing.T) {
	d := NewDrive(Config{})
	const n, size = 12, 300 << 10 // 3.5 MiB in all, 1.7x a frame
	for i := 0; i < n; i++ {
		if err := d.P2PPut([]byte(fmt.Sprintf("o%02d", i)), bytes.Repeat([]byte{byte(i)}, size), nil); err != nil {
			t.Fatal(err)
		}
	}
	// One record over the budget on its own still goes out, alone.
	if err := d.P2PPut([]byte("o99"), make([]byte, rangeReplyBudget+1), nil); err != nil {
		t.Fatal(err)
	}
	enc := wire.NewEncoder()
	start, inclusive, got, replies := []byte("o"), true, 0, 0
	for {
		resp := d.Handle(signedReq(&wire.Message{Type: wire.TGetKeyRange, StartKey: start, KeyInclusive: inclusive, WithValues: true}))
		if resp.Status != wire.StatusOK || len(resp.Keys) == 0 {
			t.Fatalf("reply %d: %v, %d keys", replies, resp.Status, len(resp.Keys))
		}
		var frame bytes.Buffer
		if err := enc.WriteUnsigned(&frame, resp); err != nil {
			t.Fatalf("reply %d cannot be framed: %v", replies, err)
		}
		for i, k := range resp.Keys {
			if want := fmt.Sprintf("o%02d", got+i); string(k) != want && string(k) != "o99" {
				t.Fatalf("reply %d: key %q, want %q", replies, k, want)
			}
		}
		got += len(resp.Keys)
		replies++
		if !resp.Truncated {
			break
		}
		start, inclusive = resp.Keys[len(resp.Keys)-1], false
	}
	if got != n+1 || replies < 4 {
		t.Fatalf("drained %d records in %d replies, want %d in at least 4", got, replies, n+1)
	}
	// Keys alone are a fraction of the budget: one reply, not cut.
	resp := d.Handle(signedReq(&wire.Message{Type: wire.TGetKeyRange, StartKey: []byte("o"), KeyInclusive: true}))
	if len(resp.Keys) != n+1 || resp.Truncated {
		t.Fatalf("keys-only: %d keys, truncated %t", len(resp.Keys), resp.Truncated)
	}
}

// TestDriveRangeValuesNeedRead: values are a bulk read. An account that
// may list but not read gets keys and is refused values; one that may
// read but not list is refused both.
func TestDriveRangeValuesNeedRead(t *testing.T) {
	d := NewDrive(Config{})
	d.Handle(signedReq(&wire.Message{Type: wire.TPut, Key: []byte("k"), Value: []byte("secret"), Force: true}))
	resp := d.Handle(signedReq(&wire.Message{Type: wire.TSecurity, ACLs: []wire.ACL{
		{Identity: "lister", Key: []byte("listersecret"), Perms: wire.PermRange},
		{Identity: "reader", Key: []byte("readersecret"), Perms: wire.PermRead},
		{Identity: "both", Key: []byte("bothsecret123"), Perms: wire.PermRange | wire.PermRead},
	}}))
	if resp.Status != wire.StatusOK {
		t.Fatalf("security: %v %s", resp.Status, resp.StatusMsg)
	}
	for _, c := range []struct {
		user, key  string
		withValues bool
		want       wire.StatusCode
	}{
		{"lister", "listersecret", false, wire.StatusOK},
		{"lister", "listersecret", true, wire.StatusNotAuthorized},
		{"reader", "readersecret", false, wire.StatusNotAuthorized},
		{"reader", "readersecret", true, wire.StatusNotAuthorized},
		{"both", "bothsecret123", true, wire.StatusOK},
	} {
		req := &wire.Message{Type: wire.TGetKeyRange, StartKey: []byte("a"), EndKey: []byte("z"), WithValues: c.withValues, User: c.user}
		req.Sign([]byte(c.key))
		resp := d.Handle(req)
		if resp.Status != c.want {
			t.Errorf("%s, values %t: %v, want %v", c.user, c.withValues, resp.Status, c.want)
		}
		if resp.Status != wire.StatusOK && (len(resp.Keys) > 0 || len(resp.Values) > 0) {
			t.Errorf("%s, values %t: refused reply carries %d keys, %d values", c.user, c.withValues, len(resp.Keys), len(resp.Values))
		}
	}
	if got := d.Stats().Rejected.Load(); got != 3 {
		t.Errorf("rejected counter = %d, want 3", got)
	}
}

func TestDriveEraseWithPIN(t *testing.T) {
	d := NewDrive(Config{ErasePIN: []byte("1234")})
	d.Handle(signedReq(&wire.Message{Type: wire.TPut, Key: []byte("k"), Value: []byte("v"), Force: true}))
	resp := d.Handle(signedReq(&wire.Message{Type: wire.TErase, Pin: []byte("wrong")}))
	if resp.Status != wire.StatusNotAuthorized {
		t.Fatalf("erase wrong pin: %v", resp.Status)
	}
	resp = d.Handle(signedReq(&wire.Message{Type: wire.TErase, Pin: []byte("1234")}))
	if resp.Status != wire.StatusOK {
		t.Fatalf("erase: %v", resp.Status)
	}
	if d.Len() != 0 {
		t.Fatalf("drive holds %d keys after erase", d.Len())
	}
}

func TestDriveP2P(t *testing.T) {
	peer := NewDrive(Config{Name: "peer"})
	d := NewDrive(Config{Name: "src", P2PDial: func(name string) (P2PTarget, error) {
		if name != "peer" {
			return nil, fmt.Errorf("unknown peer %s", name)
		}
		return peer, nil
	}})
	d.Handle(signedReq(&wire.Message{
		Type: wire.TPut, Key: []byte("k"), Value: []byte("replicated"), NewVersion: []byte("7"), Force: true,
	}))
	resp := d.Handle(signedReq(&wire.Message{Type: wire.TP2PPush, Key: []byte("k"), Peer: "peer"}))
	if resp.Status != wire.StatusOK {
		t.Fatalf("p2p push: %v %s", resp.Status, resp.StatusMsg)
	}
	v, ver, ok := peer.store.get([]byte("k"), new(reply))
	if !ok || string(v) != "replicated" || string(ver) != "7" {
		t.Fatalf("peer copy: %q/%q/%v", v, ver, ok)
	}
	// Pushing a missing key reports not found.
	resp = d.Handle(signedReq(&wire.Message{Type: wire.TP2PPush, Key: []byte("nope"), Peer: "peer"}))
	if resp.Status != wire.StatusNotFound {
		t.Fatalf("p2p missing key: %v", resp.Status)
	}
}

func TestDriveGetLogAndVersion(t *testing.T) {
	d := NewDrive(Config{Name: "stats-drive"})
	d.Handle(signedReq(&wire.Message{Type: wire.TPut, Key: []byte("k"), Value: []byte("v"), NewVersion: []byte("9"), Force: true}))
	resp := d.Handle(signedReq(&wire.Message{Type: wire.TGetLog}))
	if resp.Status != wire.StatusOK || resp.Log["name"] != "stats-drive" || resp.Log["keys"] != "1" {
		t.Fatalf("getlog: %+v", resp.Log)
	}
	resp = d.Handle(signedReq(&wire.Message{Type: wire.TGetVersion, Key: []byte("k")}))
	if resp.Status != wire.StatusOK || !bytes.Equal(resp.DBVersion, []byte("9")) {
		t.Fatalf("getversion: %v %q", resp.Status, resp.DBVersion)
	}
}

func TestDriveRejectsNonRequests(t *testing.T) {
	d := NewDrive(Config{})
	resp := d.Handle(signedReq(&wire.Message{Type: wire.TGetResponse}))
	if resp.Status != wire.StatusInvalidRequest {
		t.Fatalf("response-typed message: %v", resp.Status)
	}
}

func TestHDDMediaModel(t *testing.T) {
	h := NewHDDMedia(1.0)
	small := h.ServiceTime(OpRead, 0)
	large := h.ServiceTime(OpRead, 1<<20)
	if large <= small {
		t.Fatal("transfer time should grow with size")
	}
	w := h.ServiceTime(OpWrite, 0)
	if w <= small {
		t.Fatal("writes should cost more than reads")
	}
	// Roughly 1 kIOP/s serial: service time near 1 ms.
	if small < 500e3 || small > 2e6 { // 0.5ms..2ms in ns
		t.Fatalf("positioning time %v outside HDD envelope", small)
	}
	// Scaled model shrinks proportionally.
	hs := NewHDDMedia(0.1)
	if got := hs.ServiceTime(OpRead, 0); got >= small {
		t.Fatalf("scaled service %v not smaller than %v", got, small)
	}
	if (SimMedia{}).ServiceTime(OpWrite, 1024) != 0 {
		t.Fatal("sim media should be free")
	}
}

// TestP2PAccountSurvivesTakeover: the drive-to-drive trust account
// configured at boot must keep authenticating after a controller
// takeover replaces the whole account table — live shard handoff
// pushes records between drives owned by different controllers.
func TestP2PAccountSurvivesTakeover(t *testing.T) {
	p2pKey := []byte("shared-p2p-secret")
	p2p := &wire.ACL{Identity: "kinetic-p2p", Key: p2pKey, Perms: wire.PermWrite}
	d := NewDrive(Config{Name: "t0", P2PAccount: p2p})

	// Controller takeover: replace the table with only its admin.
	resp := d.Handle(signedReq(&wire.Message{
		Type: wire.TSecurity,
		ACLs: []wire.ACL{{Identity: "pesos-admin", Key: []byte("admin-secret"), Perms: wire.PermAll}},
	}))
	if resp.Status != wire.StatusOK {
		t.Fatalf("takeover: %v %s", resp.Status, resp.StatusMsg)
	}

	// The factory account is locked out...
	resp = d.Handle(signedReq(&wire.Message{Type: wire.TGet, Key: []byte("k")}))
	if resp.Status != wire.StatusNoSuchUser {
		t.Fatalf("factory account after takeover: %v", resp.Status)
	}

	// ...but a peer drive's P2P-credentialed put still lands.
	put := &wire.Message{
		Type: wire.TPut, Key: []byte("k"), Value: []byte("v"), NewVersion: []byte("1"), Force: true,
		User: p2p.Identity,
	}
	put.Sign(p2pKey)
	if resp = d.Handle(put); resp.Status != wire.StatusOK {
		t.Fatalf("p2p put after takeover: %v %s", resp.Status, resp.StatusMsg)
	}

	// The P2P account has WRITE only: it cannot replace accounts.
	sec := &wire.Message{
		Type: wire.TSecurity, User: p2p.Identity,
		ACLs: []wire.ACL{{Identity: "evil", Key: []byte("evil-secret"), Perms: wire.PermAll}},
	}
	sec.Sign(p2pKey)
	if resp = d.Handle(sec); resp.Status != wire.StatusNotAuthorized {
		t.Fatalf("p2p account changed security: %v", resp.Status)
	}
}

// received puts m on the wire the way the controller does and reads it
// back the way the drive server does, so it owns its frame.
func received(t *testing.T, m *wire.Message) *wire.Message {
	t.Helper()
	m.User = DefaultAdminIdentity
	var frame bytes.Buffer
	if err := wire.NewEncoder().WriteFrame(&frame, m, DefaultAdminKey); err != nil {
		t.Fatal(err)
	}
	got := new(wire.Message)
	if err := wire.ReadFrame(bufio.NewReader(&frame), got); err != nil {
		t.Fatal(err)
	}
	return got
}

// TestStoredRecordIsOffHeap: every record a drive stores — a 1 MiB value
// filling its frame, a small value in a large frame, batch
// sub-operations, a request built in process — is copied into the
// drive's arena and shares no memory with the request it came in.
func TestStoredRecordIsOffHeap(t *testing.T) {
	d := NewDrive(Config{Name: "t0"})
	defer d.Close()
	check := func(req *wire.Message, key, sent []byte) {
		t.Helper()
		d.store.mu.RLock()
		defer d.store.mu.RUnlock()
		n := d.store.find(key)
		if n == nil {
			t.Fatalf("key %q not stored", key)
		}
		_, stored, _ := n.recParts()
		if !bytes.Equal(stored, sent) {
			t.Fatalf("key %q: stored %d bytes, sent %d", key, len(stored), len(sent))
		}
		if !inArena(d.store, n.rec) {
			t.Errorf("key %q: record is not in the arena", key)
		}
		if overlaps(n.rec, sent) || overlaps(n.rec, req.Key) {
			t.Errorf("key %q: record shares memory with its request", key)
		}
	}
	handle := func(req *wire.Message) *wire.Message {
		t.Helper()
		if resp := d.Handle(req); resp.Status != wire.StatusOK {
			t.Fatalf("%v: %v %s", req.Type, resp.Status, resp.StatusMsg)
		}
		return req
	}

	chunk := handle(received(t, &wire.Message{Type: wire.TPut, Key: []byte("chunk"), Value: bytes.Repeat([]byte{7}, 1<<20), NewVersion: []byte{1}, Force: true}))
	check(chunk, []byte("chunk"), chunk.Value)
	longKey := bytes.Repeat([]byte("k"), 2000)
	small := handle(received(t, &wire.Message{Type: wire.TPut, Key: longKey, Value: []byte("tiny"), NewVersion: []byte{1}, Force: true}))
	check(small, longKey, small.Value)
	batch := handle(received(t, &wire.Message{Type: wire.TBatch, Batch: []wire.BatchOp{
		{Op: wire.BatchPut, Key: []byte("big"), Value: bytes.Repeat([]byte{9}, 64<<10), NewVersion: []byte{1}, Force: true},
		{Op: wire.BatchPut, Key: []byte("meta"), Value: []byte("m"), NewVersion: []byte{1}, Force: true},
	}, GroupSizes: []uint32{1, 1}}))
	for _, op := range batch.Batch {
		check(batch, op.Key, op.Value)
	}
	local := handle(signedReq(&wire.Message{Type: wire.TPut, Key: []byte("local"), Value: bytes.Repeat([]byte{3}, 1<<20), NewVersion: []byte{1}, Force: true}))
	check(local, []byte("local"), local.Value)
}

// TestStoredRecordIsOneAllocation: a stored record's key, value and
// version are one arena block, overwriting a key frees the old record's
// block for the next record, and the Go heap pays nothing to overwrite a
// record and only its index node to add one.
func TestStoredRecordIsOneAllocation(t *testing.T) {
	d := NewDrive(Config{Name: "t0"})
	defer d.Close()
	key := []byte("obj/key")
	put := func(b byte) []byte {
		t.Helper()
		req := received(t, &wire.Message{Type: wire.TBatch, Batch: []wire.BatchOp{
			{Op: wire.BatchPut, Key: key, Value: bytes.Repeat([]byte{b}, 1204), NewVersion: []byte{b}, Force: true},
		}, GroupSizes: []uint32{1}})
		if resp := d.Handle(req); resp.Status != wire.StatusOK {
			t.Fatalf("put: %v %s", resp.Status, resp.StatusMsg)
		}
		d.store.mu.RLock()
		defer d.store.mu.RUnlock()
		n := d.store.find(key)
		k, v, ver := n.recParts()
		if !bytes.Equal(k, key) || !bytes.Equal(v, bytes.Repeat([]byte{b}, 1204)) || !bytes.Equal(ver, []byte{b}) {
			t.Fatalf("stored %q, %d bytes, version %v", k, len(v), ver)
		}
		if len(n.rec) != len(key)+1204+1 || !inArena(d.store, n.rec) {
			t.Fatalf("record of %d bytes is not one arena block of key, value and version", len(n.rec))
		}
		return n.rec
	}
	first := put(1)
	if second := put(2); &second[0] == &first[0] {
		t.Fatal("an overwrite wrote into the record it replaces")
	}
	if third := put(3); &third[0] != &first[0] {
		t.Error("an overwritten record's block stayed pinned instead of going to the next record")
	}

	// What the heap pays: nothing to overwrite a record, and one node,
	// never the record's bytes, to add one.
	value, version := bytes.Repeat([]byte{1}, 1204), []byte{0, 0, 0, 1}
	if n := testing.AllocsPerRun(100, func() { d.store.put([]byte("obj/key"), value, version) }); n != 0 {
		t.Errorf("overwriting a record allocated %v times on the heap, want 0", n)
	}
	keys := make([][]byte, 2000)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("obj/%06d", i))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, k := range keys {
		d.store.put(k, value, version)
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / uint64(len(keys)); per > 256 {
		t.Errorf("adding a %d-byte record cost the heap %d bytes, want only its node", len(value), per)
	}
}
