package kinetic

import (
	"bufio"
	"bytes"
	"fmt"
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

	// Served from the store, not cloned.
	stored, _, _ := d.store.get([]byte("k07"))
	resp := ask(wire.Message{StartKey: []byte("k07"), EndKey: []byte("k07"), KeyInclusive: true, WithValues: true})
	if &resp.Values[0][0] != &stored[0] {
		t.Error("range value is a copy of the stored value")
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
	v, ver, ok := peer.store.get([]byte("k"))
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

// TestPutAdoptsOnlyBulkValues: a received PUT whose value is most of
// its frame is stored without another copy; a small value in a large
// frame, every batch sub-operation, and any request that did not come
// off the wire are copied, so a stored record never pins much more than
// itself and never shares memory with a caller's buffer.
func TestPutAdoptsOnlyBulkValues(t *testing.T) {
	d := NewDrive(Config{Name: "t0"})
	shares := func(key, sent []byte) bool {
		stored, _, ok := d.store.get(key)
		if !ok || !bytes.Equal(stored, sent) {
			t.Fatalf("key %q: stored %d bytes, sent %d", key, len(stored), len(sent))
		}
		return &stored[0] == &sent[0]
	}
	handle := func(req *wire.Message) {
		t.Helper()
		if resp := d.Handle(req); resp.Status != wire.StatusOK {
			t.Fatalf("%v: %v %s", req.Type, resp.Status, resp.StatusMsg)
		}
	}

	chunk := received(t, &wire.Message{Type: wire.TPut, Key: []byte("chunk"), Value: bytes.Repeat([]byte{7}, 1<<20), NewVersion: []byte{1}, Force: true})
	handle(chunk)
	if !shares([]byte("chunk"), chunk.Value) {
		t.Error("1 MiB value was copied out of the frame it fills")
	}

	longKey := bytes.Repeat([]byte("k"), 2000)
	small := received(t, &wire.Message{Type: wire.TPut, Key: longKey, Value: []byte("tiny"), NewVersion: []byte{1}, Force: true})
	handle(small)
	if shares(longKey, small.Value) {
		t.Error("a 4-byte value pins a 2 KB frame")
	}

	batch := received(t, &wire.Message{Type: wire.TBatch, Batch: []wire.BatchOp{
		{Op: wire.BatchPut, Key: []byte("big"), Value: bytes.Repeat([]byte{9}, 64<<10), NewVersion: []byte{1}, Force: true},
		{Op: wire.BatchPut, Key: []byte("meta"), Value: []byte("m"), NewVersion: []byte{1}, Force: true},
	}, GroupSizes: []uint32{1, 1}})
	handle(batch)
	for _, op := range batch.Batch {
		if shares(op.Key, op.Value) {
			t.Errorf("batch sub-operation %q shares its batch's frame", op.Key)
		}
	}

	local := signedReq(&wire.Message{Type: wire.TPut, Key: []byte("local"), Value: bytes.Repeat([]byte{3}, 1<<20), NewVersion: []byte{1}, Force: true})
	handle(local)
	if shares([]byte("local"), local.Value) {
		t.Error("drive kept a slice of an in-process caller's buffer")
	}
}

// TestStoredRecordIsOneAllocation: a copied record's key, value and
// version share one allocation, capped so that none can grow into the
// next, and overwriting a key leaves nothing of the old record pinned.
func TestStoredRecordIsOneAllocation(t *testing.T) {
	key, value, version := []byte("obj/key"), bytes.Repeat([]byte{1}, 1204), []byte{0, 0, 0, 1}
	if n := testing.AllocsPerRun(100, func() { cloneRecord(key, value, version) }); n != 1 {
		t.Errorf("copying a record took %v allocations, want 1", n)
	}
	k, v, ver := cloneRecord(key, value, nil)
	if !bytes.Equal(k, key) || !bytes.Equal(v, value) || ver != nil {
		t.Fatalf("cloneRecord = %q, %d bytes, %v", k, len(v), ver)
	}
	if _ = append(k, 'x'); !bytes.Equal(v, value) {
		t.Error("appending to the copied key overwrote the value")
	}

	d := NewDrive(Config{Name: "t0"})
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
		return d.store.find(key).key
	}
	first := put(1)
	if second := put(2); &second[0] == &first[0] {
		t.Error("an overwritten key's node kept the old record's key, pinning its allocation")
	}
}
