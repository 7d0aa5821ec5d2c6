package wire

import (
	"bufio"
	"bytes"
	"io"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func sampleMessage() *Message {
	return &Message{
		Type:       TPut,
		Seq:        42,
		User:       "pesos-admin",
		Key:        []byte("m\x00greeting"),
		Value:      []byte("hello world"),
		DBVersion:  []byte{0, 0, 0, 1},
		NewVersion: []byte{0, 0, 0, 2},
		Force:      true,
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	msgs := []*Message{
		sampleMessage(),
		{Type: TGet, Seq: 1, User: "u", Key: []byte("k")},
		{Type: TGet, Seq: 2, User: "u", Key: []byte("k"), TraceID: 0xdeadbeefcafef00d},
		{Type: TGetResponse, Seq: 2, Value: []byte("v"), TraceID: 0xdeadbeefcafef00d, ServiceUs: 1250},
		{Type: TGetKeyRange, StartKey: []byte("a"), EndKey: []byte("z"),
			MaxReturned: 100, Reverse: true, KeyInclusive: true},
		{Type: TSecurity, ACLs: []ACL{
			{Identity: "admin", Key: []byte("secretsecret"), Perms: PermAll},
			{Identity: "reader", Key: []byte("readerkey123"), Perms: PermRead | PermRange},
		}, Pin: []byte("pin")},
		{Type: TGetLogResponse, Log: map[string]string{"keys": "10", "name": "d0"}},
		{Type: TPutResponse, Seq: 9, Status: StatusVersionMismatch, StatusMsg: "conflict"},
		{Type: TP2PPush, Key: []byte("k"), Peer: "kinetic-1"},
		{Type: TNoop},
		{Type: TBatch, Batch: []BatchOp{
			{Op: BatchPut, Key: []byte("a"), Value: []byte("v"), NewVersion: []byte{1}, Force: true},
			{Op: BatchPut, Key: []byte("b"), Value: []byte("w"), DBVersion: []byte{1}, NewVersion: []byte{2}},
			{Op: BatchDelete, Key: []byte("c"), Force: true},
		}, GroupSizes: []uint32{2, 1}},
		{Type: TBatchResp, Seq: 7, GroupStatus: []BatchGroupStatus{
			{Status: StatusOK},
			{Status: StatusVersionMismatch, FailedIndex: 1, StatusMsg: "conflict"},
			{Status: StatusNotAuthorized, StatusMsg: "permission denied"},
		}},
	}
	for _, m := range msgs {
		data := m.Marshal()
		var got Message
		if err := got.Unmarshal(data); err != nil {
			t.Fatalf("unmarshal %v: %v", m.Type, err)
		}
		if !reflect.DeepEqual(*m, got) {
			t.Errorf("round trip %v:\n got %+v\nwant %+v", m.Type, got, *m)
		}
	}
}

func TestHMACSignVerify(t *testing.T) {
	key := []byte("0123456789abcdef")
	m := sampleMessage()
	m.Sign(key)
	if !m.Verify(key) {
		t.Fatal("verify failed for signed message")
	}
	if m.Verify([]byte("wrong key wrong key")) {
		t.Fatal("verify passed with wrong key")
	}

	// Any field mutation invalidates the HMAC.
	tampered := *m
	tampered.Value = []byte("evil")
	if tampered.Verify(key) {
		t.Fatal("verify passed after value tampering")
	}
	tampered = *m
	tampered.Seq++
	if tampered.Verify(key) {
		t.Fatal("verify passed after seq tampering")
	}
	tampered = *m
	tampered.User = "someone-else"
	if tampered.Verify(key) {
		t.Fatal("verify passed after user tampering")
	}
}

func TestHMACSurvivesTransport(t *testing.T) {
	key := []byte("0123456789abcdef")
	m := sampleMessage()
	m.Sign(key)
	var buf bytes.Buffer
	if err := WriteFrame(&buf, m); err != nil {
		t.Fatal(err)
	}
	var got Message
	if err := ReadFrame(bufio.NewReader(&buf), &got); err != nil {
		t.Fatal(err)
	}
	if !got.Verify(key) {
		t.Fatal("HMAC did not survive framing")
	}
}

func TestFrameRejectsBadMagic(t *testing.T) {
	var got Message
	err := ReadFrame(bufio.NewReader(bytes.NewReader([]byte{'X', 0, 0, 0, 1, 0})), &got)
	if err == nil {
		t.Fatal("bad magic accepted")
	}
}

func TestFrameRejectsOversize(t *testing.T) {
	hdr := []byte{Magic, 0xFF, 0xFF, 0xFF, 0xFF}
	var got Message
	if err := ReadFrame(bufio.NewReader(bytes.NewReader(hdr)), &got); err == nil {
		t.Fatal("oversized frame accepted")
	}
	m := &Message{Type: TPut, Value: make([]byte, MaxMessageSize+1)}
	if err := WriteFrame(&bytes.Buffer{}, m); err == nil {
		t.Fatal("oversized message written")
	}
}

func TestUnmarshalTruncated(t *testing.T) {
	data := sampleMessage().Marshal()
	for i := 1; i < len(data); i++ {
		var m Message
		// Truncations must error or at worst decode fewer fields;
		// they must never panic.
		_ = m.Unmarshal(data[:i])
	}
}

func TestUnmarshalGarbage(t *testing.T) {
	rnd := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		garbage := make([]byte, rnd.Intn(200))
		rnd.Read(garbage)
		var m Message
		_ = m.Unmarshal(garbage) // must not panic
	}
}

func TestQuickRoundTrip(t *testing.T) {
	f := func(seq uint64, user string, key, value, dbv, nv []byte, force bool) bool {
		m := &Message{Type: TPut, Seq: seq, User: user, Key: key, Value: value,
			DBVersion: dbv, NewVersion: nv, Force: force}
		var got Message
		if err := got.Unmarshal(m.Marshal()); err != nil {
			return false
		}
		// nil and empty slices are equivalent on the wire.
		norm := func(b []byte) []byte {
			if len(b) == 0 {
				return nil
			}
			return b
		}
		return got.Seq == m.Seq && got.User == m.User && got.Force == m.Force &&
			bytes.Equal(norm(got.Key), norm(m.Key)) &&
			bytes.Equal(norm(got.Value), norm(m.Value)) &&
			bytes.Equal(norm(got.DBVersion), norm(m.DBVersion)) &&
			bytes.Equal(norm(got.NewVersion), norm(m.NewVersion))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestResponsePairing(t *testing.T) {
	reqs := []MessageType{TGet, TPut, TDelete, TGetKeyRange, TSecurity, TErase,
		TNoop, TP2PPush, TGetLog, TGetVersion}
	for _, r := range reqs {
		if !r.IsRequest() {
			t.Errorf("%v should be a request", r)
		}
		resp := r.Response()
		if resp != r+1 {
			t.Errorf("%v response = %v, want %v", r, resp, r+1)
		}
		if resp.IsRequest() {
			t.Errorf("%v should not be a request", resp)
		}
	}
	if TGetResponse.Response() != TInvalid {
		t.Error("response of a response should be invalid")
	}
}

func TestStatusAndTypeStrings(t *testing.T) {
	for s := StatusOK; s <= StatusDeviceLocked; s++ {
		if s.String() == "" {
			t.Errorf("status %d has empty string", s)
		}
	}
	if StatusCode(200).String() == "" {
		t.Error("unknown status has empty string")
	}
	if TGet.String() != "GET" || MessageType(99).String() == "" {
		t.Error("type strings broken")
	}
}

func sampleBatch() *Message {
	return &Message{
		Type: TBatch,
		Seq:  7,
		User: "pesos-admin",
		Batch: []BatchOp{
			{Op: BatchPut, Key: []byte("o\x00k\x00v1"), Value: []byte("payload"),
				NewVersion: []byte{0, 0, 0, 1}, Force: true},
			{Op: BatchPut, Key: []byte("m\x00k"), Value: []byte("meta"),
				DBVersion: []byte{0, 0, 0, 0}, NewVersion: []byte{0, 0, 0, 1}},
			{Op: BatchDelete, Key: []byte("o\x00k\x00v0"), DBVersion: []byte{9}},
		},
	}
}

func TestBatchRoundTrip(t *testing.T) {
	msgs := []*Message{
		sampleBatch(),
		{Type: TBatchResp, Seq: 7, Status: StatusVersionMismatch,
			StatusMsg: "conflict", BatchFailed: true, FailedIndex: 1},
		{Type: TBatchResp, Seq: 8, Status: StatusNotAuthorized,
			BatchFailed: true, FailedIndex: 0}, // index 0 must survive
	}
	for _, m := range msgs {
		var got Message
		if err := got.Unmarshal(m.Marshal()); err != nil {
			t.Fatalf("unmarshal %v: %v", m.Type, err)
		}
		if !reflect.DeepEqual(*m, got) {
			t.Errorf("round trip %v:\n got %+v\nwant %+v", m.Type, got, *m)
		}
	}
}

func TestBatchHMACCoversSubOps(t *testing.T) {
	key := []byte("0123456789abcdef")
	m := sampleBatch()
	m.Sign(key)
	if !m.Verify(key) {
		t.Fatal("verify failed for signed batch")
	}
	// Tampering with any sub-operation invalidates the HMAC.
	tampered := *m
	tampered.Batch = append([]BatchOp(nil), m.Batch...)
	tampered.Batch[1].Value = []byte("evil meta")
	if tampered.Verify(key) {
		t.Fatal("verify passed after sub-op tampering")
	}
	tampered = *m
	tampered.Batch = m.Batch[:2] // dropping a sub-op must be detected
	if tampered.Verify(key) {
		t.Fatal("verify passed after sub-op removal")
	}
	tampered = *m
	tampered.Batch = append([]BatchOp(nil), m.Batch...)
	tampered.Batch[0], tampered.Batch[1] = tampered.Batch[1], tampered.Batch[0]
	if tampered.Verify(key) {
		t.Fatal("verify passed after sub-op reordering")
	}
}

func TestBatchResponsePairing(t *testing.T) {
	if !TBatch.IsRequest() {
		t.Error("TBatch should be a request")
	}
	if TBatch.Response() != TBatchResp {
		t.Errorf("TBatch response = %v, want %v", TBatch.Response(), TBatchResp)
	}
	if TBatchResp.IsRequest() {
		t.Error("TBatchResp should not be a request")
	}
	if TBatch.String() != "BATCH" || TBatchResp.String() != "BATCH_RESPONSE" {
		t.Error("batch type strings broken")
	}
}

// TestEncoderMatchesSignWriteFrame: the pooled encoder must emit
// byte-identical frames to the Sign+WriteFrame pair, across repeated
// messages, buffer reuse and credential key switches.
func TestEncoderMatchesSignWriteFrame(t *testing.T) {
	enc := NewEncoder()
	keys := [][]byte{[]byte("key-one-secret"), []byte("key-two-secret"), []byte("key-one-secret")}
	for i, key := range keys {
		m := &Message{
			Type: TPut, Seq: uint64(100 + i), User: "u",
			Key: []byte("object/key"), Value: bytes.Repeat([]byte{byte(i)}, 300+i*17),
			NewVersion: []byte{0, 0, 0, 0, 0, 0, 0, byte(i)},
		}
		var legacy bytes.Buffer
		ref := *m
		ref.Sign(key)
		if err := WriteFrame(&legacy, &ref); err != nil {
			t.Fatal(err)
		}
		var pooled bytes.Buffer
		if err := enc.WriteFrame(&pooled, m, key); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(legacy.Bytes(), pooled.Bytes()) {
			t.Fatalf("message %d: encoder frame differs from Sign+WriteFrame", i)
		}
		// The receiver verifies the pooled frame like any other.
		var got Message
		if err := ReadFrame(bufio.NewReader(&pooled), &got); err != nil {
			t.Fatal(err)
		}
		if !got.Verify(key) {
			t.Fatalf("message %d: pooled frame fails HMAC verification", i)
		}
		if got.Verify([]byte("wrong-key")) {
			t.Fatalf("message %d: pooled frame verifies under wrong key", i)
		}
	}
}

// TestEncoderRejectsOversize keeps the frame-size guard.
func TestEncoderRejectsOversize(t *testing.T) {
	enc := NewEncoder()
	m := &Message{Type: TPut, Key: []byte("k"), Value: make([]byte, MaxMessageSize)}
	if err := enc.WriteFrame(&bytes.Buffer{}, m, []byte("secret")); err == nil {
		t.Fatal("oversize frame accepted")
	}
}

// BenchmarkSignWriteFrameLegacy measures the seed's per-message path:
// fresh HMAC state plus a double body marshal per message.
func BenchmarkSignWriteFrameLegacy(b *testing.B) {
	key := []byte("bench-secret-key")
	m := &Message{Type: TPut, Seq: 1, User: "u", Key: []byte("object/key"),
		Value: make([]byte, 1024), NewVersion: []byte{1, 2, 3, 4, 5, 6, 7, 8}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.Seq = uint64(i)
		m.Sign(key)
		if err := WriteFrame(io.Discard, m); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSignWriteFramePooled measures the Encoder path the client
// uses: one marshal, reused HMAC state and buffers.
func BenchmarkSignWriteFramePooled(b *testing.B) {
	key := []byte("bench-secret-key")
	enc := NewEncoder()
	m := &Message{Type: TPut, Seq: 1, User: "u", Key: []byte("object/key"),
		Value: make([]byte, 1024), NewVersion: []byte{1, 2, 3, 4, 5, 6, 7, 8}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.Seq = uint64(i)
		if err := enc.WriteFrame(io.Discard, m, key); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBatchWireGrouped measures the per-logical-write cost of
// assembling and encoding merged grouped TBatch frames with reused
// sub-operation scratch — run with -benchmem; the allocs/op
// floor is asserted by TestBatchWritePathAllocs so a pooling
// regression fails the suite, not just the bench report.
func BenchmarkBatchWireGrouped(b *testing.B) {
	key := []byte("bench-secret-key")
	enc := NewEncoder()
	value := make([]byte, 1024)
	okey, mkey, ver := []byte("o/k/1"), []byte("m/k"), []byte{1}
	ops := make([]BatchOp, 0, 32)
	sizes := make([]uint32, 16)
	for i := range sizes {
		sizes[i] = 2
	}
	m := &Message{Type: TBatch, User: "pesos-admin"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ops = ops[:0]
		for g := 0; g < 16; g++ {
			ops = append(ops,
				BatchOp{Op: BatchPut, Key: okey, Value: value, NewVersion: ver, Force: true},
				BatchOp{Op: BatchPut, Key: mkey, Value: value[:96], NewVersion: ver})
		}
		m.Seq, m.Batch, m.GroupSizes = uint64(i), ops, sizes
		if err := enc.WriteFrame(io.Discard, m, key); err != nil {
			b.Fatal(err)
		}
	}
}

// TestBatchWritePathAllocs asserts the batch write path's wire
// assembly stays allocation-flat: encoding a merged 16-group batch
// into a reused encoder must not allocate per sub-operation (the
// marshal-buffer pooling every group-commit batch relies on).
func TestBatchWritePathAllocs(t *testing.T) {
	key := []byte("bench-secret-key")
	enc := NewEncoder()
	value := make([]byte, 1024)
	okey, mkey, ver := []byte("o/k/1"), []byte("m/k"), []byte{1}
	ops := make([]BatchOp, 0, 32)
	sizes := make([]uint32, 16)
	for i := range sizes {
		sizes[i] = 2
	}
	m := &Message{Type: TBatch, User: "pesos-admin"}
	seq := uint64(0)
	avg := testing.AllocsPerRun(200, func() {
		ops = ops[:0]
		for g := 0; g < 16; g++ {
			ops = append(ops,
				BatchOp{Op: BatchPut, Key: okey, Value: value, NewVersion: ver, Force: true},
				BatchOp{Op: BatchPut, Key: mkey, Value: value[:96], NewVersion: ver})
		}
		seq++
		m.Seq, m.Batch, m.GroupSizes = seq, ops, sizes
		if err := enc.WriteFrame(io.Discard, m, key); err != nil {
			t.Fatal(err)
		}
	})
	// A 32-sub-op frame reuses the encoder's buffer and HMAC state;
	// nothing on the path may allocate per sub-op.
	if avg > 2 {
		t.Fatalf("merged batch encode allocates %.1f/frame; pooling regressed", avg)
	}
}
