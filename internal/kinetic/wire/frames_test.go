package wire

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"reflect"
	"testing"
	"unsafe"
)

var shapeKey = []byte("0123456789abcdef")

// shape is one message form the protocol carries. Requests travel
// signed, responses do not.
type shape struct {
	name   string
	msg    *Message
	golden string // SHA-256 of the frame, recorded before the copy-free codec
}

func patterned(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*7 + i>>8)
	}
	return b
}

// frameShapes covers every message form: GET/PUT/range/grouped
// batch/security/log, 0-length and 1 MiB values.
func frameShapes() []shape {
	keys := make([][]byte, 100)
	values := make([][]byte, 100)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("m\x00user%04d/record", i))
		values[i] = patterned(140 + i%7)
	}
	values[3] = nil // an empty record still holds its place beside its key
	return []shape{
		{"get", &Message{Type: TGet, Seq: 1, User: "pesos-admin", Key: []byte("m\x00k"), TraceID: 0xdeadbeefcafef00d},
			"d8db6a3393d6a6c74817a7b041e270655d30fd36e67a065e2d814348d87ae3b0"},
		{"get-response", &Message{Type: TGetResponse, Seq: 1, Key: []byte("m\x00k"), Value: patterned(1024),
			DBVersion: []byte{0, 0, 0, 7}, TraceID: 0xdeadbeefcafef00d, ServiceUs: 1250},
			"0ed0a42d5aecf7e9c944db8a9ce94e87c0f2c881005588a74de58f1d2ee083b6"},
		{"get-response-not-found", &Message{Type: TGetResponse, Seq: 2, Status: StatusNotFound, ServiceUs: 3},
			"a48f61ebf628c8fabcf50f87e84cb49684928902977c972b0545c558673fa93d"},
		{"put", sampleMessage(),
			"40859a7aca1bd31485e81a5f1aec21aeb8b6231e0d466d3545b880c690acae80"},
		{"put-empty-value", &Message{Type: TPut, Seq: 3, User: "u", Key: []byte("k"), Value: []byte{}, NewVersion: []byte{1}, Force: true},
			"8632c319c1c92fe01210e8489f78cadbdaaa78b3e26d6e735258c6d37c320756"},
		{"put-1MiB", &Message{Type: TPut, Seq: 4, User: "pesos-admin", Key: []byte("c\x00big\x00000001"), Value: patterned(1 << 20),
			NewVersion: []byte{0, 0, 0, 0, 0, 0, 0, 1}, Force: true, TraceID: 9},
			"148464ac658e38e4d0f62a1e715dcedab987952ab3688715158d38705d945b94"},
		{"put-response-conflict", &Message{Type: TPutResponse, Seq: 9, Status: StatusVersionMismatch, StatusMsg: "conflict", DBVersion: []byte{5}},
			"0ceed3d2f095d4420ae45a024f32ba377d3c69d84bad87cb6e88821971039942"},
		{"delete", &Message{Type: TDelete, Seq: 5, User: "u", Key: []byte("k"), DBVersion: []byte{1}},
			"d428b8f489c8fdbc65b8f120373a5c006d376582cc7a72020466de82ea6fb387"},
		{"range", &Message{Type: TGetKeyRange, Seq: 6, User: "u", StartKey: []byte("a"), EndKey: []byte("z"),
			MaxReturned: 100, Reverse: true, KeyInclusive: true},
			"7c1b0e4aafc4c2871db0abc30c3cf46efe8ffccfa705c7e7ba59c82db2d1e0fb"},
		{"range-response", &Message{Type: TGetKeyRangeResp, Seq: 6, Keys: keys, ServiceUs: 40},
			"71c65fd68bf0e1d6032dff6cdff741f336d14e2c7dc769d9bd48ba66710c9c89"},
		{"batch-grouped", &Message{Type: TBatch, Seq: 7, User: "pesos-admin", Batch: []BatchOp{
			{Op: BatchPut, Key: []byte("o\x00a\x001"), Value: patterned(300), NewVersion: []byte{1}, Force: true},
			{Op: BatchPut, Key: []byte("m\x00a"), Value: []byte("meta"), DBVersion: []byte{1}, NewVersion: []byte{2}},
			{Op: BatchDelete, Key: []byte("o\x00c\x000"), Force: true},
		}, GroupSizes: []uint32{2, 1}},
			"2a3ee9b56c3b03cf47ef7aabf315e7af9c4ed65091f0bd483113d706ce280ddb"},
		{"batch-atomic", sampleBatch(),
			"472cb1b29acc17916ab3ab8f07e0d2e3071a2fd576f240fe193b4ddf450b65ef"},
		{"batch-response-grouped", &Message{Type: TBatchResp, Seq: 7, GroupStatus: []BatchGroupStatus{
			{Status: StatusOK},
			{Status: StatusVersionMismatch, FailedIndex: 1, StatusMsg: "conflict"},
			{Status: StatusNotAuthorized, StatusMsg: "permission denied"},
		}},
			"a1b2f226c74391eec788015e3f701fe60cfb1fbd80e34bd7b46faa0fad66c07f"},
		{"batch-response-failed", &Message{Type: TBatchResp, Seq: 8, Status: StatusNotAuthorized, BatchFailed: true},
			"5f568676640a676e76ac19e054026d609f2e71f45a681bf11f10de4d6fe38337"},
		{"security", &Message{Type: TSecurity, Seq: 10, User: "factory-admin", ACLs: []ACL{
			{Identity: "admin", Key: []byte("secretsecret"), Perms: PermAll},
			{Identity: "reader", Key: []byte("readerkey123"), Perms: PermRead | PermRange},
		}, Pin: []byte("pin")},
			"647640524837f2d863bd18b29a98959ec7919831b96820fe8e7594c38e540056"},
		{"erase", &Message{Type: TErase, Seq: 11, User: "admin", Pin: []byte("1234")},
			"392d72c7f392b91da4cf19f4946632734f5e9d316c06c0fb883e5f1f1fbee546"},
		{"p2p", &Message{Type: TP2PPush, Seq: 12, User: "admin", Key: []byte("k"), Peer: "kinetic-1"},
			"e8a6f98e0b5bb429562ec97dfdb1aab2fad5e3f6f02bc7d14333f2b9ba770b68"},
		{"getlog", &Message{Type: TGetLog, Seq: 13, User: "admin"},
			"32d76160f15364f1597be5f26d5448d127b8066f5b13f5b17ea46da61751b38f"},
		{"getlog-response", &Message{Type: TGetLogResponse, Seq: 13, Log: map[string]string{"name": "kinetic-0"}},
			"91cb5dd4f0575fff13df6fabd5012842e1f778f122cca0a5d20588286fd1dfb0"},
		{"noop", &Message{Type: TNoop, Seq: 14, User: "admin"},
			"2df95078364a8f057d5c1ee0ce58724190b69e98db3f17f878b0618bad2caf5f"},
		// The range-with-values extension; the 20 shapes above predate it,
		// and it moved none of their digests.
		{"range-values", &Message{Type: TGetKeyRange, Seq: 16, User: "pesos-admin", StartKey: []byte("m\x00user"), EndKey: []byte("m\x00uses"),
			MaxReturned: 101, KeyInclusive: true, WithValues: true, TraceID: 7},
			"97f56fef1cd290c3ff2c2c28d68bd1c0204ef40c02b79666c7b340c9b680a639"},
		{"range-values-response", &Message{Type: TGetKeyRangeResp, Seq: 16, Keys: keys, Values: values, Truncated: true, TraceID: 7, ServiceUs: 55},
			"2d086e4e27edf222e6c85b4a8b311945ef43196bd3803a985a70be81ac482db6"},
		{"range-response-truncated", &Message{Type: TGetKeyRangeResp, Seq: 17, Keys: keys[:8], Truncated: true, ServiceUs: 2},
			"1244bfb384fbbc5084ebf9254fd9f35a905a0f2e49abdd38d4fd71df9b8513a2"},
	}
}

// referenceFrame is the frame the seed's codec puts on the wire:
// Sign+WriteFrame for a request, plain WriteFrame for a response.
func referenceFrame(t testing.TB, m *Message) []byte {
	ref := *m
	if ref.Type.IsRequest() {
		ref.Sign(shapeKey)
	}
	var buf bytes.Buffer
	if err := WriteFrame(&buf, &ref); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestGoldenFrames pins the wire encoding of every message shape to
// digests recorded from the codec as it was before the copy-free
// rewrite — put and put-1MiB since the MAC left the value's bytes out,
// and they and batch-grouped since the sync-mode field was retired — and
// holds the Encoder to the same bytes.
func TestGoldenFrames(t *testing.T) {
	enc := NewEncoder()
	for _, s := range frameShapes() {
		want := referenceFrame(t, s.msg)
		sum := sha256.Sum256(want)
		if got := hex.EncodeToString(sum[:]); got != s.golden {
			t.Errorf("%s: frame digest %s, golden %s", s.name, got, s.golden)
		}
		var got bytes.Buffer
		var err error
		if s.msg.Type.IsRequest() {
			err = enc.WriteFrame(&got, s.msg, shapeKey)
		} else {
			err = enc.WriteUnsigned(&got, s.msg)
		}
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("%s: encoder frame differs from Sign+WriteFrame", s.name)
		}
	}
}

// unframed strips what only ReadFrame sets, for comparing a received
// message with the fields it was built from.
func unframed(m Message) Message {
	m.frame, m.macOff, m.valOff, m.valEnd = nil, 0, 0, 0
	return m
}

// checkFrame holds one frame to the decode and authentication
// properties; canonical says the frame is exactly what Marshal would
// produce for its fields.
func checkFrame(t *testing.T, frame []byte) {
	var got Message
	if err := ReadFrame(bufio.NewReader(bytes.NewReader(frame)), &got); err != nil {
		return
	}
	body := frame[frameHeaderLen : frameHeaderLen+got.FrameSize()]
	// (a) aliasing and cloning decode agree.
	var cloned Message
	if err := cloned.Unmarshal(body); err != nil {
		t.Fatalf("ReadFrame accepted what Unmarshal refuses: %v", err)
	}
	if !reflect.DeepEqual(unframed(got), cloned) {
		t.Fatalf("alias decode differs from cloning decode:\n got %+v\nwant %+v", unframed(got), cloned)
	}
	canonical := bytes.Equal(cloned.Marshal(), body)
	// (b) on a canonical frame both ways of verifying give one answer;
	// on any frame, received-bytes verification accepts no more than
	// the framing rule allows.
	recv, remarshal := got.Verify(shapeKey), cloned.Verify(shapeKey)
	if canonical && recv != remarshal {
		t.Fatalf("canonical frame: verify as received %v, by re-marshal %v", recv, remarshal)
	}
	if recv && got.macOff+fieldSize(len(got.HMAC)) != len(body) {
		t.Fatal("verified a frame whose HMAC field is not final")
	}
	if recv {
		checkValueOutsideMAC(t, body)
	}
	// (d) decoded fields do not overlap: filling one leaves the rest,
	// and appending to one reallocates.
	fields := [][]byte{got.Key, got.Value, got.DBVersion, got.NewVersion, got.StartKey, got.EndKey, got.Pin, got.HMAC}
	fields = append(fields, got.Keys...)
	fields = append(fields, got.Values...)
	for _, op := range got.Batch {
		fields = append(fields, op.Key, op.Value, op.DBVersion, op.NewVersion)
	}
	for _, a := range got.ACLs {
		fields = append(fields, a.Key)
	}
	for i, f := range fields {
		if len(f) == 0 {
			continue
		}
		if cap(f) != len(f) {
			t.Fatalf("field %d has spare capacity %d", i, cap(f)-len(f))
		}
		saved := append([]byte(nil), f...)
		for j := range f {
			f[j] ^= 0xff
		}
		for k, g := range fields {
			if k == i || len(g) == 0 {
				continue
			}
			lo, hi := uintptr(unsafe.Pointer(&g[0])), uintptr(unsafe.Pointer(&f[0]))
			if lo < hi+uintptr(len(f)) && hi < lo+uintptr(len(g)) {
				t.Fatalf("fields %d and %d overlap", i, k)
			}
		}
		copy(f, saved)
	}
	if !reflect.DeepEqual(unframed(got), cloned) {
		t.Fatal("restoring mutated fields did not restore the message")
	}
}

func FuzzReadFrame(f *testing.F) {
	for _, s := range frameShapes() {
		f.Add(referenceFrame(f, s.msg))
	}
	f.Add([]byte{Magic, 0, 0, 0, 0})
	// Kinetic's FLUSH request type and the retired sync-mode field,
	// neither of which the drive link carries any more.
	f.Add(referenceFrame(f, &Message{Type: 16, Seq: 15, User: "admin"}))
	f.Add(retiredSyncFrame(sampleMessage()))
	put := referenceFrame(f, sampleMessage())
	hdr, off, end, _ := valueField(put[frameHeaderLen:])
	f.Add(reframe(twoValues(put[frameHeaderLen:], hdr, end)))
	flipped := append([]byte(nil), put...)
	flipped[frameHeaderLen+(off+end)/2] ^= 0x10
	f.Add(flipped)
	f.Fuzz(func(t *testing.T, frame []byte) { checkFrame(t, frame) })
}

// TestFrameProperties runs the fuzz properties over the seed corpus
// and, per shape, the tamperings a drive must refuse.
func TestFrameProperties(t *testing.T) {
	for _, s := range frameShapes() {
		frame := referenceFrame(t, s.msg)
		checkFrame(t, frame)
		if !s.msg.Type.IsRequest() {
			continue
		}
		got, err := read(frame)
		if err != nil || !got.Verify(shapeKey) {
			t.Fatalf("%s: signed frame does not verify (%v)", s.name, err)
		}
		if got.Verify([]byte("another key entirely")) {
			t.Fatalf("%s: verifies under the wrong key", s.name)
		}
		body := frame[frameHeaderLen:]
		// (c) bytes after the HMAC field: a field the re-marshalling
		// verifier would have ignored.
		trailing := reframe(append(append([]byte(nil), body...), 0x7f, 1, 0xaa))
		if m, err := read(trailing); err == nil && m.Verify(shapeKey) {
			t.Errorf("%s: frame with bytes after fHMAC verified", s.name)
		}
		// (c) HMAC field moved ahead of the body.
		macLen := fieldSize(sha256.Size)
		split := len(body) - macLen
		moved := reframe(append(append([]byte(nil), body[split:]...), body[:split]...))
		if m, err := read(moved); err == nil && m.Verify(shapeKey) {
			t.Errorf("%s: frame with a non-final fHMAC verified", s.name)
		}
		// (c) a second HMAC field behind the first.
		doubled := reframe(append(append([]byte(nil), body...), body[split:]...))
		if m, err := read(doubled); err == nil && m.Verify(shapeKey) {
			t.Errorf("%s: frame with two fHMAC fields verified", s.name)
		}
		// (c) one flipped bit anywhere in the body but the value's bytes,
		// which the MAC leaves out (checkValueOutsideMAC). Every byte for
		// the small shapes, a stride through the 1 MiB one.
		step := max(1, len(body)/512)
		for i := 0; i < len(body); i += step {
			if i >= got.valOff && i < got.valEnd {
				continue
			}
			flipped := append([]byte(nil), frame...)
			flipped[frameHeaderLen+i] ^= 0x10
			if m, err := read(flipped); err == nil && m.Verify(shapeKey) {
				t.Fatalf("%s: frame with bit flipped at body offset %d verified", s.name, i)
			}
		}
	}
}

// retiredSyncFrame is m signed under shapeKey in the format of a drive
// link that carried a sync mode: field 11 set to 1 (write-back) behind
// m's other fields. The decoder skips it as an unknown field; the MAC
// covers it as it covers every field received.
func retiredSyncFrame(m *Message) []byte {
	head := m.marshalHead(nil)
	tail := appendField(m.marshalTail(nil), 11, []byte{1})
	body := append(append(head[:len(head):len(head)], m.Value...), tail...)
	return reframe(appendField(body, fHMAC, NewMAC(shapeKey).tag(head, tail)))
}

// read decodes one frame.
func read(frame []byte) (Message, error) {
	var m Message
	err := ReadFrame(bufio.NewReader(bytes.NewReader(frame)), &m)
	return m, err
}

// reframe puts a frame header in front of body.
func reframe(body []byte) []byte {
	out := []byte{Magic, 0, 0, 0, 0}
	out[1], out[2], out[3], out[4] = byte(len(body)>>24), byte(len(body)>>16), byte(len(body)>>8), byte(len(body))
	return append(out, body...)
}

// verifies reports whether body, framed, decodes and verifies under
// shapeKey.
func verifies(body []byte) bool {
	m, err := read(reframe(body))
	return err == nil && m.Verify(shapeKey)
}

// valueField finds the top-level fValue field of body: its header
// starts at hdr, its value's bytes are body[off:end].
func valueField(body []byte) (hdr, off, end int, ok bool) {
	for rest := body; len(rest) > 0; {
		tag, val, r, err := readField(rest)
		if err != nil {
			return 0, 0, 0, false
		}
		if tag == fValue {
			end = len(body) - len(r)
			return len(body) - len(rest), end - len(val), end, true
		}
		rest = r
	}
	return 0, 0, 0, false
}

// twoValues is body with a copy of its value field, body[hdr:end],
// inserted right behind it.
func twoValues(body []byte, hdr, end int) []byte {
	out := append([]byte(nil), body[:end]...)
	out = append(out, body[hdr:end]...)
	return append(out, body[end:]...)
}

// withValue is body with its value field, body[hdr:end], carrying v
// instead, its length fixed up.
func withValue(body []byte, hdr, end int, v []byte) []byte {
	out := appendField(append([]byte(nil), body[:hdr]...), fValue, v)
	return append(out, body[end:]...)
}

// checkValueOutsideMAC holds a frame body that verifies under shapeKey
// to the MAC rule: rewriting any of its value's bytes still verifies
// (the drive-link MAC leaves them out), while flipping any other byte
// ahead of fHMAC, resizing the value with its length fixed up, or
// adding a second value field fails. Every byte outside the value is
// tried, a stride of at most 64 through the value.
func checkValueOutsideMAC(t *testing.T, body []byte) {
	t.Helper()
	var m Message
	if err := m.decode(append([]byte(nil), body...), true); err != nil || m.macOff < 0 {
		t.Fatalf("a verified frame does not decode to the framing rule: %v", err)
	}
	hdr, off, end, hasValue := valueField(body)
	step := max(1, (end-off)/64)
	for i := 0; i < m.macOff; i++ {
		if hasValue && i >= off && i < end && (i-off)%step != 0 {
			continue
		}
		flipped := append([]byte(nil), body...)
		flipped[i] ^= 0x10
		inValue := hasValue && i >= off && i < end
		if got := verifies(flipped); got != inValue {
			t.Fatalf("byte %d flipped (inside the value: %v): verified %v", i, inValue, got)
		}
	}
	if !hasValue {
		return
	}
	value := body[off:end]
	if len(value) > 0 && verifies(withValue(body, hdr, end, value[:len(value)-1])) {
		t.Fatal("a value truncated by a byte, its length fixed up, verified")
	}
	if verifies(withValue(body, hdr, end, append(append([]byte(nil), value...), 0))) {
		t.Fatal("a value extended by a byte, its length fixed up, verified")
	}
	if verifies(twoValues(body, hdr, end)) {
		t.Fatal("a frame with two value fields verified")
	}
}

// TestValueOutsideMAC: a signed TPut authenticates its command and its
// value's length, not the value's bytes, both on a frame as received
// and on a message verified by re-marshalling.
func TestValueOutsideMAC(t *testing.T) {
	for _, m := range []*Message{sampleMessage(), {Type: TPut, Seq: 4, User: "pesos-admin",
		Key: []byte("c\x00big\x00000001"), Value: patterned(1 << 20), NewVersion: []byte{1}, TraceID: 9}} {
		frame := referenceFrame(t, m)
		checkValueOutsideMAC(t, frame[frameHeaderLen:])
		got, err := read(frame)
		if err != nil || !got.Verify(shapeKey) {
			t.Fatalf("signed frame does not verify: %v", err)
		}
		rewritten := unframed(got)
		rewritten.Value = bytes.Repeat([]byte{0xa5}, len(m.Value))
		if !rewritten.Verify(shapeKey) {
			t.Error("a value rewritten at its length fails re-marshalling verification")
		}
		rewritten.Value = rewritten.Value[1:]
		if rewritten.Verify(shapeKey) {
			t.Error("a value one byte short verifies by re-marshalling")
		}
	}
}

// TestFrameWithTwoValuesRefused: a request frame carrying two
// top-level value fields breaks the framing rule and fails
// verification, as a second fHMAC does — even signed by a sender that
// MACed it around either one of its values, so no verifier has to guess
// which value the MAC left out.
func TestFrameWithTwoValuesRefused(t *testing.T) {
	body := referenceFrame(t, sampleMessage())[frameHeaderLen:]
	if !verifies(body) {
		t.Fatal("signed put does not verify")
	}
	hdr, off, end, ok := valueField(body)
	if !ok {
		t.Fatal("signed put carries no value field")
	}
	if verifies(twoValues(body, hdr, end)) {
		t.Fatal("frame with two value fields verified")
	}
	unsigned := body[:len(body)-fieldSize(sha256.Size)]
	two := twoValues(unsigned, hdr, end)
	second := end + off - hdr // the copy's value bytes: two[second:second+end-off]
	for _, cut := range [][2]int{{off, end}, {second, second + end - off}} {
		tag := NewMAC(shapeKey).tag(two[:cut[0]], two[cut[1]:])
		if verifies(appendField(append([]byte(nil), two...), fHMAC, tag)) {
			t.Fatalf("two value fields, MACed around bytes %d..%d, verified", cut[0], cut[1])
		}
	}
}

// valueSpy records whether the value reached the writer as the
// caller's own slice.
type valueSpy struct {
	value  []byte
	direct bool
}

func (s *valueSpy) Write(p []byte) (int, error) {
	if len(p) == len(s.value) && len(p) > 0 && &p[0] == &s.value[0] {
		s.direct = true
	}
	return len(p), nil
}

// TestCodecAllocBudget pins what a frame costs in allocations, in the
// style of core's TestBatchWritePathAllocs: a regression here is a
// per-frame cost on every drive round trip.
func TestCodecAllocBudget(t *testing.T) {
	big := &Message{Type: TPut, Seq: 1, User: "pesos-admin", Key: []byte("c\x00big\x00000001"),
		Value: patterned(1 << 20), NewVersion: []byte{0, 0, 0, 0, 0, 0, 0, 1}, Force: true}
	enc := NewEncoder()
	spy := &valueSpy{value: big.Value}
	if err := enc.WriteFrame(spy, big, shapeKey); err != nil {
		t.Fatal(err)
	}
	if !spy.direct {
		t.Error("encoder copied the 1 MiB value instead of writing it in place")
	}
	if n := testing.AllocsPerRun(20, func() { enc.WriteFrame(io.Discard, big, shapeKey) }); n != 0 {
		t.Errorf("steady-state encode of a 1 MiB PUT: %.0f allocs, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { _ = TGetKeyRangeResp.String() }); n != 0 {
		t.Errorf("MessageType.String: %.0f allocs, want 0", n)
	}

	// Decode: the frame body, the User string of a request, and one
	// slice per repeated field present. Security and log messages also
	// pay for their identity and map strings and are not budgeted.
	for _, s := range frameShapes() {
		m := s.msg
		if len(m.ACLs) > 0 || len(m.Log) > 0 {
			continue
		}
		budget := 1.0
		for _, str := range []string{m.User, m.StatusMsg, m.Peer} {
			if str != "" {
				budget++
			}
		}
		for _, g := range m.GroupStatus {
			if g.StatusMsg != "" {
				budget++
			}
		}
		for _, n := range []int{len(m.Keys), len(m.Values), len(m.Batch), len(m.GroupSizes), len(m.GroupStatus)} {
			if n > 0 {
				budget++
			}
		}
		frame := referenceFrame(t, m)
		rd := bytes.NewReader(frame)
		br := bufio.NewReaderSize(rd, 64<<10)
		var got Message
		n := testing.AllocsPerRun(20, func() {
			rd.Reset(frame)
			br.Reset(rd)
			if err := ReadFrame(br, &got); err != nil {
				t.Fatal(err)
			}
		})
		if n > budget {
			t.Errorf("%s: decode costs %.0f allocs, budget %.0f", s.name, n, budget)
		}
	}
}

// TestRecycledMessageReusesItsBuffers: a message handed back by Recycle
// decodes the next frame into the frame body and the Keys/Values slices
// it already holds — the same fields as a fresh decode, for no
// allocation — while a message that was not recycled never reuses
// anything a caller may still hold.
func TestRecycledMessageReusesItsBuffers(t *testing.T) {
	var big, small *Message
	for _, s := range frameShapes() {
		switch s.name {
		case "range-values-response":
			big = s.msg
		case "range-response-truncated":
			small = s.msg
		}
	}
	bigFrame, smallFrame := referenceFrame(t, big), referenceFrame(t, small)
	read := func(m *Message, frame []byte) {
		t.Helper()
		if err := ReadFrame(bufio.NewReader(bytes.NewReader(frame)), m); err != nil {
			t.Fatal(err)
		}
	}

	var m, fresh Message
	read(&m, bigFrame)
	body := &m.frame[0]
	m.Recycle()
	if m.Keys != nil && len(m.Keys) != 0 || m.Truncated || m.Type != 0 {
		t.Fatalf("Recycle left fields behind: %+v", m)
	}
	read(&m, smallFrame)
	read(&fresh, smallFrame)
	if !reflect.DeepEqual(unframed(m), unframed(fresh)) {
		t.Fatalf("recycled decode differs from a fresh one:\n got %+v\nwant %+v", unframed(m), unframed(fresh))
	}
	if m.Values != nil && len(m.Values) != 0 {
		t.Fatalf("keys-only frame decoded %d values out of the recycled slice", len(m.Values))
	}
	if &m.frame[0] != body {
		t.Fatal("the smaller frame was not read into the recycled body")
	}

	rd := bytes.NewReader(bigFrame)
	br := bufio.NewReaderSize(rd, 64<<10)
	if n := testing.AllocsPerRun(50, func() {
		m.Recycle()
		rd.Reset(bigFrame)
		br.Reset(rd)
		if err := ReadFrame(br, &m); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("ReadFrame into a recycled message: %.0f allocs, want 0", n)
	}

	// Without Recycle the previous decode stays intact.
	read(&fresh, bigFrame)
	held := fresh.Keys
	heldFirst := append([]byte(nil), held[0]...)
	read(&fresh, smallFrame)
	if len(held) != len(big.Keys) || !bytes.Equal(held[0], heldFirst) || !bytes.Equal(held[99], big.Keys[99]) {
		t.Fatal("a second ReadFrame into an unrecycled message overwrote what the first returned")
	}
}
