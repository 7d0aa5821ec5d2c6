package store

import (
	"bytes"
	"encoding/hex"
	"errors"
	"fmt"
	"strings"
	"testing"
	"testing/quick"
)

func testCodec(t *testing.T, enabled bool) *Codec {
	t.Helper()
	var key [32]byte
	key[0] = 1
	c, err := NewCodec(key, enabled)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func sampleMeta() Meta {
	var h, ph [32]byte
	h[0], ph[0] = 1, 2
	return Meta{Key: "obj", Version: 3, Size: 5, ContentHash: h, PolicyID: "pid", PolicyHash: ph}
}

// decodeMeta opens data as the head record of key.
func decodeMeta(c *Codec, data []byte, key string) (*Meta, error) {
	m := new(Meta)
	if err := c.DecodeMeta(data, key, m); err != nil {
		return nil, err
	}
	return m, nil
}

func TestMetaRoundTrip(t *testing.T) {
	c := testCodec(t, true)
	m := sampleMeta()
	got, err := decodeMeta(c, c.EncodeMeta(&m), m.Key)
	if err != nil {
		t.Fatal(err)
	}
	if *got != m {
		t.Fatalf("round trip: %+v vs %+v", got, m)
	}
	// Empty policy id works too.
	m.PolicyID = ""
	got, err = decodeMeta(c, c.EncodeMeta(&m), m.Key)
	if err != nil || got.PolicyID != "" {
		t.Fatal("empty policy id round trip")
	}
	// A head record names the key it is stored under.
	if _, err := decodeMeta(c, c.EncodeMeta(&m), "other"); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("head of %q opened as another key's: %v", m.Key, err)
	}
}

func TestMetaUnmarshalGarbage(t *testing.T) {
	c := testCodec(t, true)
	m := sampleMeta()
	data := c.EncodeMeta(&m)
	for i := 0; i < len(data); i++ {
		_, _ = decodeMeta(c, data[:i], m.Key) // must not panic
	}
	if _, err := decodeMeta(c, nil, ""); err == nil {
		t.Error("nil accepted")
	}
	// A replicated chunked stub followed by a zero ECK/ECM pair and no
	// upload id: the pair is only written ahead of an id.
	m.Chunks = 3
	zeroPair := append(c.EncodeMeta(&m), 0x00, 0x00)
	if _, err := decodeMeta(c, zeroPair, m.Key); err == nil {
		t.Error("a zero ECK/ECM pair without an upload id accepted")
	}
}

// TestChunkSet: an upload id lies where no version reaches, names its
// stub's chunk set, and a stub without one names its chunks by version;
// a record claiming an id below the range does not open.
func TestChunkSet(t *testing.T) {
	for i := 0; i < 1000; i++ {
		if id := NewUploadID(); id < 1<<62 {
			t.Fatalf("upload id %d below 1<<62", id)
		}
	}
	m := sampleMeta()
	m.Chunks = 3
	if m.ChunkSet() != m.Version {
		t.Errorf("id-less stub names set %d, want its version %d", m.ChunkSet(), m.Version)
	}
	m.Upload = NewUploadID()
	if m.ChunkSet() != m.Upload {
		t.Errorf("upload-named stub names set %d, want %d", m.ChunkSet(), m.Upload)
	}
	c := testCodec(t, true)
	m.Upload = m.Version
	if _, err := decodeMeta(c, c.EncodeMeta(&m), m.Key); err == nil {
		t.Error("a stub naming its chunks by an id in the version range opened")
	}
}

// TestEncodeMetaParentBytes pins the head record's format: EncodeMeta
// writes, byte for byte, what the bare metadata marshal wrote before the
// codec owned the record, and DecodeMeta opens it back. A format change
// is a deliberate edit of this table: an upload-named stub appends its
// id after ECK/ECM, zeros on a replicated stub.
func TestEncodeMetaParentBytes(t *testing.T) {
	var h, ph [32]byte
	h[0], h[31], ph[0], ph[31] = 1, 0x1f, 2, 0x2f
	inline := Meta{Key: "obj", Version: 3, Size: 5, ContentHash: h, PolicyID: "pid", PolicyHash: ph}
	chunked := inline
	chunked.Version, chunked.Size, chunked.Chunks = 300, 3<<20, 3
	ec := chunked
	ec.Chunks, ec.ECK, ec.ECM = 9, 4, 2
	uploaded, ecUploaded := chunked, ec
	uploaded.Upload, ecUploaded.Upload = 1<<62+5, 1<<63-1
	noPolicy := inline
	noPolicy.PolicyID, noPolicy.PolicyHash = "", [32]byte{}
	binary := inline
	binary.Key, binary.Version = "\xff\xfe\x01bin", 0
	const hashes = "010000000000000000000000000000000000000000000000000000000000001f"
	const policy = "03706964020000000000000000000000000000000000000000000000000000000000002f"
	for _, c := range []struct {
		name string
		m    Meta
		hex  string
	}{
		{"inline", inline, "036f626a060a" + hashes + policy},
		{"chunked", chunked, "036f626ad8048080800301" + hashes[2:] + policy + "06"},
		{"erasure-coded", ec, "036f626ad8048080800301" + hashes[2:] + policy + "120804"},
		{"upload-named", uploaded, "036f626ad8048080800301" + hashes[2:] + policy + "06" + "0000" + "8a808080808080808001"},
		{"upload-named erasure-coded", ecUploaded, "036f626ad8048080800301" + hashes[2:] + policy + "120804" + "feffffffffffffffff01"},
		{"no policy", noPolicy, "036f626a060a" + hashes + "00" + strings.Repeat("00", 32)},
		{"binary key", binary, "06fffe0162696e000a" + hashes + policy},
	} {
		codec := testCodec(t, true)
		got := codec.EncodeMeta(&c.m)
		if hex.EncodeToString(got) != c.hex {
			t.Errorf("%s: EncodeMeta wrote\n%x\nwant\n%s", c.name, got, c.hex)
		}
		if back, err := decodeMeta(codec, got, c.m.Key); err != nil || *back != c.m {
			t.Errorf("%s: DecodeMeta gave %+v, %v", c.name, back, err)
		}
	}
}

func TestRecordEncryptedRoundTrip(t *testing.T) {
	c := testCodec(t, true)
	rec := &Record{Meta: sampleMeta(), Payload: []byte("payload bytes")}
	blob, err := c.EncodeRecord(rec)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(blob, rec.Payload) {
		t.Fatal("payload visible in encrypted record")
	}
	got, err := c.DecodeRecord(blob)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Payload, rec.Payload) || got.Meta != rec.Meta {
		t.Fatal("round trip mismatch")
	}
}

func TestRecordPlainRoundTrip(t *testing.T) {
	c := testCodec(t, false)
	rec := &Record{Meta: sampleMeta(), Payload: []byte("plain payload")}
	rec.Meta.ContentHash = HashContent(rec.Payload)
	blob, err := c.EncodeRecord(rec)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(blob, rec.Payload) {
		t.Fatal("plain codec should not encrypt")
	}
	got, err := c.DecodeRecord(blob)
	if err != nil || !bytes.Equal(got.Payload, rec.Payload) {
		t.Fatal("plain round trip")
	}
}

// TestPlainRecordAuthenticatedByContentHash: a plain record has no tag,
// so the codec itself holds it to its content hash — no caller has to
// remember to.
func TestPlainRecordAuthenticatedByContentHash(t *testing.T) {
	c := testCodec(t, false)
	rec := &Record{Meta: sampleMeta(), Payload: []byte("plain payload")}
	rec.Meta.ContentHash = HashContent(rec.Payload)
	blob, err := c.EncodeRecord(rec)
	if err != nil {
		t.Fatal(err)
	}
	// Plain records are a plaintext deployment's: under a sealing codec
	// one is a downgrade, whatever its hash says.
	if _, err := testCodec(t, true).DecodeRecord(blob); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("sealing codec took a plain record: %v", err)
	}
	mut := append([]byte(nil), blob...)
	mut[len(mut)-1] ^= 1
	if _, err := c.DecodeRecord(mut); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("flipped payload byte of a plain record: %v", err)
	}
	buf := make([]byte, 0, 64)
	if _, err := c.DecodeRecordInto(mut, buf); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("flipped payload byte, pooled decode: %v", err)
	}
	// A record whose hash field never matched is as corrupt as a
	// damaged one.
	rec.Meta.ContentHash[0] ^= 1
	blob, _ = c.EncodeRecord(rec)
	if _, err := c.DecodeRecord(blob); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("plain record with a wrong hash: %v", err)
	}
}

// TestChunkRecords: what authenticates a chunk record depends on its
// kind, the encoded size does not, and the chunk id binds it to one
// (object, version, index).
func TestChunkRecords(t *testing.T) {
	payload := bytes.Repeat([]byte("chunk"), 1000)
	sizes := map[bool]int{}
	for _, enc := range []bool{true, false} {
		c := testCodec(t, enc)
		dst := make([]byte, 0, len(payload)+256)
		blob, err := c.EncodeChunkInto(dst, "obj", 3, 7, payload)
		if err != nil {
			t.Fatal(err)
		}
		if &blob[0] != &dst[:1][0] {
			t.Fatalf("enc=%v: chunk was not encoded into the provided buffer", enc)
		}
		sizes[enc] = len(blob)
		rec, err := c.DecodeChunkInto(blob, nil, "obj", 3, 7)
		if err != nil || !bytes.Equal(rec.Payload, payload) {
			t.Fatalf("enc=%v: chunk round trip: %v", enc, err)
		}
		if rec.Meta.Size != int64(len(payload)) || rec.Meta.Version != 3 {
			t.Fatalf("enc=%v: chunk meta %+v", enc, rec.Meta)
		}
		if zero := rec.Meta.ContentHash == [32]byte{}; zero != enc {
			t.Fatalf("enc=%v: chunk content hash zero=%v", enc, zero)
		}
		for _, at := range [][3]int64{{3, 8, 0}, {4, 7, 0}, {3, ParityIndex(0, 2, 1), 0}} {
			if _, err := c.DecodeChunkInto(blob, nil, "obj", at[0], at[1]); !errors.Is(err, ErrCorrupt) {
				t.Errorf("enc=%v: chunk accepted at v%d index %d: %v", enc, at[0], at[1], err)
			}
		}
		if _, err := c.DecodeChunkInto(blob, nil, "other", 3, 7); !errors.Is(err, ErrCorrupt) {
			t.Errorf("enc=%v: chunk accepted under another object: %v", enc, err)
		}
		// Any flipped byte — header, metadata, nonce, payload or tag —
		// is caught by the decode alone.
		for i := 0; i < len(blob); i += 97 {
			mut := append([]byte(nil), blob...)
			mut[i] ^= 0x20
			if rec, err := c.DecodeChunkInto(mut, nil, "obj", 3, 7); err == nil && !bytes.Equal(rec.Payload, payload) {
				t.Fatalf("enc=%v: flip at byte %d decodes to other bytes", enc, i)
			} else if err == nil && enc {
				t.Fatalf("enc=%v: flip at byte %d of a sealed chunk accepted", enc, i)
			}
		}

		// A sealed chunk written before chunk records dropped their
		// hash (non-zero ContentHash) reads back unchanged, and so does
		// a plain one, which still needs it.
		old := &Record{Meta: Meta{Key: ChunkID("obj", 3, 7), Version: 3, Size: int64(len(payload)),
			ContentHash: HashContent(payload)}, Payload: payload}
		oldBlob, err := c.EncodeRecord(old)
		if err != nil {
			t.Fatal(err)
		}
		if len(oldBlob) != len(blob) {
			t.Fatalf("enc=%v: chunk record is %d bytes, was %d with its hash", enc, len(blob), len(oldBlob))
		}
		if rec, err := c.DecodeChunkInto(oldBlob, nil, "obj", 3, 7); err != nil || !bytes.Equal(rec.Payload, payload) || rec.Meta != old.Meta {
			t.Fatalf("enc=%v: chunk record with a hash: %v", enc, err)
		}
	}
	if sizes[true] != sizes[false]+12+16 {
		t.Fatalf("sealed chunk %d bytes, plain %d: want nonce+tag apart", sizes[true], sizes[false])
	}
}

// TestChunkStubCarriesNoPayload: a stub's hash spans its chunk records,
// so the codec checks the one thing about it that is local.
func TestChunkStubCarriesNoPayload(t *testing.T) {
	for _, enc := range []bool{true, false} {
		c := testCodec(t, enc)
		m := sampleMeta()
		m.Chunks = 3
		blob, err := c.EncodeRecord(&Record{Meta: m})
		if err != nil {
			t.Fatal(err)
		}
		if rec, err := c.DecodeRecord(blob); err != nil || rec.Meta != m || len(rec.Payload) != 0 {
			t.Fatalf("enc=%v: stub round trip: %v", enc, err)
		}
		blob, _ = c.EncodeRecord(&Record{Meta: m, Payload: []byte("x")})
		if _, err := c.DecodeRecord(blob); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("enc=%v: stub with an inline payload: %v", enc, err)
		}
	}
}

func TestRecordTamperDetection(t *testing.T) {
	c := testCodec(t, true)
	rec := &Record{Meta: sampleMeta(), Payload: []byte("payload")}
	blob, _ := c.EncodeRecord(rec)
	for _, i := range []int{1, len(blob) / 2, len(blob) - 1} {
		mut := append([]byte(nil), blob...)
		mut[i] ^= 0xff
		if _, err := c.DecodeRecord(mut); err == nil {
			t.Errorf("tampering at byte %d undetected", i)
		}
	}
	// Wrong key fails.
	var otherKey [32]byte
	otherKey[0] = 9
	c2, _ := NewCodec(otherKey, true)
	if _, err := c2.DecodeRecord(blob); !errors.Is(err, ErrCorrupt) {
		t.Error("wrong key accepted")
	}
}

func TestRecordMetaBinding(t *testing.T) {
	// Swapping the metadata of two encrypted records must fail AEAD:
	// the meta is authenticated data.
	c := testCodec(t, true)
	r1 := &Record{Meta: sampleMeta(), Payload: []byte("one")}
	m2 := sampleMeta()
	m2.Version = 99
	r2 := &Record{Meta: m2, Payload: []byte("two")}
	b1, _ := c.EncodeRecord(r1)
	b2, _ := c.EncodeRecord(r2)

	// Graft r2's meta header onto r1's ciphertext.
	meta2 := c.EncodeMeta(&m2)
	_ = meta2
	// Decode b1 and b2 normally first (sanity).
	if _, err := c.DecodeRecord(b1); err != nil {
		t.Fatal(err)
	}
	if _, err := c.DecodeRecord(b2); err != nil {
		t.Fatal(err)
	}
	// Cross-splice: header of b2 + tail of b1.
	m1len := len(b1) - len([]byte("one")) - 16 - 12 // rough; instead rebuild precisely:
	_ = m1len
	spliced := spliceMeta(t, b2, b1)
	if _, err := c.DecodeRecord(spliced); err == nil {
		t.Error("meta swap undetected")
	}
}

// spliceMeta builds kind||metaOf(a)||cipherOf(b).
func spliceMeta(t *testing.T, a, b []byte) []byte {
	t.Helper()
	metaA, _, err := readLenPrefixed(a[1:])
	if err != nil {
		t.Fatal(err)
	}
	_, cipherB, err := readLenPrefixed(b[1:])
	if err != nil {
		t.Fatal(err)
	}
	out := []byte{a[0]}
	out = appendLenPrefixed(out, metaA)
	return append(out, cipherB...)
}

func TestRecordSizeLimit(t *testing.T) {
	c := testCodec(t, true)
	rec := &Record{Meta: sampleMeta(), Payload: make([]byte, MaxObjectSize+1)}
	if _, err := c.EncodeRecord(rec); !errors.Is(err, ErrTooLarge) {
		t.Fatal("oversized record accepted")
	}
}

func TestKeyLayout(t *testing.T) {
	mk := MetaKey("obj")
	ok0 := ObjectKey("obj", 0)
	ok7 := ObjectKey("obj", 7)
	pk := PolicyKey("pid")
	if bytes.Equal(mk, ok0) || bytes.Equal(ok0, pk) {
		t.Fatal("namespaces collide")
	}
	if bytes.Compare(ok0, ok7) >= 0 {
		t.Fatal("version ordering broken")
	}
	key, ver, err := VersionFromObjectKey(ok7)
	if err != nil || key != "obj" || ver != 7 {
		t.Fatalf("parse object key: %q %d %v", key, ver, err)
	}
	if _, _, err := VersionFromObjectKey(mk); err == nil {
		t.Fatal("meta key parsed as object key")
	}
	start, end := ObjectKeyRange("obj")
	if bytes.Compare(start, ok0) > 0 || bytes.Compare(end, ok7) < 0 {
		t.Fatal("range does not span versions")
	}
	// Range of one object must not include another object's keys.
	other := ObjectKey("obj2", 3)
	if bytes.Compare(other, start) >= 0 && bytes.Compare(other, end) <= 0 {
		t.Fatal("range leaks into other objects")
	}
}

func TestVersionOrderingQuick(t *testing.T) {
	f := func(key string, a, b uint32) bool {
		ka := ObjectKey(key, int64(a))
		kb := ObjectKey(key, int64(b))
		switch {
		case a < b:
			return bytes.Compare(ka, kb) < 0
		case a > b:
			return bytes.Compare(ka, kb) > 0
		default:
			return bytes.Equal(ka, kb)
		}
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPlacement(t *testing.T) {
	// Deterministic.
	p1 := Placement("key", 5, 3)
	p2 := Placement("key", 5, 3)
	if len(p1) != 3 || fmtInts(p1) != fmtInts(p2) {
		t.Fatalf("placement not deterministic: %v vs %v", p1, p2)
	}
	// Consecutive drives from the primary.
	for i := 1; i < len(p1); i++ {
		if p1[i] != (p1[i-1]+1)%5 {
			t.Fatalf("replicas not consecutive: %v", p1)
		}
	}
	// Replicas never exceed drives; no duplicates.
	p := Placement("key", 2, 5)
	if len(p) != 2 || p[0] == p[1] {
		t.Fatalf("clamped placement: %v", p)
	}
	if Placement("key", 0, 1) != nil {
		t.Fatal("zero drives should yield nil")
	}
	if got := Placement("key", 3, 0); len(got) != 1 {
		t.Fatalf("replicas<1 should clamp to 1: %v", got)
	}
}

func TestPlacementSpreads(t *testing.T) {
	counts := make([]int, 4)
	for i := 0; i < 4000; i++ {
		counts[Placement(fmt.Sprintf("user%012d", i), 4, 1)[0]]++
	}
	for d, c := range counts {
		if c < 600 || c > 1400 {
			t.Errorf("drive %d got %d/4000 primaries; placement skewed", d, c)
		}
	}
}

func fmtInts(v []int) string {
	out := ""
	for _, x := range v {
		out += string(rune('0'+x%10)) + ","
	}
	return out
}

func TestHashContent(t *testing.T) {
	h1 := HashContent([]byte("a"))
	h2 := HashContent([]byte("b"))
	if h1 == h2 {
		t.Fatal("hash collision on trivial input")
	}
	if h1 != HashContent([]byte("a")) {
		t.Fatal("hash not deterministic")
	}
}

func TestMetaECRoundTrip(t *testing.T) {
	c := testCodec(t, true)
	m := sampleMeta()
	m.Chunks, m.ECK, m.ECM = 12, 4, 2
	got, err := decodeMeta(c, c.EncodeMeta(&m), m.Key)
	if err != nil {
		t.Fatal(err)
	}
	if *got != m {
		t.Fatalf("EC meta round trip: %+v vs %+v", got, m)
	}
	if got.StorageClass() != "ec:4+2" {
		t.Fatalf("storage class: %q", got.StorageClass())
	}
	// Chunked but replicated: no EC fields on the wire, none decoded.
	m.ECK, m.ECM = 0, 0
	got, err = decodeMeta(c, c.EncodeMeta(&m), m.Key)
	if err != nil || got.ECK != 0 || got.ECM != 0 {
		t.Fatalf("replicated chunked meta round trip: %+v err %v", got, err)
	}
	if got.StorageClass() != "" {
		t.Fatalf("replicated storage class: %q", got.StorageClass())
	}
	// A pre-EC decoder would reject ECK without ECM; the encoder must
	// emit both or neither.
	bad := append(c.EncodeMeta(&m), 0x08) // stray trailing varint (ECK=4, no ECM)
	if _, err := decodeMeta(c, bad, m.Key); err == nil {
		t.Fatal("lone trailing ECK accepted")
	}
}

func TestParityIndexLayout(t *testing.T) {
	// Parity indices live above every data index and inside the chunk
	// key range, so range enumeration collects data and parity alike.
	pi := ParityIndex(0, 2, 0)
	if pi != ParityIndexBase {
		t.Fatalf("first parity index: %d", pi)
	}
	if ParityIndex(3, 2, 1) != ParityIndexBase+7 {
		t.Fatalf("parity index arithmetic: %d", ParityIndex(3, 2, 1))
	}
	dk := ChunkKey("obj", 9, pi)
	start, end := ChunkKeyRange("obj")
	if bytes.Compare(dk, start) < 0 || bytes.Compare(dk, end) > 0 {
		t.Fatal("parity chunk key outside ChunkKeyRange")
	}
	if bytes.Compare(dk, ChunkKey("obj", 9, 1<<20)) <= 0 {
		t.Fatal("parity chunk key does not sort after data chunk keys")
	}
}

func TestDecodeRecordInto(t *testing.T) {
	for _, enc := range []bool{true, false} {
		c := testCodec(t, enc)
		rec := &Record{Meta: sampleMeta(), Payload: []byte("pooled payload")}
		rec.Meta.ContentHash = HashContent(rec.Payload)
		rec.Meta.Size = int64(len(rec.Payload))
		blob, err := c.EncodeRecord(rec)
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 0, MaxObjectSize)
		got, err := c.DecodeRecordInto(blob, buf)
		if err != nil {
			t.Fatalf("enc=%v: %v", enc, err)
		}
		if !bytes.Equal(got.Payload, rec.Payload) || got.Meta != rec.Meta {
			t.Fatalf("enc=%v: round trip mismatch", enc)
		}
		if cap(buf) >= len(got.Payload) && &buf[:1][0] != &got.Payload[0] {
			t.Fatalf("enc=%v: payload did not land in the provided buffer", enc)
		}
		// Tiny capacity still decodes (alloc fallback for plain; AEAD
		// grows its dst for encrypted).
		if got, err := c.DecodeRecordInto(blob, make([]byte, 0, 1)); err != nil || !bytes.Equal(got.Payload, rec.Payload) {
			t.Fatalf("enc=%v small-buffer fallback: %v", enc, err)
		}
	}
}

// FuzzDecodeMeta: head records reach their one opener straight off the
// drives, a hundred per listing. Whatever the bytes and the key asked
// for, it never panics; what it accepts names that key and re-encodes to
// a record that opens to the same metadata; and opening into a Meta that
// held another record gives exactly what a fresh open gives.
func FuzzDecodeMeta(f *testing.F) {
	var key [32]byte
	key[0] = 1
	c, err := NewCodec(key, true)
	if err != nil {
		f.Fatal(err)
	}
	m := sampleMeta()
	f.Add(c.EncodeMeta(&m), m.Key)
	f.Add(c.EncodeMeta(&m), "another")
	m.Chunks, m.ECK, m.ECM = 9, 4, 2
	f.Add(c.EncodeMeta(&m), m.Key)
	m.Upload = 1<<62 + 5
	f.Add(c.EncodeMeta(&m), m.Key)
	m.ECK, m.ECM = 0, 0
	f.Add(c.EncodeMeta(&m), m.Key)
	m.Key, m.PolicyID = "", ""
	f.Add(c.EncodeMeta(&m), "")
	f.Add([]byte{}, "")
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}, "obj")
	f.Fuzz(func(t *testing.T, data []byte, key string) {
		got, err := decodeMeta(c, data, key)
		used := Meta{Key: "another", Version: 77, PolicyID: "policy", Chunks: 3, ECK: 2, ECM: 1, Upload: 1 << 62}
		if uerr := c.DecodeMeta(data, key, &used); (uerr == nil) != (err == nil) {
			t.Fatalf("fresh decode: %v, decode into a used Meta: %v", err, uerr)
		}
		if err != nil {
			return
		}
		if got.Key != key {
			t.Fatalf("opened a head of %q as %q's", got.Key, key)
		}
		if used != *got {
			t.Fatalf("decode into a used Meta differs:\n got %+v\nwant %+v", used, *got)
		}
		want := *got
		if want.Chunks == 0 {
			// the encoding carries a stripe shape and an upload id only for chunked objects
			want.ECK, want.ECM, want.Upload = 0, 0, 0
		}
		again, err := decodeMeta(c, c.EncodeMeta(&want), key)
		if err != nil || *again != want {
			t.Fatalf("re-encoded record decodes to %+v (%v), want %+v", again, err, want)
		}
	})
}

// recordSeeds are the record shapes the drives hold: an inline object,
// a data chunk, a parity shard at its reserved index, and a chunk stub
// (replicated and erasure-coded, named by its version or by an upload).
func recordSeeds() []*Record {
	inline := &Record{Meta: sampleMeta(), Payload: []byte("an inline object's bytes")}
	inline.Meta.Size = int64(len(inline.Payload))
	inline.Meta.ContentHash = HashContent(inline.Payload)
	stub := &Record{Meta: sampleMeta()}
	stub.Meta.Size, stub.Meta.Chunks = 3<<20, 3
	ecStub := &Record{Meta: stub.Meta}
	ecStub.Meta.Chunks, ecStub.Meta.ECK, ecStub.Meta.ECM = 9, 4, 2
	uploaded, ecUploaded := &Record{Meta: stub.Meta}, &Record{Meta: ecStub.Meta}
	uploaded.Meta.Upload, ecUploaded.Meta.Upload = 1<<62+5, 1<<63-1
	return []*Record{inline, stub, ecStub, uploaded, ecUploaded}
}

// FuzzDecodeRecord: record bytes come straight off an untrusted drive.
// Whatever they are, decoding never panics and never writes outside
// the buffer it was lent, and a record it accepts is authentic: sealed,
// it is exactly a record the codec wrote (forging another would take
// the key); plain, its payload is the one its content hash names.
func FuzzDecodeRecord(f *testing.F) {
	var key [32]byte
	key[0] = 1
	sealed, err := NewCodec(key, true)
	if err != nil {
		f.Fatal(err)
	}
	plain, _ := NewCodec(key, false)
	chunk := bytes.Repeat([]byte{0xc4}, 300)
	var written []*Record // what the sealed codec wrote
	for _, c := range []*Codec{sealed, plain} {
		var blobs [][]byte
		for _, rec := range recordSeeds() {
			blob, err := c.EncodeRecord(rec)
			if err != nil {
				f.Fatal(err)
			}
			blobs = append(blobs, blob)
		}
		for _, idx := range []int64{2, ParityIndex(1, 2, 1)} {
			blob, err := c.EncodeChunkInto(nil, "obj", 3, idx, chunk)
			if err != nil {
				f.Fatal(err)
			}
			blobs = append(blobs, blob)
		}
		for _, blob := range blobs {
			f.Add(blob)
			if c == sealed {
				rec, err := c.DecodeRecord(blob)
				if err != nil {
					f.Fatal(err)
				}
				written = append(written, rec)
			}
		}
	}
	f.Add([]byte{})
	f.Add([]byte{recEncrypted, 0})

	const lent = 128 // shorter than the chunk seeds: both the fitting and the growing path run
	f.Fuzz(func(t *testing.T, data []byte) {
		in := append([]byte(nil), data...)
		for _, c := range []*Codec{sealed, plain} {
			arena := bytes.Repeat([]byte{0xa5}, 2*lent)
			rec, err := c.DecodeRecordInto(data, arena[:0:lent])
			if !bytes.Equal(data, in) {
				t.Fatal("decode wrote to its input")
			}
			if !bytes.Equal(arena[lent:], bytes.Repeat([]byte{0xa5}, lent)) {
				t.Fatal("decode wrote past the capacity it was lent")
			}
			fresh, ferr := c.DecodeRecord(data)
			if (err == nil) != (ferr == nil) {
				t.Fatalf("pooled decode: %v, fresh decode: %v", err, ferr)
			}
			if err != nil {
				continue
			}
			if rec.Meta != fresh.Meta || !bytes.Equal(rec.Payload, fresh.Payload) {
				t.Fatal("pooled and fresh decode disagree")
			}
			if rec.Meta.Chunks > 0 && len(rec.Payload) != 0 {
				t.Fatal("accepted a chunk stub with an inline payload")
			}
			switch data[0] {
			case recEncrypted:
				known := false
				for _, w := range written {
					known = known || (rec.Meta == w.Meta && bytes.Equal(rec.Payload, w.Payload))
				}
				if !known {
					t.Fatalf("accepted a sealed record the codec never wrote: %+v", rec.Meta)
				}
			case recPlain:
				if c == sealed {
					t.Fatal("sealing codec accepted a plain record")
				}
				if rec.Meta.Chunks == 0 && HashContent(rec.Payload) != rec.Meta.ContentHash {
					t.Fatal("accepted a plain record whose payload its hash does not name")
				}
			default:
				t.Fatalf("accepted record kind %d", data[0])
			}
		}
	})
}
