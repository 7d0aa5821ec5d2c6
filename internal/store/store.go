// Package store defines Pesos' persistent object layout on Kinetic
// drives: versioned object records with authenticated-encrypted
// payloads (AES-256-GCM, §2.2), object metadata (version, size,
// content hash, associated policy — the inputs of Table 1's object
// predicates), the on-drive key scheme, and the deterministic
// replication placement of §4.5.
package store

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
)

// Errors.
var (
	ErrCorrupt  = errors.New("store: record corrupt or tampered")
	ErrBadKey   = errors.New("store: malformed storage key")
	ErrTooLarge = errors.New("store: object exceeds 1 MB limit")
)

// MaxObjectSize is the Kinetic value-size limit the controller's
// message buffers are sized for (§4.2).
const MaxObjectSize = 1 << 20

// Meta is per-object, per-version metadata persisted alongside the
// payload and exposed to the policy interpreter.
type Meta struct {
	Key         string
	Version     int64
	Size        int64
	ContentHash [32]byte // SHA-256 of the plaintext payload
	PolicyID    string   // identifier of the associated policy ("" = none)
	PolicyHash  [32]byte // hash of the compiled policy program
	// Chunks is the number of chunk records holding the payload when
	// the object was written through the v2 streaming path and exceeds
	// MaxObjectSize. 0 means the payload lives inline in the version's
	// object record. The field is encoded as an optional trailing
	// varint, so records written before it existed decode as inline.
	Chunks int64
	// ECK/ECM describe the erasure-coded storage class: the version's
	// chunk records are striped k-at-a-time with ECM parity shards per
	// stripe, each shard on its own drive (see ParityIndex). ECK == 0
	// means the chunks are fully replicated (the classic storage
	// class). Both ride as optional trailing varints after Chunks, so
	// pre-EC records — and pre-chunk records — decode unchanged.
	ECK int64
	ECM int64
	// Upload is the id a streamed version's upload drew (NewUploadID)
	// to name its chunk records. It rides as an optional trailing varint
	// after ECK/ECM (both zero on a replicated stub); a stub written
	// before it existed decodes with 0.
	Upload int64
}

// ChunkSet is what a streamed version's chunk records are named by
// (ChunkKey, ChunkID): its upload id, or its version for a stub
// written before uploads drew one.
func (m *Meta) ChunkSet() int64 {
	if m.Upload != 0 {
		return m.Upload
	}
	return m.Version
}

// StorageClass renders the version's storage class for listings and
// diagnostics: "ec:k+m" for erasure-coded objects, "" (replicated)
// otherwise.
func (m *Meta) StorageClass() string {
	if m.ECK > 0 {
		return fmt.Sprintf("ec:%d+%d", m.ECK, m.ECM)
	}
	return ""
}

// marshal encodes the metadata: the head record's body and a record's
// additional data.
func (m *Meta) marshal() []byte {
	buf := appendLenPrefixed(nil, []byte(m.Key))
	buf = binary.AppendVarint(buf, m.Version)
	buf = binary.AppendVarint(buf, m.Size)
	buf = append(buf, m.ContentHash[:]...)
	buf = appendLenPrefixed(buf, []byte(m.PolicyID))
	buf = append(buf, m.PolicyHash[:]...)
	if m.Chunks > 0 {
		buf = binary.AppendVarint(buf, m.Chunks)
		if m.ECK > 0 || m.Upload != 0 {
			buf = binary.AppendVarint(buf, m.ECK)
			buf = binary.AppendVarint(buf, m.ECM)
		}
		if m.Upload != 0 {
			buf = binary.AppendVarint(buf, m.Upload)
		}
	}
	return buf
}

// unmarshal decodes data into m as DecodeMeta describes.
func (m *Meta) unmarshal(data []byte) error {
	key, data, err := readLenPrefixed(data)
	if err != nil {
		return err
	}
	if m.Key != string(key) {
		m.Key = string(key)
	}
	var n int
	m.Version, n = binary.Varint(data)
	if n <= 0 {
		return ErrCorrupt
	}
	data = data[n:]
	m.Size, n = binary.Varint(data)
	if n <= 0 {
		return ErrCorrupt
	}
	data = data[n:]
	if len(data) < 32 {
		return ErrCorrupt
	}
	copy(m.ContentHash[:], data)
	data = data[32:]
	pid, data, err := readLenPrefixed(data)
	if err != nil {
		return err
	}
	if m.PolicyID != string(pid) {
		m.PolicyID = string(pid)
	}
	if len(data) < 32 {
		return ErrCorrupt
	}
	copy(m.PolicyHash[:], data)
	data = data[32:]
	m.Chunks, m.ECK, m.ECM, m.Upload = 0, 0, 0, 0
	if len(data) > 0 {
		m.Chunks, n = binary.Varint(data)
		if n <= 0 || m.Chunks < 0 {
			return ErrCorrupt
		}
		data = data[n:]
	}
	if len(data) > 0 {
		m.ECK, n = binary.Varint(data)
		if n <= 0 || m.ECK < 0 {
			return ErrCorrupt
		}
		data = data[n:]
		m.ECM, n = binary.Varint(data)
		if n <= 0 || m.ECM < 0 || (m.ECM == 0) != (m.ECK == 0) {
			return ErrCorrupt
		}
		data = data[n:]
		// A zero pair is only ever written ahead of an upload id: alone
		// it would be a second encoding of the stub without it.
		if m.ECK == 0 && len(data) == 0 {
			return ErrCorrupt
		}
	}
	if len(data) > 0 {
		m.Upload, n = binary.Varint(data)
		if n <= 0 || m.Upload < uploadBase {
			return ErrCorrupt
		}
	}
	return nil
}

// Codec encodes object records for the drives and is the one place that
// decides whether a stored record is intact: whatever DecodeRecord or
// DecodeRecordInto returns has been authenticated, by the check its
// record kind carries, and no caller re-hashes a payload.
//
//   - A sealed record (recEncrypted, the default) is intact because
//     AES-256-GCM opened it with the marshalled Meta as additional data:
//     the tag covers the payload and every metadata field, the chunk id
//     of a chunk record included.
//   - A plain record (recPlain — the paper's §6.2 encryption-overhead
//     baseline, which has no tag) is intact because SHA-256 of its
//     payload equals Meta.ContentHash. That detects a damaged payload;
//     it does not authenticate the metadata, which is what the baseline
//     gives up — so only a codec that itself stores plaintext accepts
//     one.
type Codec struct {
	aead    cipher.AEAD
	enabled bool
}

// NewCodec creates a codec from the attestation-provisioned object
// key. enabled=false stores plaintext (baseline configuration).
func NewCodec(key [32]byte, enabled bool) (*Codec, error) {
	block, err := aes.NewCipher(key[:])
	if err != nil {
		return nil, err
	}
	aead, err := cipher.NewGCM(block)
	if err != nil {
		return nil, err
	}
	return &Codec{aead: aead, enabled: enabled}, nil
}

// Enabled reports whether payload encryption is on.
func (c *Codec) Enabled() bool { return c.enabled }

// Record is one stored object version: metadata plus payload.
type Record struct {
	Meta    Meta
	Payload []byte
}

// recordVersion tags the record encoding.
const (
	recPlain     byte = 1
	recEncrypted byte = 2
)

// EncodeRecord serializes and (if enabled) encrypts a record for
// storage on a drive. The metadata is bound as additional
// authenticated data, so swapping payloads between versions or keys
// is detected at decode time.
func (c *Codec) EncodeRecord(rec *Record) ([]byte, error) {
	return c.EncodeRecordInto(nil, rec)
}

// EncodeRecordInto is EncodeRecord with caller-provided storage: the
// record is written into dst's capacity from index 0 (and into a fresh
// slice only when it does not fit), so a streamed upload seals every
// chunk into one pooled buffer. The result aliases dst; the caller may
// reuse dst once nothing reads the result any more.
func (c *Codec) EncodeRecordInto(dst []byte, rec *Record) ([]byte, error) {
	if int64(len(rec.Payload)) > MaxObjectSize {
		return nil, ErrTooLarge
	}
	metaBytes := rec.Meta.marshal()
	if !c.enabled {
		buf := appendLenPrefixed(append(dst[:0], recPlain), metaBytes)
		return append(buf, rec.Payload...), nil
	}
	buf := appendLenPrefixed(append(dst[:0], recEncrypted), metaBytes)
	ns := c.aead.NonceSize()
	buf = append(buf, make([]byte, ns)...)
	nonce := buf[len(buf)-ns:]
	if _, err := rand.Read(nonce); err != nil {
		return nil, fmt.Errorf("store: nonce: %w", err)
	}
	return c.aead.Seal(buf, nonce, rec.Payload, metaBytes), nil
}

// EncodeChunkInto encodes one chunk record of a streamed version — a
// data chunk or, at a ParityIndex, a parity shard — into dst as
// EncodeRecordInto does. The chunk id binds the record to its object,
// chunk set (Meta.ChunkSet) and index. A sealed chunk carries a zero
// ContentHash in the same fixed-width field: its tag already
// authenticates the payload, so hashing every streamed byte a second
// time would buy nothing; a plain chunk has no tag and carries the hash
// that stands in for one.
func (c *Codec) EncodeChunkInto(dst []byte, key string, set, idx int64, payload []byte) ([]byte, error) {
	m := Meta{Key: ChunkID(key, set, idx), Version: set, Size: int64(len(payload))}
	if !c.enabled {
		m.ContentHash = HashContent(payload)
	}
	return c.EncodeRecordInto(dst, &Record{Meta: m, Payload: payload})
}

// DecodeRecord parses, decrypts and authenticates a stored record (see
// Codec for what authenticates which kind).
func (c *Codec) DecodeRecord(data []byte) (*Record, error) {
	return c.DecodeRecordInto(data, nil)
}

// DecodeRecordInto is DecodeRecord with caller-provided payload
// storage: the decoded payload is written into buf's capacity (from
// index 0) when it fits, so steady-state streamed reads recycle one
// pooled chunk buffer instead of allocating per chunk. The returned
// record's Payload aliases buf — the caller owns the lifetime and
// must not cache or share the record beyond the buffer's reuse — and
// never data, which the caller may recycle as soon as this returns.
func (c *Codec) DecodeRecordInto(data, buf []byte) (*Record, error) {
	if len(data) < 1 {
		return nil, ErrCorrupt
	}
	kind := data[0]
	metaBytes, rest, err := readLenPrefixed(data[1:])
	if err != nil {
		return nil, err
	}
	rec := new(Record)
	if err := rec.Meta.unmarshal(metaBytes); err != nil {
		return nil, err
	}
	switch kind {
	case recPlain:
		// A sealing codec wrote no plain record: taking one would let
		// the drive layer pass off any payload under a hash it computed
		// itself. A chunk stub's hash spans the chunk records, not its
		// own (empty) payload; the controller's Verify checks it.
		if c.enabled || (rec.Meta.Chunks == 0 && HashContent(rest) != rec.Meta.ContentHash) {
			return nil, ErrCorrupt
		}
		rec.Payload = append(buf[:0], rest...)
	case recEncrypted:
		ns := c.aead.NonceSize()
		if len(rest) < ns {
			return nil, ErrCorrupt
		}
		if rec.Payload, err = c.aead.Open(buf[:0], rest[:ns], rest[ns:], metaBytes); err != nil {
			return nil, ErrCorrupt
		}
	default:
		return nil, ErrCorrupt
	}
	if rec.Meta.Chunks > 0 && len(rec.Payload) != 0 {
		return nil, ErrCorrupt // a chunk stub carries no inline payload
	}
	return rec, nil
}

// DecodeChunkInto is DecodeRecordInto for the chunk record expected at
// (key, set, idx): an intact record bound to any other object, chunk
// set or index — a transplanted or replayed chunk — is ErrCorrupt.
func (c *Codec) DecodeChunkInto(data, buf []byte, key string, set, idx int64) (*Record, error) {
	rec, err := c.DecodeRecordInto(data, buf)
	if err != nil {
		return nil, err
	}
	if rec.Meta.Key != ChunkID(key, set, idx) {
		return nil, ErrCorrupt
	}
	return rec, nil
}

// DecodeVersion is DecodeRecord for the version record expected under
// ObjectKey(key, version), the inline twin of DecodeChunkInto: an intact
// record of another object or another version — a transplant — is
// ErrCorrupt.
func (c *Codec) DecodeVersion(data []byte, key string, version int64) (*Record, error) {
	rec, err := c.DecodeRecord(data)
	if err != nil {
		return nil, err
	}
	if rec.Meta.Key != key || rec.Meta.Version != version {
		return nil, ErrCorrupt
	}
	return rec, nil
}

// EncodeMeta encodes m as the head record stored under MetaKey(m.Key).
// It and DecodeMeta are the only writer and opener of that record.
func (c *Codec) EncodeMeta(m *Meta) []byte { return m.marshal() }

// DecodeMeta opens the head record expected under MetaKey(key) into
// into, replacing every field; a record that does not parse or names
// another key is ErrCorrupt, and leaves into partly overwritten. A Key
// or PolicyID into already holds is kept when the record repeats it, so
// decoding a listing page into one Meta allocates a string only where
// it changes.
func (c *Codec) DecodeMeta(data []byte, key string, into *Meta) error {
	if err := into.unmarshal(data); err != nil {
		return err
	}
	if into.Key != key {
		return ErrCorrupt
	}
	return nil
}

// HashContent computes the content hash stored in metadata.
func HashContent(payload []byte) [32]byte { return sha256.Sum256(payload) }

// On-drive key layout. Object names are arbitrary byte strings from
// clients (NUL excluded at the API boundary); the controller
// namespaces them:
//
//	h\x00<key>\x00<set be64><idx be32>   payload chunk of a streamed version's chunk set
//	m\x00<key>                           latest metadata record
//	o\x00<key>\x00<ver be64>             object record at a version
//	p\x00<policyID>                      compiled policy program
//
// The big-endian version suffix makes GetKeyRange enumerate versions
// in order, which the versioned-store use case relies on (§5.3); the
// chunk index suffix does the same for a chunk set's chunks.
const (
	nsChunk  = 'h'
	nsMeta   = 'm'
	nsObject = 'o'
	nsPolicy = 'p'
	sep      = 0x00
)

// MetaKey returns the drive key of an object's latest-metadata record.
func MetaKey(key string) []byte {
	out := make([]byte, 0, len(key)+2)
	out = append(out, nsMeta, sep)
	return append(out, key...)
}

// ObjectKey returns the drive key of an object version's record.
func ObjectKey(key string, version int64) []byte {
	out := make([]byte, 0, len(key)+11)
	out = append(out, nsObject, sep)
	out = append(out, key...)
	out = append(out, sep)
	var v [8]byte
	binary.BigEndian.PutUint64(v[:], uint64(version))
	return append(out, v[:]...)
}

// ObjectKeyRange returns the [start, end] drive-key range spanning all
// versions of an object.
func ObjectKeyRange(key string) (start, end []byte) {
	return ObjectKey(key, 0), ObjectKey(key, int64(^uint64(0)>>1))
}

// VersionFromObjectKey extracts key and version from an object drive key.
func VersionFromObjectKey(driveKey []byte) (string, int64, error) {
	if len(driveKey) < 11 || driveKey[0] != nsObject || driveKey[1] != sep {
		return "", 0, ErrBadKey
	}
	body := driveKey[2:]
	if len(body) < 9 || body[len(body)-9] != sep {
		return "", 0, ErrBadKey
	}
	key := string(body[:len(body)-9])
	ver := binary.BigEndian.Uint64(body[len(body)-8:])
	return key, int64(ver), nil
}

// ChunkKey returns the drive key of chunk idx of an object's chunk set
// (Meta.ChunkSet).
func ChunkKey(key string, set int64, idx int64) []byte {
	out := make([]byte, 0, len(key)+15)
	out = append(out, nsChunk, sep)
	out = append(out, key...)
	out = append(out, sep)
	var v [8]byte
	binary.BigEndian.PutUint64(v[:], uint64(set))
	out = append(out, v[:]...)
	var i [4]byte
	binary.BigEndian.PutUint32(i[:], uint32(idx))
	return append(out, i[:]...)
}

// ChunkKeyRange returns the [start, end] drive-key range spanning all
// chunks of all streamed versions of an object.
func ChunkKeyRange(key string) (start, end []byte) {
	return ChunkKey(key, 0, 0), ChunkKey(key, int64(^uint64(0)>>1), int64(^uint32(0)))
}

// ChunkID is the logical name bound into a chunk record's metadata so
// chunks cannot be transplanted between objects, chunk sets or indexes
// without detection (the codec authenticates the metadata).
func ChunkID(key string, set int64, idx int64) string {
	return fmt.Sprintf("%s\x00%d.%d", key, set, idx)
}

// uploadBase is the lowest upload id. Ids lie in [1<<62, 1<<63), which
// no version reaches, so an upload never names a version's chunk set.
const uploadBase = int64(1) << 62

// NewUploadID draws a streamed upload's id (Meta.Upload).
func NewUploadID() int64 {
	var b [8]byte
	_, _ = rand.Read(b[:]) // crypto/rand's Read never fails
	return uploadBase | int64(binary.BigEndian.Uint64(b[:])>>2)
}

// ParityIndexBase offsets erasure-coding parity shards into the upper
// half of the uint32 chunk-index space: data chunks occupy indices
// 0..Chunks-1, parity shards start at 1<<31. Parity records therefore
// sort after every data chunk of a version yet stay inside
// ChunkKeyRange, so range enumeration (delete, orphan sweep) collects
// both kinds with no extra machinery, and parity shards carry the same
// authenticated ChunkID binding as data chunks.
const ParityIndexBase = int64(1) << 31

// ParityIndex returns the chunk index of parity shard j (0 ≤ j < m) of
// the given stripe.
func ParityIndex(stripe, m, j int64) int64 {
	return ParityIndexBase + stripe*m + j
}

// MetaKeyRange returns the [start, end] drive-key range spanning the
// latest-metadata records of every object key with the given prefix.
// An empty prefix spans the whole metadata namespace.
func MetaKeyRange(prefix string) (start, end []byte) {
	start = MetaKey(prefix)
	// The namespace separator is 0x00 and client keys exclude NUL, so
	// the exclusive upper bound of the 'm' namespace is the next
	// namespace byte; for a non-empty prefix it is the prefix with its
	// last byte's successor (dropping trailing 0xff bytes first).
	end = append([]byte(nil), start...)
	for len(end) > 2 && end[len(end)-1] == 0xff {
		end = end[:len(end)-1]
	}
	end[len(end)-1]++
	return start, end
}

// PolicyKey returns the drive key storing a compiled policy.
func PolicyKey(id string) []byte {
	out := make([]byte, 0, len(id)+2)
	out = append(out, nsPolicy, sep)
	return append(out, id...)
}

// ShardSpace is the size of the cluster keyspace-hash space: object
// keys map onto [0, ShardSpace) and a cluster shard map assigns
// disjoint ranges of that space to controllers. 2^16 points keep
// ranges human-readable while leaving plenty of split granularity.
const ShardSpace = 1 << 16

// ShardHash maps an object key onto the shard hash space. SHA-256
// keeps the distribution uniform and deliberately unrelated to the
// per-controller FNV drive placement below: moving a hash range
// between controllers must not correlate with any drive's contents.
func ShardHash(key string) uint32 {
	h := sha256.Sum256([]byte(key))
	return uint32(h[0])<<8 | uint32(h[1])
}

// Placement computes the drives holding an object under the paper's
// deterministic scheme (§4.5): the primary is hash(key) mod nDrives;
// replicas follow on the next drives in order. replicas is the total
// copy count (1 = no replication). The returned list has no
// duplicates and at most nDrives entries.
func Placement(key string, nDrives, replicas int) []int {
	if nDrives <= 0 {
		return nil
	}
	if replicas < 1 {
		replicas = 1
	}
	if replicas > nDrives {
		replicas = nDrives
	}
	h := fnv.New64a()
	h.Write([]byte(key))
	primary := int(h.Sum64() % uint64(nDrives))
	out := make([]int, replicas)
	for i := range out {
		out[i] = (primary + i) % nDrives
	}
	return out
}

func appendLenPrefixed(buf, b []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(b)))
	return append(buf, b...)
}

func readLenPrefixed(data []byte) ([]byte, []byte, error) {
	l, n := binary.Uvarint(data)
	if n <= 0 || uint64(len(data)-n) < l {
		return nil, nil, ErrCorrupt
	}
	return data[n : n+int(l)], data[n+int(l):], nil
}
