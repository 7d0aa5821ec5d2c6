// Package wire implements the Kinetic drive wire protocol used between
// the Pesos controller and Ethernet-attached drives.
//
// The real Kinetic protocol is Google Protocol Buffers over a 9-byte
// frame. This implementation keeps the same architecture — a framed,
// field-tagged binary message with a per-user HMAC covering the
// command — but uses a self-contained encoding so the module needs no
// third-party code. Each frame is:
//
//	magic byte 'K' | uint32 big-endian length | message bytes
//
// and each message is a sequence of tag-length-value fields. Every
// request carries the issuing user identity and an HMAC-SHA256 keyed
// with that user's secret over the canonical field serialization with
// the value's bytes left out: the command, including the value field's
// tag and length, is authenticated, the value itself is not — as in
// Kinetic, where the value travels outside the HMACed command. Drives
// reject messages whose HMAC does not verify (§2.2 of the paper:
// mutually authenticated channel terminating in the drive). A value
// rewritten on the link is no more than what an untrusted drive can
// store anyway, and is caught where the controller opens the record it
// carries (docs/storage.md, "Why the value needs no MAC").
package wire

import (
	"bufio"
	"bytes"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"io"
	"maps"
	"math"
	"slices"
	"sync"
)

// MaxMessageSize bounds a single frame (1 MB object + headroom),
// mirroring the Kinetic limit of 1 MB values.
const MaxMessageSize = 2 << 20

// Magic is the frame marker byte.
const Magic = 'K'

// MessageType enumerates request and response kinds.
type MessageType uint8

// Message types. Requests are even, the matching response is request+1.
const (
	TInvalid          MessageType = 0
	TGet              MessageType = 2
	TGetResponse      MessageType = 3
	TPut              MessageType = 4
	TPutResponse      MessageType = 5
	TDelete           MessageType = 6
	TDeleteResponse   MessageType = 7
	TGetKeyRange      MessageType = 8
	TGetKeyRangeResp  MessageType = 9
	TSecurity         MessageType = 10
	TSecurityResponse MessageType = 11
	TErase            MessageType = 12
	TEraseResponse    MessageType = 13
	TNoop             MessageType = 14
	TNoopResponse     MessageType = 15
	// 16 and 17 are Kinetic's FLUSH pair, left unassigned: every write
	// is write-through, so there is nothing to destage.
	TP2PPush         MessageType = 18
	TP2PPushResponse MessageType = 19
	TGetLog          MessageType = 20
	TGetLogResponse  MessageType = 21
	TGetVersion      MessageType = 22
	TGetVersionResp  MessageType = 23
	TBatch           MessageType = 24
	TBatchResp       MessageType = 25
)

// Response reports the response type paired with a request type, or
// TInvalid for non-requests.
func (t MessageType) Response() MessageType {
	if t >= TGet && t%2 == 0 {
		return t + 1
	}
	return TInvalid
}

// IsRequest reports whether t is a request type.
func (t MessageType) IsRequest() bool { return t >= TGet && t%2 == 0 }

// typeNames indexes the diagnostic name of every message type.
var typeNames = [...]string{
	TGet: "GET", TGetResponse: "GET_RESPONSE",
	TPut: "PUT", TPutResponse: "PUT_RESPONSE",
	TDelete: "DELETE", TDeleteResponse: "DELETE_RESPONSE",
	TGetKeyRange: "GETKEYRANGE", TGetKeyRangeResp: "GETKEYRANGE_RESPONSE",
	TSecurity: "SECURITY", TSecurityResponse: "SECURITY_RESPONSE",
	TErase: "ERASE", TEraseResponse: "ERASE_RESPONSE",
	TNoop: "NOOP", TNoopResponse: "NOOP_RESPONSE",
	TP2PPush: "P2PPUSH", TP2PPushResponse: "P2PPUSH_RESPONSE",
	TGetLog: "GETLOG", TGetLogResponse: "GETLOG_RESPONSE",
	TGetVersion: "GETVERSION", TGetVersionResp: "GETVERSION_RESPONSE",
	TBatch: "BATCH", TBatchResp: "BATCH_RESPONSE",
}

// String implements fmt.Stringer for diagnostics.
func (t MessageType) String() string {
	if int(t) < len(typeNames) && typeNames[t] != "" {
		return typeNames[t]
	}
	return fmt.Sprintf("MessageType(%d)", uint8(t))
}

// StatusCode is the drive's verdict on a request.
type StatusCode uint8

// Status codes, mirroring the Kinetic protocol's status space.
const (
	StatusOK StatusCode = iota
	StatusNotFound
	StatusVersionMismatch
	StatusNotAuthorized
	StatusHMACFailure
	StatusInternalError
	StatusNotAttempted
	StatusInvalidRequest
	StatusNoSuchUser
	StatusDeviceLocked
)

// String implements fmt.Stringer.
func (s StatusCode) String() string {
	switch s {
	case StatusOK:
		return "OK"
	case StatusNotFound:
		return "NOT_FOUND"
	case StatusVersionMismatch:
		return "VERSION_MISMATCH"
	case StatusNotAuthorized:
		return "NOT_AUTHORIZED"
	case StatusHMACFailure:
		return "HMAC_FAILURE"
	case StatusInternalError:
		return "INTERNAL_ERROR"
	case StatusNotAttempted:
		return "NOT_ATTEMPTED"
	case StatusInvalidRequest:
		return "INVALID_REQUEST"
	case StatusNoSuchUser:
		return "NO_SUCH_USER"
	case StatusDeviceLocked:
		return "DEVICE_LOCKED"
	default:
		return fmt.Sprintf("StatusCode(%d)", uint8(s))
	}
}

// Permission bits grant drive operations to a user account.
type Permission uint16

// Account permissions.
const (
	PermRead Permission = 1 << iota
	PermWrite
	PermDelete
	PermRange
	PermSecurity
	PermP2P
	PermGetLog
	PermAll Permission = PermRead | PermWrite | PermDelete | PermRange | PermSecurity | PermP2P | PermGetLog
)

// ACL describes one user account installed on a drive.
type ACL struct {
	Identity string     // user name, e.g. "pesos-admin"
	Key      []byte     // HMAC-SHA256 secret
	Perms    Permission // granted operations
}

// BatchOpKind selects the operation of one batch sub-operation.
type BatchOpKind uint8

// Batch sub-operation kinds.
const (
	BatchPut BatchOpKind = iota
	BatchDelete
)

// String implements fmt.Stringer.
func (k BatchOpKind) String() string {
	switch k {
	case BatchPut:
		return "PUT"
	case BatchDelete:
		return "DELETE"
	default:
		return fmt.Sprintf("BatchOpKind(%d)", uint8(k))
	}
}

// MaxBatchOps caps the sub-operations of one TBatch message, mirroring
// the real Kinetic protocol's START_BATCH/END_BATCH operation limit.
const MaxBatchOps = 64

// BatchGroupStatus is the drive's verdict on one sub-operation group
// of a grouped TBatch (see Message.GroupSizes): the group either
// committed (StatusOK) or was skipped without affecting its
// neighbours, with FailedIndex identifying the failing sub-operation
// relative to the group's first op.
type BatchGroupStatus struct {
	Status      StatusCode
	FailedIndex uint32 // within-group index of the failing sub-op
	StatusMsg   string
}

// BatchOp is one sub-operation of a TBatch request. The drive applies
// the whole sequence atomically: every sub-operation is validated
// (permissions and compare-and-swap versions) before any takes effect.
type BatchOp struct {
	Op         BatchOpKind
	Key        []byte
	Value      []byte // puts only
	DBVersion  []byte // stored version for compare-and-swap
	NewVersion []byte // version to install on put
	Force      bool   // ignore version check
}

// SyncMode names a write's durability. There is one: a write is on
// the medium before its response (the paper's write-through semantic,
// §3.2). The type stays because benchmark/pure.go passes
// SyncWriteThrough to kclient.Client.BatchGroups.
type SyncMode uint8

// SyncWriteThrough persists before the response.
const SyncWriteThrough SyncMode = 0

// Message is a single Kinetic protocol message: a request or response.
// Zero-valued fields are omitted from the encoding.
type Message struct {
	Type      MessageType
	Seq       uint64 // request sequence, echoed in the response
	User      string // issuing account
	Status    StatusCode
	StatusMsg string

	Key        []byte
	Value      []byte
	DBVersion  []byte // stored version for compare-and-swap
	NewVersion []byte // version to install on put
	Force      bool   // ignore version check

	StartKey     []byte
	EndKey       []byte
	MaxReturned  uint32
	Reverse      bool
	Keys         [][]byte // range response payload
	KeyInclusive bool     // StartKey inclusive flag for ranges
	// WithValues asks a range for each key's value as well; the response
	// then carries Values parallel to Keys. This departs from stock
	// Kinetic GETKEYRANGE (keys only) the way grouped TBatch departs
	// from the atomic batch.
	WithValues bool
	Values     [][]byte
	// Truncated marks a range response the drive cut short (its key
	// cap or its reply byte budget): the range holds at least one more
	// key past the last one returned.
	Truncated bool

	ACLs []ACL  // security request payload
	Pin  []byte // erase PIN

	Peer string // P2P push target "host:port"

	Log map[string]string // GETLOG response payload (device stats)

	// Batch carries the sub-operations of a TBatch request.
	Batch []BatchOp
	// BatchFailed marks a TBatchResp whose FailedIndex identifies the
	// sub-operation that caused the (atomic) rejection.
	BatchFailed bool
	FailedIndex uint32

	// GroupSizes partitions Batch into consecutive sub-operation
	// groups (the lengths must sum to len(Batch)). A grouped TBatch is
	// the group-commit carrier: the drive validates and applies each
	// group independently — a group failing its compare-and-swap is
	// skipped without aborting its neighbours — under one amortized
	// media wait. Empty GroupSizes keeps the classic all-or-nothing
	// semantics.
	GroupSizes []uint32
	// GroupStatus carries the per-group verdicts of a grouped
	// TBatchResp, one entry per request group, in order.
	GroupStatus []BatchGroupStatus

	// TraceID propagates the end-to-end trace context onto the drive
	// link (requests; echoed in responses so a frame capture pairs up).
	TraceID uint64
	// ServiceUs reports the drive's internal service time for the
	// request in microseconds (responses only), letting the controller
	// split drive latency into network and media wait without a clock
	// shared with the drive.
	ServiceUs uint32

	HMAC []byte // authentication tag, set by Sign

	// frame is the frame body a message decoded by ReadFrame owns:
	// every byte field above aliases it, and Verify authenticates it
	// as received. nil for messages built in memory or decoded by
	// Unmarshal. macOff is the offset of the fHMAC field inside frame,
	// or -1 when the frame breaks the framing rule (exactly one fHMAC,
	// as the final field, nothing after it; at most one top-level
	// fValue). frame[valOff:valEnd] are the value's bytes, which the
	// MAC leaves out; both are 0 when the frame carries no value.
	frame          []byte
	macOff         int
	valOff, valEnd int
	// recycled marks a message emptied by Recycle: frame, Keys and
	// Values are then zero-length buffers for the next ReadFrame.
	recycled bool
}

// Recycle empties m for reuse by a later ReadFrame, which then decodes
// into the frame body and the Keys and Values slices m held instead of
// allocating new ones. Nothing decoded from m — no byte field, no
// element of Keys or Values — may be used after the call.
func (m *Message) Recycle() {
	*m = Message{frame: m.frame[:0], Keys: m.Keys[:0], Values: m.Values[:0], recycled: true}
}

// FrameSize is the size of the frame body m was decoded from by
// ReadFrame, 0 for any other message. A holder that retains one of
// m's byte fields retains that many bytes with it.
func (m *Message) FrameSize() int { return len(m.frame) }

// messages and bulkMessages hold the messages both ends of a drive
// connection read frames into — the drive its requests, the client its
// replies — once their holders have released them. A message keeps the
// frame body it was decoded from, so the ones that held a chunk-sized
// frame are kept apart: the next chunk-sized frame reads into that
// megabyte instead of allocating and zeroing one, and no small frame
// takes it out of circulation.
var messages, bulkMessages = newMessagePool(), newMessagePool()

func newMessagePool() *sync.Pool {
	return &sync.Pool{New: func() any { return new(Message) }}
}

// bulkFrame is the frame size from which a frame counts as chunk-sized.
const bulkFrame = 64 << 10

func messagePool(frameSize int) *sync.Pool {
	if frameSize >= bulkFrame {
		return bulkMessages
	}
	return messages
}

// TakeMessage returns a message to ReadFrame a frame of frameSize bytes
// into (see PeekFrameSize): one that ReleaseMessage gave back, whose
// frame body the read reuses when large enough, or a new one.
func TakeMessage(frameSize int) *Message {
	return messagePool(frameSize).Get().(*Message)
}

// ReleaseMessage recycles m (see Recycle) and gives it back for a later
// TakeMessage; nil is ignored. Nothing decoded from m may be used after
// the call.
func ReleaseMessage(m *Message) {
	if m == nil {
		return
	}
	pool := messagePool(m.FrameSize())
	m.Recycle()
	pool.Put(m)
}

// Field tags for the TLV encoding.
const (
	fType uint8 = iota + 1
	fSeq
	fUser
	fStatus
	fStatusMsg
	fKey
	fValue
	fDBVersion
	fNewVersion
	fForce
	_ // 11, Kinetic's sync mode: retired, skipped like any unknown field
	fStartKey
	fEndKey
	fMaxReturned
	fReverse
	fKeysEntry
	fKeyInclusive
	fACLEntry
	fPin
	fPeer
	fLogEntry
	fHMAC
	// New tags append after fHMAC so existing encodings stay stable.
	fBatchEntry
	fFailedIndex
	fGroupSize
	fGroupStatus
	fTraceID
	fServiceUs
	fWithValues
	fValuesEntry
	fTruncated
)

// Marshal encodes m, including its HMAC field if present.
func (m *Message) Marshal() []byte {
	buf := m.marshalBody(nil)
	if len(m.HMAC) > 0 {
		buf = appendField(buf, fHMAC, m.HMAC)
	}
	return buf
}

// marshalBody encodes every field except the HMAC.
func (m *Message) marshalBody(buf []byte) []byte {
	buf = m.marshalHead(buf)
	buf = append(buf, m.Value...)
	return m.marshalTail(buf)
}

// marshalHead encodes the fields ahead of the value, ending with the
// value field's tag and length when there is a value: head | Value |
// tail is the message body, which lets the Encoder put a large value
// on the wire without copying it.
func (m *Message) marshalHead(buf []byte) []byte {
	buf = appendField(buf, fType, []byte{byte(m.Type)})
	var seq [8]byte
	binary.BigEndian.PutUint64(seq[:], m.Seq)
	buf = appendField(buf, fSeq, seq[:])
	if m.User != "" {
		buf = appendField(buf, fUser, []byte(m.User))
	}
	if m.Status != StatusOK {
		buf = appendField(buf, fStatus, []byte{byte(m.Status)})
	}
	if m.StatusMsg != "" {
		buf = appendField(buf, fStatusMsg, []byte(m.StatusMsg))
	}
	if len(m.Key) > 0 {
		buf = appendField(buf, fKey, m.Key)
	}
	if len(m.Value) > 0 {
		buf = append(buf, fValue)
		buf = binary.AppendUvarint(buf, uint64(len(m.Value)))
	}
	return buf
}

// marshalTail encodes the fields that follow the value.
func (m *Message) marshalTail(buf []byte) []byte {
	if len(m.DBVersion) > 0 {
		buf = appendField(buf, fDBVersion, m.DBVersion)
	}
	if len(m.NewVersion) > 0 {
		buf = appendField(buf, fNewVersion, m.NewVersion)
	}
	if m.Force {
		buf = appendField(buf, fForce, []byte{1})
	}
	if len(m.StartKey) > 0 {
		buf = appendField(buf, fStartKey, m.StartKey)
	}
	if len(m.EndKey) > 0 {
		buf = appendField(buf, fEndKey, m.EndKey)
	}
	if m.MaxReturned != 0 {
		var mr [4]byte
		binary.BigEndian.PutUint32(mr[:], m.MaxReturned)
		buf = appendField(buf, fMaxReturned, mr[:])
	}
	if m.Reverse {
		buf = appendField(buf, fReverse, []byte{1})
	}
	if m.KeyInclusive {
		buf = appendField(buf, fKeyInclusive, []byte{1})
	}
	for _, k := range m.Keys {
		buf = appendField(buf, fKeysEntry, k)
	}
	if m.WithValues {
		buf = appendField(buf, fWithValues, []byte{1})
	}
	for _, v := range m.Values {
		buf = appendField(buf, fValuesEntry, v)
	}
	if m.Truncated {
		buf = appendField(buf, fTruncated, []byte{1})
	}
	for _, a := range m.ACLs {
		buf = appendField(buf, fACLEntry, marshalACL(a))
	}
	if len(m.Pin) > 0 {
		buf = appendField(buf, fPin, m.Pin)
	}
	if m.Peer != "" {
		buf = appendField(buf, fPeer, []byte(m.Peer))
	}
	if len(m.Log) > 0 {
		// Sorted so a message has one encoding, which is what an HMAC
		// or a golden frame is taken over.
		for _, k := range slices.Sorted(maps.Keys(m.Log)) {
			entry := appendField(nil, 1, []byte(k))
			entry = appendField(entry, 2, []byte(m.Log[k]))
			buf = appendField(buf, fLogEntry, entry)
		}
	}
	for _, op := range m.Batch {
		// Encoded in place: the nested entry's size is computed up
		// front so the hot batch path never allocates per sub-op
		// scratch (the whole message rides the caller's one buffer).
		buf = append(buf, fBatchEntry)
		buf = binary.AppendUvarint(buf, uint64(batchOpSize(op)))
		buf = appendBatchOpBody(buf, op)
	}
	if m.BatchFailed {
		var fi [4]byte
		binary.BigEndian.PutUint32(fi[:], m.FailedIndex)
		buf = appendField(buf, fFailedIndex, fi[:])
	}
	for _, n := range m.GroupSizes {
		var gs [4]byte
		binary.BigEndian.PutUint32(gs[:], n)
		buf = appendField(buf, fGroupSize, gs[:])
	}
	for _, g := range m.GroupStatus {
		buf = append(buf, fGroupStatus)
		buf = binary.AppendUvarint(buf, uint64(groupStatusSize(g)))
		buf = appendGroupStatusBody(buf, g)
	}
	if m.TraceID != 0 {
		var tid [8]byte
		binary.BigEndian.PutUint64(tid[:], m.TraceID)
		buf = appendField(buf, fTraceID, tid[:])
	}
	if m.ServiceUs != 0 {
		var su [4]byte
		binary.BigEndian.PutUint32(su[:], m.ServiceUs)
		buf = appendField(buf, fServiceUs, su[:])
	}
	return buf
}

// Unmarshal decodes data into m, replacing all fields. Byte fields are
// copied out of data, which stays the caller's.
func (m *Message) Unmarshal(data []byte) error { return m.decode(data, false) }

// decode parses data into m. With alias set m takes ownership of data:
// byte fields are sub-slices of it, capacity-limited so appending to
// one can never reach a sibling, and Verify authenticates data as
// received.
func (m *Message) decode(data []byte, alias bool) error {
	var keys, values [][]byte
	if m.recycled {
		keys, values = m.Keys, m.Values
	}
	*m = Message{}
	own := cloneBytes
	if alias {
		own = aliasBytes
	}
	// Size the repeated fields first so each costs one allocation
	// rather than an append growth series.
	var nKeys, nValues, nACLs, nBatch, nSizes, nStatus int
	for rest := data; len(rest) > 0; {
		tag, _, r, err := readField(rest)
		if err != nil {
			return err
		}
		rest = r
		switch tag {
		case fKeysEntry:
			nKeys++
		case fValuesEntry:
			nValues++
		case fACLEntry:
			nACLs++
		case fBatchEntry:
			nBatch++
		case fGroupSize:
			nSizes++
		case fGroupStatus:
			nStatus++
		}
	}
	if nKeys > 0 {
		if m.Keys = keys; nKeys > cap(keys) {
			m.Keys = make([][]byte, 0, nKeys)
		}
	}
	if nValues > 0 {
		if m.Values = values; nValues > cap(values) {
			m.Values = make([][]byte, 0, nValues)
		}
	}
	if nACLs > 0 {
		m.ACLs = make([]ACL, 0, nACLs)
	}
	if nBatch > 0 {
		m.Batch = make([]BatchOp, 0, nBatch)
	}
	if nSizes > 0 {
		m.GroupSizes = make([]uint32, 0, nSizes)
	}
	if nStatus > 0 {
		m.GroupStatus = make([]BatchGroupStatus, 0, nStatus)
	}

	macs, macOff := 0, 0            // fHMAC fields seen, offset of the latest
	vals, valOff, valEnd := 0, 0, 0 // fValue fields seen, the latest's value bytes
	for rest := data; len(rest) > 0; {
		off := len(data) - len(rest)
		tag, val, r, err := readField(rest)
		if err != nil {
			return err
		}
		rest = r
		switch tag {
		case fType:
			if len(val) != 1 {
				return errors.New("wire: bad type field")
			}
			m.Type = MessageType(val[0])
		case fSeq:
			if len(val) != 8 {
				return errors.New("wire: bad seq field")
			}
			m.Seq = binary.BigEndian.Uint64(val)
		case fUser:
			m.User = string(val)
		case fStatus:
			if len(val) != 1 {
				return errors.New("wire: bad status field")
			}
			m.Status = StatusCode(val[0])
		case fStatusMsg:
			m.StatusMsg = string(val)
		case fKey:
			m.Key = own(val)
		case fValue:
			m.Value = own(val)
			vals++
			valEnd = len(data) - len(rest)
			valOff = valEnd - len(val)
		case fDBVersion:
			m.DBVersion = own(val)
		case fNewVersion:
			m.NewVersion = own(val)
		case fForce:
			m.Force = len(val) == 1 && val[0] == 1
		case fStartKey:
			m.StartKey = own(val)
		case fEndKey:
			m.EndKey = own(val)
		case fMaxReturned:
			if len(val) != 4 {
				return errors.New("wire: bad maxReturned field")
			}
			m.MaxReturned = binary.BigEndian.Uint32(val)
		case fReverse:
			m.Reverse = len(val) == 1 && val[0] == 1
		case fKeyInclusive:
			m.KeyInclusive = len(val) == 1 && val[0] == 1
		case fKeysEntry:
			m.Keys = append(m.Keys, own(val))
		case fWithValues:
			m.WithValues = len(val) == 1 && val[0] == 1
		case fValuesEntry:
			m.Values = append(m.Values, own(val))
		case fTruncated:
			m.Truncated = len(val) == 1 && val[0] == 1
		case fACLEntry:
			acl, err := unmarshalACL(val, own)
			if err != nil {
				return err
			}
			m.ACLs = append(m.ACLs, acl)
		case fPin:
			m.Pin = own(val)
		case fPeer:
			m.Peer = string(val)
		case fLogEntry:
			if m.Log == nil {
				m.Log = make(map[string]string)
			}
			k, v, err := unmarshalLogEntry(val)
			if err != nil {
				return err
			}
			m.Log[k] = v
		case fBatchEntry:
			op, err := unmarshalBatchOp(val, own)
			if err != nil {
				return err
			}
			m.Batch = append(m.Batch, op)
		case fFailedIndex:
			if len(val) != 4 {
				return errors.New("wire: bad failedIndex field")
			}
			m.BatchFailed = true
			m.FailedIndex = binary.BigEndian.Uint32(val)
		case fGroupSize:
			if len(val) != 4 {
				return errors.New("wire: bad groupSize field")
			}
			m.GroupSizes = append(m.GroupSizes, binary.BigEndian.Uint32(val))
		case fGroupStatus:
			g, err := unmarshalGroupStatus(val)
			if err != nil {
				return err
			}
			m.GroupStatus = append(m.GroupStatus, g)
		case fTraceID:
			if len(val) != 8 {
				return errors.New("wire: bad traceID field")
			}
			m.TraceID = binary.BigEndian.Uint64(val)
		case fServiceUs:
			if len(val) != 4 {
				return errors.New("wire: bad serviceUs field")
			}
			m.ServiceUs = binary.BigEndian.Uint32(val)
		case fHMAC:
			m.HMAC = own(val)
			macs++
			macOff = off
		default:
			// Unknown fields are skipped for forward compatibility.
		}
	}
	if alias {
		m.frame = data
		m.macOff = -1
		if macs == 1 && vals <= 1 && macOff+fieldSize(len(m.HMAC)) == len(data) {
			m.macOff, m.valOff, m.valEnd = macOff, valOff, valEnd
		}
	}
	return nil
}

// Sign computes and installs the HMAC over the message body, value
// bytes left out, using key. A message that was received stops
// standing for its frame: from here on it verifies as the fields it now
// carries.
func (m *Message) Sign(key []byte) {
	m.HMAC = NewMAC(key).tag(m.macInput())
	m.frame = nil
}

// macInput is m's body around its value: head ends with the value
// field's tag and length (when there is a value), tail is every field
// after it.
func (m *Message) macInput() (head, tail []byte) {
	body := m.marshalHead(nil)
	split := len(body)
	body = m.marshalTail(body)
	return body[:split], body[split:]
}

// Verify reports whether the message HMAC is valid under key.
func (m *Message) Verify(key []byte) bool { return NewMAC(key).Verify(m) }

// MAC is HMAC-SHA256 state keyed once and reused across messages: the
// two SHA-256 key schedules of hmac.New are paid per credential, not
// per message. A MAC is not safe for concurrent use.
type MAC struct {
	h   hash.Hash
	sum []byte
}

// NewMAC returns reusable HMAC state for key.
func NewMAC(key []byte) *MAC {
	return &MAC{h: hmac.New(sha256.New, key), sum: make([]byte, 0, sha256.Size)}
}

// tag is the one place the drive-link MAC is computed: HMAC-SHA256 over
// head then tail, a message body with its value's bytes cut out (see
// macInput). The value field's tag and length stay in head, so a value
// added, dropped, truncated or extended changes what is MACed; only
// rewriting a value byte for byte does not. The result is a's buffer,
// valid until the next call.
func (a *MAC) tag(head, tail []byte) []byte {
	a.h.Reset()
	a.h.Write(head)
	a.h.Write(tail)
	a.sum = a.h.Sum(a.sum[:0])
	return a.sum
}

// Verify reports whether m's HMAC is valid under the MAC's key. A
// message decoded by ReadFrame is authenticated as the bytes that
// arrived — everything ahead of the fHMAC field but the value's bytes,
// unknown fields included — and fails unless that field is the last
// thing in the frame and the frame carries at most one value; any other
// message is authenticated by re-marshalling its fields.
func (a *MAC) Verify(m *Message) bool {
	var head, tail []byte
	switch {
	case m.frame == nil:
		head, tail = m.macInput()
	case m.macOff < 0:
		return false
	default:
		head, tail = m.frame[:m.valOff], m.frame[m.valEnd:m.macOff]
	}
	return hmac.Equal(a.tag(head, tail), m.HMAC)
}

// Encoder signs and frames messages for one connection, reusing the
// HMAC state and the marshal buffer across messages. The per-message
// Sign+WriteFrame pair marshals the body twice and allocates a fresh
// HMAC state (two SHA-256 key schedules) per message; on the
// controller's hot path that allocation dominates the per-request CPU
// outside crypto itself. An Encoder marshals once, never copies or
// MACs the message value — it goes from the caller's slice to the
// writer — re-keys only when the credential key actually changes, and
// emits byte-identical frames to Sign+WriteFrame.
//
// An Encoder is not safe for concurrent use; callers serialize on
// their connection write lock, which is exactly the scope the reused
// buffers need.
type Encoder struct {
	key []byte
	mac *MAC
	buf []byte
}

// NewEncoder returns an empty Encoder.
func NewEncoder() *Encoder { return &Encoder{} }

// frameHeaderLen is the magic byte plus the body length.
const frameHeaderLen = 5

// WriteFrame signs m under key and writes the framed message to w,
// equivalent to m.Sign(key) followed by WriteFrame(w, m) but without
// the double marshal, the value copy or per-message allocations.
// m.HMAC is left untouched.
func (e *Encoder) WriteFrame(w io.Writer, m *Message, key []byte) error {
	if e.mac == nil || !bytes.Equal(e.key, key) {
		e.key = append(e.key[:0], key...)
		e.mac = NewMAC(key)
	}
	return e.write(w, m, e.mac)
}

// WriteUnsigned writes the framed message to w without an HMAC field —
// how a drive answers — equivalent to WriteFrame(w, m) for a message
// whose HMAC is unset.
func (e *Encoder) WriteUnsigned(w io.Writer, m *Message) error {
	return e.write(w, m, nil)
}

// write frames m as header+head | value | tail+HMAC: the marshalled
// pieces share the reused buffer, the MAC covers them, and the value is
// written from where it lies.
func (e *Encoder) write(w io.Writer, m *Message, mac *MAC) error {
	buf := append(e.buf[:0], Magic, 0, 0, 0, 0)
	buf = m.marshalHead(buf)
	split := len(buf)
	buf = m.marshalTail(buf)
	if mac != nil {
		buf = appendField(buf, fHMAC, mac.tag(buf[frameHeaderLen:split], buf[split:]))
	}
	e.buf = buf[:0] // keep the grown capacity for the next message
	n := len(buf) - frameHeaderLen + len(m.Value)
	if n > MaxMessageSize {
		return fmt.Errorf("wire: message too large: %d bytes", n)
	}
	binary.BigEndian.PutUint32(buf[1:], uint32(n))
	if len(m.Value) == 0 {
		_, err := w.Write(buf)
		return err
	}
	if _, err := w.Write(buf[:split]); err != nil {
		return err
	}
	if _, err := w.Write(m.Value); err != nil {
		return err
	}
	_, err := w.Write(buf[split:])
	return err
}

// WriteFrame writes the framed message to w.
func WriteFrame(w io.Writer, m *Message) error {
	body := m.Marshal()
	if len(body) > MaxMessageSize {
		return fmt.Errorf("wire: message too large: %d bytes", len(body))
	}
	var hdr [frameHeaderLen]byte
	hdr[0] = Magic
	binary.BigEndian.PutUint32(hdr[1:], uint32(len(body)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(body)
	return err
}

// PeekFrameSize waits for the next frame's header and returns the size
// of its body, consuming nothing: a reader that recycles messages picks
// the one to decode into by the size it must hold, and holds none while
// the connection is idle.
func PeekFrameSize(r *bufio.Reader) (int, error) {
	hdr, err := r.Peek(frameHeaderLen)
	if err != nil {
		if err == io.EOF && len(hdr) > 0 {
			err = io.ErrUnexpectedEOF
		}
		return 0, err
	}
	if hdr[0] != Magic {
		return 0, fmt.Errorf("wire: bad magic byte 0x%02x", hdr[0])
	}
	n := binary.BigEndian.Uint32(hdr[1:])
	if n > MaxMessageSize {
		return 0, fmt.Errorf("wire: frame too large: %d bytes", n)
	}
	return int(n), nil
}

// ReadFrame reads one framed message from r. The frame body is the one
// allocation the message's bytes cost: m owns it and its byte fields
// (batch sub-operations and ACL keys included) alias it, so whoever
// retains a field retains the frame — see FrameSize. A message emptied
// by Recycle lends the body it held, when large enough, instead.
func ReadFrame(r *bufio.Reader, m *Message) error {
	n, err := PeekFrameSize(r)
	if err != nil {
		return err
	}
	r.Discard(frameHeaderLen) // cannot fail: Peek buffered these bytes
	var body []byte
	if m.recycled && cap(m.frame) >= n {
		body = m.frame[:n]
	} else {
		body = make([]byte, n)
	}
	if _, err := io.ReadFull(r, body); err != nil {
		return err
	}
	return m.decode(body, true)
}

func marshalACL(a ACL) []byte {
	buf := appendField(nil, 1, []byte(a.Identity))
	buf = appendField(buf, 2, a.Key)
	var p [2]byte
	binary.BigEndian.PutUint16(p[:], uint16(a.Perms))
	buf = appendField(buf, 3, p[:])
	return buf
}

func unmarshalACL(data []byte, own func([]byte) []byte) (ACL, error) {
	var a ACL
	for len(data) > 0 {
		tag, val, rest, err := readField(data)
		if err != nil {
			return a, err
		}
		data = rest
		switch tag {
		case 1:
			a.Identity = string(val)
		case 2:
			a.Key = own(val)
		case 3:
			if len(val) != 2 {
				return a, errors.New("wire: bad ACL perms")
			}
			a.Perms = Permission(binary.BigEndian.Uint16(val))
		}
	}
	return a, nil
}

// Batch sub-operation field tags (nested TLV inside fBatchEntry).
const (
	bOp uint8 = iota + 1
	bKey
	bValue
	bDBVersion
	bNewVersion
	bForce
)

// fieldSize is the encoded length of one TLV field with an n-byte
// value.
func fieldSize(n int) int {
	return 1 + uvarintLen(uint64(n)) + n
}

// uvarintLen is the byte length of n's uvarint encoding.
func uvarintLen(n uint64) int {
	l := 1
	for n >= 0x80 {
		n >>= 7
		l++
	}
	return l
}

// batchOpSize is the exact encoded size of one batch sub-operation,
// so the hot path can length-prefix and encode it in place.
func batchOpSize(op BatchOp) int {
	n := fieldSize(1) + fieldSize(len(op.Key))
	if len(op.Value) > 0 {
		n += fieldSize(len(op.Value))
	}
	if len(op.DBVersion) > 0 {
		n += fieldSize(len(op.DBVersion))
	}
	if len(op.NewVersion) > 0 {
		n += fieldSize(len(op.NewVersion))
	}
	if op.Force {
		n += fieldSize(1)
	}
	return n
}

// appendBatchOpBody appends op's nested TLV fields to buf.
func appendBatchOpBody(buf []byte, op BatchOp) []byte {
	buf = appendField(buf, bOp, []byte{byte(op.Op)})
	buf = appendField(buf, bKey, op.Key)
	if len(op.Value) > 0 {
		buf = appendField(buf, bValue, op.Value)
	}
	if len(op.DBVersion) > 0 {
		buf = appendField(buf, bDBVersion, op.DBVersion)
	}
	if len(op.NewVersion) > 0 {
		buf = appendField(buf, bNewVersion, op.NewVersion)
	}
	if op.Force {
		buf = appendField(buf, bForce, []byte{1})
	}
	return buf
}

func unmarshalBatchOp(data []byte, own func([]byte) []byte) (BatchOp, error) {
	var op BatchOp
	for len(data) > 0 {
		tag, val, rest, err := readField(data)
		if err != nil {
			return op, err
		}
		data = rest
		switch tag {
		case bOp:
			if len(val) != 1 {
				return op, errors.New("wire: bad batch op kind")
			}
			op.Op = BatchOpKind(val[0])
		case bKey:
			op.Key = own(val)
		case bValue:
			op.Value = own(val)
		case bDBVersion:
			op.DBVersion = own(val)
		case bNewVersion:
			op.NewVersion = own(val)
		case bForce:
			op.Force = len(val) == 1 && val[0] == 1
		}
	}
	return op, nil
}

// Group status field tags (nested TLV inside fGroupStatus).
const (
	gStatus uint8 = iota + 1
	gFailedIndex
	gStatusMsg
)

// groupStatusSize is the exact encoded size of one group verdict.
func groupStatusSize(g BatchGroupStatus) int {
	n := fieldSize(1)
	if g.FailedIndex != 0 {
		n += fieldSize(4)
	}
	if g.StatusMsg != "" {
		n += fieldSize(len(g.StatusMsg))
	}
	return n
}

// appendGroupStatusBody appends g's nested TLV fields to buf.
func appendGroupStatusBody(buf []byte, g BatchGroupStatus) []byte {
	buf = appendField(buf, gStatus, []byte{byte(g.Status)})
	if g.FailedIndex != 0 {
		var fi [4]byte
		binary.BigEndian.PutUint32(fi[:], g.FailedIndex)
		buf = appendField(buf, gFailedIndex, fi[:])
	}
	if g.StatusMsg != "" {
		buf = appendField(buf, gStatusMsg, []byte(g.StatusMsg))
	}
	return buf
}

func unmarshalGroupStatus(data []byte) (BatchGroupStatus, error) {
	var g BatchGroupStatus
	for len(data) > 0 {
		tag, val, rest, err := readField(data)
		if err != nil {
			return g, err
		}
		data = rest
		switch tag {
		case gStatus:
			if len(val) != 1 {
				return g, errors.New("wire: bad group status")
			}
			g.Status = StatusCode(val[0])
		case gFailedIndex:
			if len(val) != 4 {
				return g, errors.New("wire: bad group failedIndex")
			}
			g.FailedIndex = binary.BigEndian.Uint32(val)
		case gStatusMsg:
			g.StatusMsg = string(val)
		}
	}
	return g, nil
}

func unmarshalLogEntry(data []byte) (string, string, error) {
	var k, v string
	for len(data) > 0 {
		tag, val, rest, err := readField(data)
		if err != nil {
			return "", "", err
		}
		data = rest
		switch tag {
		case 1:
			k = string(val)
		case 2:
			v = string(val)
		}
	}
	return k, v, nil
}

// appendField appends tag | uvarint length | value.
func appendField(buf []byte, tag uint8, val []byte) []byte {
	buf = append(buf, tag)
	buf = binary.AppendUvarint(buf, uint64(len(val)))
	return append(buf, val...)
}

// readField decodes one TLV field, returning the remaining bytes.
func readField(data []byte) (tag uint8, val, rest []byte, err error) {
	if len(data) < 2 {
		return 0, nil, nil, errors.New("wire: truncated field header")
	}
	tag = data[0]
	n, sz := binary.Uvarint(data[1:])
	if sz <= 0 || n > math.MaxInt32 {
		return 0, nil, nil, errors.New("wire: bad field length")
	}
	start := 1 + sz
	if uint64(len(data)-start) < n {
		return 0, nil, nil, errors.New("wire: truncated field value")
	}
	return tag, data[start : start+int(n)], data[start+int(n):], nil
}

// aliasBytes is cloneBytes without the copy: b with its capacity cut to
// its length, so an append reallocates instead of overwriting what
// follows b in the frame.
func aliasBytes(b []byte) []byte {
	if len(b) == 0 {
		return nil
	}
	return b[:len(b):len(b)]
}

func cloneBytes(b []byte) []byte {
	if len(b) == 0 {
		return nil
	}
	out := make([]byte, len(b))
	copy(out, b)
	return out
}
