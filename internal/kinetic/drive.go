// Package kinetic implements a network-attached Kinetic key-value
// drive: the trusted storage half of Pesos (§2.2). A Drive bundles an
// ordered key-value store (the LevelDB equivalent inside the real
// drive's SoC), user accounts with HMAC secrets and per-operation
// permissions, a wire-protocol server terminating TLS inside the
// "drive controller", an optional HDD service-time model, and the
// device-to-device P2P copy operation.
package kinetic

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/kinetic/wire"
)

// DefaultAdminIdentity is the factory-installed account present on a
// fresh drive, analogous to the well-known Kinetic demo identity. The
// Pesos bootstrap replaces it (§3.1: the controller "removes all
// existing user accounts").
const DefaultAdminIdentity = "factory-admin"

// DefaultAdminKey is the factory account's HMAC secret.
var DefaultAdminKey = []byte("asdfasdf")

// Stats counts drive activity; all fields are monotonically increasing.
type Stats struct {
	Gets      atomic.Uint64
	Puts      atomic.Uint64
	Deletes   atomic.Uint64
	Ranges    atomic.Uint64
	P2PPushes atomic.Uint64
	Rejected  atomic.Uint64 // HMAC or permission failures
	// Batches counts TBatch requests; BatchOps their sub-operations.
	// Batch sub-operations are not double-counted in Puts/Deletes.
	Batches  atomic.Uint64
	BatchOps atomic.Uint64
	// BatchGroups counts sub-operation groups carried by grouped
	// TBatch requests (the group-commit carrier); GroupRejects counts
	// groups skipped by a failed compare-and-swap or permission check.
	BatchGroups  atomic.Uint64
	GroupRejects atomic.Uint64
	// GetManys counts TGetMany requests and GetManyKeys the keys they
	// answered, each of which is also one of Gets.
	GetManys    atomic.Uint64
	GetManyKeys atomic.Uint64
	// Flushes always reads 0: every write is write-through, so the
	// drive has no write buffer to destage. It stays because
	// benchmark/counters.go reads it.
	Flushes atomic.Uint64
}

// Drive is one Kinetic device: store, accounts, media model, identity.
type Drive struct {
	name  string
	store *skipList
	media MediaModel
	stats Stats

	// storeMu serializes check-then-act mutations (CAS validation plus
	// apply) so single operations and batch groups can never
	// interleave between a version check and the write it guards.
	storeMu sync.Mutex

	mu       sync.RWMutex
	accounts map[string]*account
	// p2pAccount, when configured, is the drive-to-drive trust account
	// for device-to-device copies. It lives OUTSIDE the replaceable
	// account table: a controller takeover (SetSecurity) locks out
	// every user but must not break P2P pushes from peer drives, which
	// is what live shard handoff between controllers rides on.
	p2pAccount *account
	erasePIN   []byte
	locked     bool

	// p2pDial lets the drive push objects to a peer drive without a
	// third party relaying data (§4.5). Tests and the in-process
	// cluster wire this to the peer's handler; the daemon dials TCP.
	p2pDial func(peer string) (P2PTarget, error)

	// faults holds the active fault-injection state; nil (the steady
	// state) costs one atomic load per request.
	faults atomic.Pointer[faultState]
}

// account is one installed user: its ACL plus keyed HMAC states, so
// authenticating a request costs no key schedule. Requests are handled
// concurrently, hence a pool rather than one state.
type account struct {
	wire.ACL
	macs sync.Pool // of *wire.MAC keyed with ACL.Key
}

// newAccount copies acl's key: the caller's slice may be a frame.
func newAccount(acl wire.ACL) *account {
	acl.Key = append([]byte(nil), acl.Key...)
	return &account{ACL: acl}
}

// verify checks req's HMAC under the account key.
func (a *account) verify(req *wire.Message) bool {
	mac, _ := a.macs.Get().(*wire.MAC)
	if mac == nil {
		mac = wire.NewMAC(a.Key)
	}
	ok := mac.Verify(req)
	a.macs.Put(mac)
	return ok
}

// P2PTarget is the destination interface for device-to-device copies.
type P2PTarget interface {
	// P2PPut stores key/value with the given version on the peer.
	P2PPut(key, value, version []byte) error
}

// Config configures a new Drive.
type Config struct {
	// Name identifies the drive in logs and GETLOG output.
	Name string
	// Media is the service-time model; nil means SimMedia.
	Media MediaModel
	// ErasePIN protects the instant-secure-erase operation; empty
	// means erase needs only the SECURITY permission.
	ErasePIN []byte
	// P2PDial resolves a peer address for P2P pushes.
	P2PDial func(peer string) (P2PTarget, error)
	// P2PAccount, when set, installs a drive-to-drive trust account
	// that survives SetSecurity account-table replacement, so peer
	// drives can still push records after a controller takeover (live
	// shard handoff between controllers rides on this). Give it the
	// minimum permissions the deployment needs — typically WRITE only.
	P2PAccount *wire.ACL
}

// NewDrive creates a drive in factory state: a single well-known admin
// account with full permissions, empty store.
func NewDrive(cfg Config) *Drive {
	if cfg.Media == nil {
		cfg.Media = SimMedia{}
	}
	d := &Drive{
		name:  cfg.Name,
		store: newSkipList(),
		media: cfg.Media,
		accounts: map[string]*account{
			DefaultAdminIdentity: newAccount(wire.ACL{
				Identity: DefaultAdminIdentity,
				Key:      DefaultAdminKey,
				Perms:    wire.PermAll,
			}),
		},
		erasePIN: cfg.ErasePIN,
		p2pDial:  cfg.P2PDial,
	}
	if cfg.P2PAccount != nil {
		// Same rule SetSecurity enforces on table accounts; failing
		// loudly here beats a P2P account that silently never installs
		// and surfaces as NoSuchUser mid-handoff after a takeover.
		if cfg.P2PAccount.Identity == "" || len(cfg.P2PAccount.Key) < 8 {
			panic("kinetic: P2PAccount needs an identity and a >= 8 byte key")
		}
		d.p2pAccount = newAccount(*cfg.P2PAccount)
	}
	return d
}

// Name returns the drive's configured name.
func (d *Drive) Name() string { return d.name }

// Stats exposes the drive's activity counters.
func (d *Drive) Stats() *Stats { return &d.stats }

// Media returns the drive's media model.
func (d *Drive) Media() MediaModel { return d.media }

// Len returns the number of stored keys.
func (d *Drive) Len() int { return d.store.len() }

// SizeBytes returns the total stored key, value and version bytes (the
// same figure the GetLog "bytes" statistic reports over the wire).
func (d *Drive) SizeBytes() int64 { return d.store.sizeBytes() }

// MappedBytes returns the memory the drive has mapped from the OS to
// hold its records: SizeBytes plus what size classes, free blocks and
// slabs not yet filled cost on top.
func (d *Drive) MappedBytes() int64 { return d.store.mappedBytes() }

// Close returns the drive's record memory to the OS and leaves it
// empty, as an erase does. Close the drive's Server first, so that no
// request refills it.
func (d *Drive) Close() {
	d.storeMu.Lock()
	defer d.storeMu.Unlock()
	d.store.clear()
}

// Accounts returns the identities currently installed (for tests and
// the bootstrap verification step).
func (d *Drive) Accounts() []string {
	d.mu.RLock()
	defer d.mu.RUnlock()
	out := make([]string, 0, len(d.accounts))
	for id := range d.accounts {
		out = append(out, id)
	}
	return out
}

// lookupAccount returns the account for identity. The P2P trust
// account resolves independently of the replaceable table.
func (d *Drive) lookupAccount(identity string) (*account, bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if d.p2pAccount != nil && identity == d.p2pAccount.Identity {
		return d.p2pAccount, true
	}
	a, ok := d.accounts[identity]
	return a, ok
}

// Handle executes one request message and returns the response. This
// is the drive's state machine; the network server and the in-process
// transport both funnel into it. The response's byte fields are the
// caller's to keep: stored bytes leave the store as copies.
//
// A nil return means the request was blackholed by fault injection:
// the caller must drop the carrying connection without responding, as
// a vanished drive would.
func (d *Drive) Handle(req *wire.Message) *wire.Message {
	return d.handle(req, new(reply))
}

// handle is Handle copying the stored bytes the response carries into
// out.
func (d *Drive) handle(req *wire.Message, out *reply) *wire.Message {
	started := time.Now()
	resp := &wire.Message{Type: req.Type.Response(), Seq: req.Seq, TraceID: req.TraceID}
	defer func() {
		if resp != nil {
			// Report the drive's own service time (media wait included)
			// so the controller can split the round trip into network
			// and device without a shared clock.
			if us := time.Since(started).Microseconds(); us > 0 {
				resp.ServiceUs = uint32(min(us, int64(^uint32(0))))
			} else {
				resp.ServiceUs = 1
			}
		}
	}()
	if fs := d.faults.Load(); fs != nil {
		if fs.cfg.Blackhole {
			fs.dropped.Add(1)
			return nil
		}
		if fs.cfg.ErrorEveryN > 0 && fs.reqs.Add(1)%fs.cfg.ErrorEveryN == 0 {
			fs.errors.Add(1)
			resp.Status = wire.StatusInternalError
			resp.StatusMsg = "injected fault"
			return resp
		}
	}
	if !req.Type.IsRequest() {
		resp.Type = wire.TNoopResponse
		resp.Status = wire.StatusInvalidRequest
		resp.StatusMsg = "not a request message"
		return resp
	}

	user, ok := d.lookupAccount(req.User)
	if !ok {
		d.stats.Rejected.Add(1)
		resp.Status = wire.StatusNoSuchUser
		resp.StatusMsg = fmt.Sprintf("unknown identity %q", req.User)
		return resp
	}
	if !user.verify(req) {
		d.stats.Rejected.Add(1)
		resp.Status = wire.StatusHMACFailure
		resp.StatusMsg = "message authentication failed"
		return resp
	}
	if d.isLocked() && req.Type != wire.TErase {
		resp.Status = wire.StatusDeviceLocked
		resp.StatusMsg = "device locked"
		return resp
	}

	acct := user.ACL
	switch req.Type {
	case wire.TGet:
		d.handleGet(acct, req, resp, out)
	case wire.TPut:
		d.handlePut(acct, req, resp, out)
	case wire.TDelete:
		d.handleDelete(acct, req, resp, out)
	case wire.TGetKeyRange:
		d.handleRange(acct, req, resp, out)
	case wire.TSecurity:
		d.handleSecurity(acct, req, resp)
	case wire.TErase:
		d.handleErase(acct, req, resp)
	case wire.TBatch:
		d.handleBatch(acct, req, resp, out)
	case wire.TNoop:
	case wire.TP2PPush:
		d.handleP2P(acct, req, resp, out)
	case wire.TGetLog:
		d.handleGetLog(acct, req, resp)
	case wire.TGetVersion:
		d.handleGetVersion(acct, req, resp, out)
	case wire.TGetMany:
		d.handleGetMany(acct, req, resp, out)
	default:
		resp.Status = wire.StatusInvalidRequest
		resp.StatusMsg = "unsupported operation"
	}
	return resp
}

func (d *Drive) handleGet(acct wire.ACL, req, resp *wire.Message, out *reply) {
	if !permitted(acct, wire.PermRead, resp) {
		d.stats.Rejected.Add(1)
		return
	}
	d.stats.Gets.Add(1)
	d.waitMedia(OpRead, 0)
	value, version, ok := d.store.get(req.Key, out)
	if !ok {
		resp.Status = wire.StatusNotFound
		return
	}
	if fs := d.faults.Load(); fs != nil {
		fs.corruptGet(value)
	}
	resp.Key = req.Key
	resp.Value = value
	resp.DBVersion = version
}

// handleGetMany answers a TGetMany: each asked key in the order asked,
// found with its value or absent, while the reply stays within the
// range reply's byte budget; the keys past the cut go unanswered and the
// reply is marked Truncated. The first key is always answered. Each key
// looked up is a GET to the stats and to the media model — one read
// apiece, with no discount — but the reads reserve the medium once and
// the request sleeps once.
func (d *Drive) handleGetMany(acct wire.ACL, req, resp *wire.Message, out *reply) {
	if !permitted(acct, wire.PermRead, resp) {
		d.stats.Rejected.Add(1)
		return
	}
	n := len(req.Keys)
	if n == 0 || n > wire.MaxBatchOps {
		resp.Status = wire.StatusInvalidRequest
		resp.StatusMsg = fmt.Sprintf("multi-key read needs 1..%d keys, got %d", wire.MaxBatchOps, n)
		return
	}
	d.stats.GetManys.Add(1)
	fs := d.faults.Load()
	resp.Keys, resp.Values, resp.Found = make([][]byte, 0, n), make([][]byte, 0, n), make([]bool, 0, n)
	size := 0
	for _, k := range req.Keys {
		value, _, ok := d.store.get(k, out)
		if len(resp.Keys) > 0 && size+len(k)+len(value) > rangeReplyBudget {
			resp.Truncated = true
			break
		}
		size += len(k) + len(value)
		if ok && fs != nil {
			fs.corruptGet(value)
		}
		resp.Keys, resp.Values, resp.Found = append(resp.Keys, k), append(resp.Values, value), append(resp.Found, ok)
	}
	d.stats.Gets.Add(uint64(len(resp.Keys)))
	d.stats.GetManyKeys.Add(uint64(len(resp.Keys)))
	d.waitMediaOps(OpRead, len(resp.Keys), 0)
	if fs != nil {
		fs.lieAboutRange(req, resp)
	}
}

// checkPutCAS validates a put's compare-and-swap precondition against
// the current store state, filling resp on failure with the stored
// version copied into out. Caller holds storeMu.
func (d *Drive) checkPutCAS(key, dbVersion []byte, force bool, resp *wire.Message, out *reply) bool {
	if force {
		return true
	}
	cur, exists := d.store.version(key, out)
	if exists && !bytes.Equal(cur, dbVersion) {
		resp.Status = wire.StatusVersionMismatch
		resp.DBVersion = cur
		return false
	}
	if !exists && len(dbVersion) != 0 {
		resp.Status = wire.StatusVersionMismatch
		return false
	}
	return true
}

// checkDeleteCAS validates a delete's precondition, as checkPutCAS
// does. Caller holds storeMu.
func (d *Drive) checkDeleteCAS(key, dbVersion []byte, force bool, resp *wire.Message, out *reply) bool {
	if force {
		return true
	}
	cur, exists := d.store.version(key, out)
	if !exists {
		resp.Status = wire.StatusNotFound
		return false
	}
	if !bytes.Equal(cur, dbVersion) {
		resp.Status = wire.StatusVersionMismatch
		resp.DBVersion = cur
		return false
	}
	return true
}

func (d *Drive) handlePut(acct wire.ACL, req, resp *wire.Message, out *reply) {
	if !permitted(acct, wire.PermWrite, resp) {
		d.stats.Rejected.Add(1)
		return
	}
	d.stats.Puts.Add(1)
	d.storeMu.Lock()
	defer d.storeMu.Unlock()
	if !d.checkPutCAS(req.Key, req.DBVersion, req.Force, resp, out) {
		return
	}
	d.waitMedia(OpWrite, len(req.Value))
	d.store.put(req.Key, req.Value, req.NewVersion)
}

func (d *Drive) handleDelete(acct wire.ACL, req, resp *wire.Message, out *reply) {
	if !permitted(acct, wire.PermDelete, resp) {
		d.stats.Rejected.Add(1)
		return
	}
	d.stats.Deletes.Add(1)
	d.storeMu.Lock()
	defer d.storeMu.Unlock()
	if !d.checkDeleteCAS(req.Key, req.DBVersion, req.Force, resp, out) {
		return
	}
	d.waitMedia(OpDelete, 0)
	if !d.store.delete(req.Key) {
		resp.Status = wire.StatusNotFound
	}
}

// handleBatch applies a TBatch: the request's sub-operations are
// partitioned into consecutive groups (each one logical client write;
// a batch without GroupSizes is one group), and every group commits or
// fails independently under the store lock — permissions, then
// compare-and-swap versions, are validated for the whole group before
// any of it is applied, so a drive never exposes a group half applied:
// this keeps an object record and its metadata record from diverging on
// replica failures (§3.2 steps 4–7). A failed check skips only its own
// group. All committing groups share ONE amortized media wait, which is
// the point of grouping: N concurrent clients' writes cost one
// positioning delay instead of N. The response carries one
// BatchGroupStatus per group, in order; the message-level status stays
// OK even when groups were rejected (partial success is the contract).
//
// Groups are validated and applied sequentially, each against the
// store state left by the groups before it, so a grouped batch is
// equivalent to issuing the groups back to back — just without paying
// per-group positioning.
func (d *Drive) handleBatch(acct wire.ACL, req, resp *wire.Message, out *reply) {
	if len(req.Batch) == 0 || len(req.Batch) > wire.MaxBatchOps {
		resp.Status = wire.StatusInvalidRequest
		resp.StatusMsg = fmt.Sprintf("batch needs 1..%d sub-operations, got %d",
			wire.MaxBatchOps, len(req.Batch))
		return
	}
	sizes := req.GroupSizes
	if len(sizes) == 0 {
		sizes = []uint32{uint32(len(req.Batch))}
	}
	total := 0
	for _, n := range sizes {
		if n == 0 {
			resp.Status = wire.StatusInvalidRequest
			resp.StatusMsg = "empty sub-operation group"
			return
		}
		total += int(n)
	}
	if total != len(req.Batch) {
		resp.Status = wire.StatusInvalidRequest
		resp.StatusMsg = fmt.Sprintf("group sizes cover %d sub-operations, batch has %d",
			total, len(req.Batch))
		return
	}
	d.stats.Batches.Add(1)
	d.stats.BatchGroups.Add(uint64(len(sizes)))

	resp.GroupStatus = make([]wire.BatchGroupStatus, len(sizes))

	d.storeMu.Lock()
	defer d.storeMu.Unlock()
	appliedBytes, applied := 0, 0
	off := 0
	for gi, n := range sizes {
		ops := req.Batch[off : off+int(n)]
		off += int(n)
		gs := &resp.GroupStatus[gi]
		// Validate the whole group — permissions, then compare-and-swap
		// against the current store state — before applying any of it.
		var failed wire.Message
		ok := true
		for i, op := range ops {
			perm := wire.PermWrite
			switch op.Op {
			case wire.BatchDelete:
				perm = wire.PermDelete
			case wire.BatchPut:
			default:
				failed.Status = wire.StatusInvalidRequest
				failed.StatusMsg = fmt.Sprintf("unknown batch sub-operation %d", op.Op)
				gs.FailedIndex = uint32(i)
				ok = false
			}
			if ok && !permitted(acct, perm, &failed) {
				d.stats.Rejected.Add(1)
				gs.FailedIndex = uint32(i)
				ok = false
			}
			if ok {
				switch op.Op {
				case wire.BatchPut:
					ok = d.checkPutCAS(op.Key, op.DBVersion, op.Force, &failed, out)
				case wire.BatchDelete:
					ok = d.checkDeleteCAS(op.Key, op.DBVersion, op.Force, &failed, out)
				}
				if !ok {
					gs.FailedIndex = uint32(i)
				}
			}
			if !ok {
				break
			}
		}
		if !ok {
			gs.Status = failed.Status
			gs.StatusMsg = failed.StatusMsg
			d.stats.GroupRejects.Add(1)
			continue
		}
		// Apply immediately so later groups validate against this
		// group's effects; the media wait is settled once at the end.
		for _, op := range ops {
			d.stats.BatchOps.Add(1)
			switch op.Op {
			case wire.BatchPut:
				d.store.put(op.Key, op.Value, op.NewVersion)
				appliedBytes += len(op.Value)
			case wire.BatchDelete:
				d.store.delete(op.Key)
			}
		}
		applied++
	}
	if applied > 0 {
		// The single amortized media wait shared by every committed
		// group in this batch.
		d.waitMedia(OpWrite, appliedBytes)
	}
}

// Range reply bounds. rangeKeyCap is the Kinetic cap on keys per
// response. rangeReplyBudget bounds a reply's key and value bytes,
// leaving the other half of wire.MaxMessageSize to field headers and
// to a first entry that is itself a near-frame-size record: a reply
// over either bound is cut and marked Truncated, so a range over 1 MiB
// object records is a short reply, never a frame that cannot be sent.
const (
	rangeKeyCap      = 800
	rangeReplyBudget = wire.MaxMessageSize / 2
)

// handleRange copies each key, and with values each value, into out.
func (d *Drive) handleRange(acct wire.ACL, req, resp *wire.Message, out *reply) {
	// Values are a bulk read: they need the permission a GET needs.
	if !permitted(acct, wire.PermRange, resp) || (req.WithValues && !permitted(acct, wire.PermRead, resp)) {
		d.stats.Rejected.Add(1)
		return
	}
	d.stats.Ranges.Add(1)
	max := int(req.MaxReturned)
	if max <= 0 || max > rangeKeyCap {
		max = rangeKeyCap
	}
	size, taken := 0, 0 // key bytes, plus value bytes when values go out
	// One entry past max tells a reply that was cut from one that ends
	// where the range does.
	resp.Keys, resp.Values = d.store.scan(req.StartKey, req.EndKey, req.KeyInclusive, req.Reverse, req.WithValues, max+1, out,
		func(n int) bool {
			// The first entry always goes out, so a caller resuming
			// past it makes progress; whatever was put fits a frame.
			if taken == max || (taken > 0 && size+n > rangeReplyBudget) {
				resp.Truncated = true
				return false
			}
			size += n
			taken++
			return true
		})
	// A keys-only range is an index walk; values are read off the media.
	if !req.WithValues {
		size = 0
	}
	d.waitMedia(OpScan, size)
	if fs := d.faults.Load(); fs != nil {
		fs.lieAboutRange(req, resp)
	}
}

// handleSecurity replaces the entire account table, exactly the
// takeover primitive the Pesos bootstrap needs: installing a new ACL
// set without the old admin account locks everyone else out.
func (d *Drive) handleSecurity(acct wire.ACL, req, resp *wire.Message) {
	if !permitted(acct, wire.PermSecurity, resp) {
		d.stats.Rejected.Add(1)
		return
	}
	if len(req.ACLs) == 0 {
		resp.Status = wire.StatusInvalidRequest
		resp.StatusMsg = "refusing to install empty account table"
		return
	}
	for _, a := range req.ACLs {
		if a.Identity == "" || len(a.Key) < 8 {
			resp.Status = wire.StatusInvalidRequest
			resp.StatusMsg = "account needs identity and >=8 byte key"
			return
		}
	}
	d.mu.Lock()
	d.accounts = make(map[string]*account, len(req.ACLs))
	for _, a := range req.ACLs {
		d.accounts[a.Identity] = newAccount(a)
	}
	if len(req.Pin) > 0 {
		d.erasePIN = append([]byte(nil), req.Pin...)
	}
	d.mu.Unlock()
}

func (d *Drive) handleErase(acct wire.ACL, req, resp *wire.Message) {
	if !permitted(acct, wire.PermSecurity, resp) {
		d.stats.Rejected.Add(1)
		return
	}
	d.mu.RLock()
	pin := d.erasePIN
	d.mu.RUnlock()
	if len(pin) > 0 && !bytes.Equal(pin, req.Pin) {
		resp.Status = wire.StatusNotAuthorized
		resp.StatusMsg = "bad erase PIN"
		return
	}
	// The erase is a store mutation like any other: it must not land
	// between a batch group's validation and its apply.
	d.storeMu.Lock()
	d.store.clear()
	d.storeMu.Unlock()
	d.setLocked(false)
}

func (d *Drive) handleP2P(acct wire.ACL, req, resp *wire.Message, out *reply) {
	if !permitted(acct, wire.PermP2P, resp) {
		d.stats.Rejected.Add(1)
		return
	}
	if d.p2pDial == nil {
		resp.Status = wire.StatusNotAttempted
		resp.StatusMsg = "p2p not configured"
		return
	}
	d.stats.P2PPushes.Add(1)
	value, version, ok := d.store.get(req.Key, out)
	if !ok {
		resp.Status = wire.StatusNotFound
		return
	}
	// The paper notes the P2P API's limited performance (§6.3): model
	// it as a full read plus a peer write.
	d.waitMedia(OpRead, len(value))
	target, err := d.p2pDial(req.Peer)
	if err != nil {
		resp.Status = wire.StatusNotAttempted
		resp.StatusMsg = err.Error()
		return
	}
	if err := target.P2PPut(req.Key, value, version); err != nil {
		resp.Status = wire.StatusInternalError
		resp.StatusMsg = err.Error()
	}
}

func (d *Drive) handleGetLog(acct wire.ACL, req, resp *wire.Message) {
	if !permitted(acct, wire.PermGetLog, resp) {
		d.stats.Rejected.Add(1)
		return
	}
	resp.Log = map[string]string{
		"name":    d.name,
		"media":   d.media.Name(),
		"keys":    fmt.Sprint(d.store.len()),
		"bytes":   fmt.Sprint(d.store.sizeBytes()),
		"gets":    fmt.Sprint(d.stats.Gets.Load()),
		"puts":    fmt.Sprint(d.stats.Puts.Load()),
		"deletes": fmt.Sprint(d.stats.Deletes.Load()),
	}
}

func (d *Drive) handleGetVersion(acct wire.ACL, req, resp *wire.Message, out *reply) {
	if !permitted(acct, wire.PermRead, resp) {
		d.stats.Rejected.Add(1)
		return
	}
	version, ok := d.store.version(req.Key, out)
	if !ok {
		resp.Status = wire.StatusNotFound
		return
	}
	resp.Key = req.Key
	resp.DBVersion = version
}

// P2PPut implements P2PTarget so a Drive can be the direct destination
// of another drive's push in in-process clusters. It takes the store
// lock like every other mutation so a push cannot interleave inside an
// batch group's validate-then-apply window.
func (d *Drive) P2PPut(key, value, version []byte) error {
	d.storeMu.Lock()
	defer d.storeMu.Unlock()
	d.waitMedia(OpWrite, len(value))
	d.store.put(key, value, version)
	return nil
}

func (d *Drive) waitMedia(op OpKind, n int) { d.waitMediaOps(op, 1, n) }

// waitMediaOps is waitMedia for ops operations one request serves (see
// HDDMedia.WaitOps).
func (d *Drive) waitMediaOps(op OpKind, ops, n int) {
	reps, extra := 1, time.Duration(0)
	if fs := d.faults.Load(); fs != nil {
		if fs.cfg.SlowFactor > 1 {
			reps = fs.cfg.SlowFactor
		}
		extra = fs.cfg.ExtraDelay
	}
	if h, ok := d.media.(*HDDMedia); ok {
		for i := 0; i < reps; i++ {
			h.WaitOps(op, ops, n)
		}
	}
	if extra > 0 {
		time.Sleep(extra)
	}
}

func (d *Drive) isLocked() bool {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.locked
}

func (d *Drive) setLocked(v bool) {
	d.mu.Lock()
	d.locked = v
	d.mu.Unlock()
}

// permitted checks a permission bit and fills the response on failure.
func permitted(acct wire.ACL, p wire.Permission, resp *wire.Message) bool {
	if acct.Perms&p == 0 {
		resp.Status = wire.StatusNotAuthorized
		resp.StatusMsg = "permission denied"
		return false
	}
	return true
}

// ErrStopped is returned by the server loop after Close.
var ErrStopped = errors.New("kinetic: server stopped")
