// Package kclient is the Kinetic drive client library used by the
// Pesos controller, replacing Seagate's C client (§3.1, §4.3). It
// decouples requests from responses with a pending-request table and a
// reader goroutine — the ring-buffer/thread-pool structure the paper
// describes — so many operations can be in flight on one connection.
package kclient

import (
	"bufio"
	"context"
	"crypto/tls"
	"errors"
	"fmt"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/kinetic/wire"
	"repro/internal/obs"
)

// Errors returned by the client, mapping drive status codes.
var (
	ErrNotFound        = errors.New("kinetic: key not found")
	ErrVersionMismatch = errors.New("kinetic: version mismatch")
	ErrNotAuthorized   = errors.New("kinetic: not authorized")
	ErrClosed          = errors.New("kinetic: client closed")
)

// StatusError wraps a non-OK drive status not covered by a sentinel.
type StatusError struct {
	Code wire.StatusCode
	Msg  string
}

// Error implements error.
func (e *StatusError) Error() string {
	return fmt.Sprintf("kinetic: drive status %s: %s", e.Code, e.Msg)
}

// statusToError maps a response status to a Go error.
func statusToError(m *wire.Message) error {
	switch m.Status {
	case wire.StatusOK:
		return nil
	case wire.StatusNotFound:
		return ErrNotFound
	case wire.StatusVersionMismatch:
		return ErrVersionMismatch
	case wire.StatusNotAuthorized, wire.StatusHMACFailure, wire.StatusNoSuchUser:
		return fmt.Errorf("%w: %s (%s)", ErrNotAuthorized, m.StatusMsg, m.Status)
	default:
		return &StatusError{Code: m.Status, Msg: m.StatusMsg}
	}
}

// statusOf maps a status-only reply to its error and hands the reply
// back for reuse: the error holds copies, nothing that refers into it.
func statusOf(resp *wire.Message) error {
	defer wire.ReleaseMessage(resp)
	return statusToError(resp)
}

// Dialer opens a byte stream to a drive; it abstracts TCP, TLS and the
// in-memory transport.
type Dialer func(ctx context.Context) (net.Conn, error)

// TCPDialer dials addr, wrapping the stream in TLS when cfg != nil.
func TCPDialer(addr string, cfg *tls.Config) Dialer {
	return func(ctx context.Context) (net.Conn, error) {
		var d net.Dialer
		conn, err := d.DialContext(ctx, "tcp", addr)
		if err != nil {
			return nil, err
		}
		if cfg == nil {
			return conn, nil
		}
		tc := tls.Client(conn, cfg)
		if err := tc.HandshakeContext(ctx); err != nil {
			conn.Close()
			return nil, err
		}
		return tc, nil
	}
}

// Credentials authenticate the client to the drive.
type Credentials struct {
	Identity string
	Key      []byte
}

// Client is a connection to one drive.
type Client struct {
	dial  Dialer
	creds Credentials

	mu      sync.Mutex
	conn    *link
	pending map[uint64]call
	closed  bool
	// dialing, when non-nil, gates a reconnect in flight: exactly one
	// caller dials (outside the client mutex), everyone else waits on
	// the gate with their own context and shares the dial's outcome. A
	// slow or hung redial therefore never blocks callers into an
	// uncancellable mutex wait, and a failed dial fails every waiter at
	// once instead of each re-paying a full connect timeout.
	dialing *dialGate
	// signed counts the calls signed under creds that await an answer;
	// SetCredentials starts a new count and waits out the old one.
	signed *sync.WaitGroup

	seq atomic.Uint64
}

// call is one request awaiting its response, tied to the connection it
// went out on: when that connection dies the call fails, and calls
// already riding a replacement connection do not.
type call struct {
	conn *link
	ch   chan *wire.Message
}

// link is one connection and what sending on it needs. Senders serialise
// on wmu, never on the client's state mutex: Close and the teardown of a
// dead connection take only the latter, so they can always close the
// connection under a sender blocked on a peer that stopped reading —
// which is what fails its write.
type link struct {
	net.Conn
	wmu sync.Mutex
	w   *bufio.Writer
	enc *wire.Encoder
	out int64 // bytes the connection accepted, under wmu

	// sending is the context of the caller whose send is in progress, nil
	// between sends; watch fires checkSend on one that outlasts sendGrace.
	smu     sync.Mutex
	sending context.Context
	watch   *time.Timer
}

func newLink(conn net.Conn) *link {
	l := &link{Conn: conn, enc: wire.NewEncoder()}
	l.w = bufio.NewWriterSize(l, 64<<10)
	l.watch = time.AfterFunc(time.Hour, l.checkSend)
	l.watch.Stop()
	return l
}

// sendGrace is the period of the watch on a send in progress: long for a
// live peer to take a frame — the watch never fires on a healthy
// connection, so a cancellation that merely coincides with a send cannot
// fail the other calls in flight — and short for a caller that gave up.
const sendGrace = 100 * time.Millisecond

// Write is the connection's Write, counting what it accepts.
func (l *link) Write(b []byte) (int, error) {
	n, err := l.Conn.Write(b)
	l.out += int64(n)
	return n, err
}

// send writes one signed request; on failure, unsent reports that not a
// byte of it reached the connection (a send starts with an empty
// buffer: one that fails leaves its link dead), so the drive cannot
// have seen it. A cancelled ctx ends a send blocked on a peer that
// stopped reading: the watch, armed for the length of the write (a
// timer reset and stop: no goroutine, nothing allocated), closes the
// connection under it.
func (l *link) send(ctx context.Context, req *wire.Message, key []byte) (unsent bool, err error) {
	l.wmu.Lock()
	defer l.wmu.Unlock()
	l.setSending(ctx)
	l.watch.Reset(sendGrace)
	before := l.out
	err = l.enc.WriteFrame(l.w, req, key)
	if err == nil {
		err = l.w.Flush()
	}
	l.watch.Stop()
	l.setSending(nil)
	return l.out == before, err
}

func (l *link) setSending(ctx context.Context) {
	l.smu.Lock()
	l.sending = ctx
	l.smu.Unlock()
}

// checkSend is the watch firing: a send has been in progress for a whole
// period. If its caller is gone it will not finish by itself — close the
// connection; otherwise look again a period on.
func (l *link) checkSend() {
	l.smu.Lock()
	ctx := l.sending
	l.smu.Unlock()
	switch {
	case ctx == nil: // finished as the timer fired
	case ctx.Err() != nil:
		l.Close()
	default:
		l.watch.Reset(sendGrace)
	}
}

// dialGate is one reconnect attempt: closed when the dial resolves,
// err carrying its failure (written before close, so any reader past
// the channel observes it).
type dialGate struct {
	done chan struct{}
	err  error
}

// Dial connects to a drive and starts the response reader.
func Dial(ctx context.Context, dial Dialer, creds Credentials) (*Client, error) {
	conn, err := dial(ctx)
	if err != nil {
		return nil, err
	}
	c := &Client{
		dial:    dial,
		creds:   creds,
		conn:    newLink(conn),
		pending: make(map[uint64]call),
		signed:  new(sync.WaitGroup),
	}
	go c.readLoop(c.conn)
	return c, nil
}

// SetCredentials switches the identity used for subsequent requests
// (the bootstrap switches from the factory account to the Pesos admin
// account on the same connection). The returned channel closes once
// every call signed under the replaced credentials has been answered or
// has failed: a drive that forgets the old account before then rejects
// those calls. Every call ends — answered, cancelled, or failed with its
// connection — and so does the wait behind the channel.
func (c *Client) SetCredentials(creds Credentials) <-chan struct{} {
	c.mu.Lock()
	c.creds = creds
	old := c.signed
	c.signed = new(sync.WaitGroup)
	c.mu.Unlock()
	retired := make(chan struct{})
	go func() {
		old.Wait()
		close(retired)
	}()
	return retired
}

func (c *Client) readLoop(conn *link) {
	r := bufio.NewReaderSize(conn, 64<<10)
	for {
		// The pooled message is taken once the reply's size is known,
		// so an idle connection pins no frame. It goes back when its
		// consumer releases it (Value.Release, KeyRange.Release and every
		// status-only reply); a get or version reply its caller keeps is
		// left to the collector.
		n, err := wire.PeekFrameSize(r)
		if err != nil {
			c.failAll(conn)
			return
		}
		resp := wire.TakeMessage(n)
		if err := wire.ReadFrame(r, resp); err != nil {
			c.failAll(conn)
			return
		}
		c.mu.Lock()
		p, ok := c.pending[resp.Seq]
		delete(c.pending, resp.Seq)
		c.mu.Unlock()
		if ok {
			p.ch <- resp
		}
	}
}

// failAll unblocks every call pending on a failed connection and closes
// it (a frame that does not decode leaves the stream unusable even
// though the transport is up). Calls on a replacement connection a
// racing reconnect already installed are left alone, as is the
// client's connection unless it is still the failed one.
func (c *Client) failAll(failed *link) {
	failed.Close()
	c.mu.Lock()
	var lost []chan *wire.Message
	for seq, p := range c.pending {
		if p.conn == failed {
			delete(c.pending, seq)
			lost = append(lost, p.ch)
		}
	}
	if c.conn == failed {
		c.conn = nil
	}
	c.mu.Unlock()
	for _, ch := range lost {
		close(ch)
	}
}

// ensureConn returns with c.mu held and a live connection installed,
// reconnecting if necessary. The dial itself runs outside the mutex
// behind a single-dialer gate: one caller redials, concurrent callers
// wait on the gate with their own contexts, and operations on other
// connections (SetCredentials, Close, racing round trips) are never
// blocked behind a slow dial.
func (c *Client) ensureConn(ctx context.Context) error {
	for {
		c.mu.Lock()
		if c.closed {
			c.mu.Unlock()
			return ErrClosed
		}
		if c.conn != nil {
			return nil // mutex stays held for the caller
		}
		if c.dialing != nil {
			gate := c.dialing
			c.mu.Unlock()
			select {
			case <-gate.done:
				if gate.err != nil && !errors.Is(gate.err, context.Canceled) &&
					!errors.Is(gate.err, context.DeadlineExceeded) {
					// The attempt this caller was waiting on failed;
					// share its error rather than serially re-dialing
					// a down drive once per waiter. A leader whose own
					// context expired says nothing about the drive, so
					// that case loops and retries instead.
					return gate.err
				}
				continue // re-check, or retry the dial ourselves
			case <-ctx.Done():
				return ctx.Err()
			}
		}
		gate := &dialGate{done: make(chan struct{})}
		c.dialing = gate
		c.mu.Unlock()

		conn, err := c.dial(ctx)

		c.mu.Lock()
		c.dialing = nil
		gate.err = err
		close(gate.done)
		if err != nil {
			c.mu.Unlock()
			return err
		}
		if c.closed {
			c.mu.Unlock()
			conn.Close()
			return ErrClosed
		}
		c.conn = newLink(conn)
		go c.readLoop(c.conn)
		return nil // mutex stays held for the caller
	}
}

// roundTrip signs req, sends it, and waits for the matching response.
// The context's trace id (if any) rides the wire message so a frame
// capture or drive-side log pairs up with the controller's trace; the
// drive's reported service time comes back as a span on that trace.
func (c *Client) roundTrip(ctx context.Context, req *wire.Message) (*wire.Message, error) {
	req.Seq = c.seq.Add(1)
	req.TraceID = obs.TraceID(ctx)
	started := time.Now()
	resp, err := c.exchange(ctx, req, true)
	if err != nil {
		return nil, err
	}
	if resp.ServiceUs != 0 && obs.Recording(ctx) {
		// Attribute the drive's own service time (media wait included)
		// under the current span; the remainder of the round trip is
		// network and queueing.
		obs.RecordSpan(ctx, "drive", started,
			time.Since(started),
			obs.Attr{Key: "media_us", Value: strconv.FormatUint(uint64(resp.ServiceUs), 10)},
			obs.Attr{Key: "op", Value: req.Type.String()})
	}
	return resp, nil
}

// exchange sends req on the live connection and waits for its answer.
// A connection closed under the client — by a cut its reader has not
// yet seen — fails the send before a byte of req reaches it; with redial
// set, req then goes once more on a fresh connection, since the drive
// cannot have seen it. A request whose bytes the drive may have seen is
// never sent again.
func (c *Client) exchange(ctx context.Context, req *wire.Message, redial bool) (*wire.Message, error) {
	// ensureConn returns holding c.mu with a live connection.
	if err := c.ensureConn(ctx); err != nil {
		return nil, err
	}
	conn, key, signed := c.conn, c.creds.Key, c.signed
	req.User = c.creds.Identity
	signed.Add(1)
	defer signed.Done()
	ch := make(chan *wire.Message, 1)
	c.pending[req.Seq] = call{conn: conn, ch: ch}
	c.mu.Unlock()

	if unsent, err := conn.send(ctx, req, key); err != nil {
		// Drop the dead connection so the next call redials.
		c.failAll(conn)
		switch {
		case ctx.Err() != nil:
			return nil, ctx.Err()
		case unsent && redial:
			return c.exchange(ctx, req, false)
		}
		return nil, err
	}

	select {
	case resp, ok := <-ch:
		if !ok {
			return nil, errors.New("kinetic: connection lost")
		}
		return resp, nil
	case <-ctx.Done():
		c.mu.Lock()
		delete(c.pending, req.Seq)
		c.mu.Unlock()
		return nil, ctx.Err()
	}
}

// Value is a drive's reply to one get.
type Value struct {
	Value   []byte
	Version []byte // the stored version

	reply *wire.Message
}

// Release hands the reply's frame back for a later reply to reuse.
// Optional — an unreleased Value is ordinary garbage — but after it
// neither v.Value nor v.Version may be used.
func (v Value) Release() { wire.ReleaseMessage(v.reply) }

// GetValue fetches value and stored version for key as a releasable
// reply: a caller that decodes the value into storage of its own hands
// the frame back as soon as it has.
func (c *Client) GetValue(ctx context.Context, key []byte) (Value, error) {
	resp, err := c.roundTrip(ctx, &wire.Message{Type: wire.TGet, Key: key})
	if err != nil {
		return Value{}, err
	}
	if err := statusToError(resp); err != nil {
		return Value{}, err
	}
	return Value{Value: resp.Value, Version: resp.DBVersion, reply: resp}, nil
}

// Get is GetValue for callers that keep what it returns.
func (c *Client) Get(ctx context.Context, key []byte) (value, version []byte, err error) {
	v, err := c.GetValue(ctx, key)
	return v.Value, v.Version, err
}

// Put stores key/value. dbVersion must match the stored version (nil
// for create); newVersion is installed. force skips the check.
func (c *Client) Put(ctx context.Context, key, value, dbVersion, newVersion []byte, force bool) error {
	resp, err := c.roundTrip(ctx, &wire.Message{
		Type: wire.TPut, Key: key, Value: value,
		DBVersion: dbVersion, NewVersion: newVersion, Force: force,
	})
	if err != nil {
		return err
	}
	return statusOf(resp)
}

// BatchError identifies the sub-operation that caused a batch group's
// rejection. errors.Is sees through it to the underlying sentinel
// (e.g. ErrVersionMismatch).
type BatchError struct {
	Index int // index into the submitted sub-operation slice
	Err   error
}

// Error implements error.
func (e *BatchError) Error() string {
	return fmt.Sprintf("kinetic: batch sub-op %d: %v", e.Index, e.Err)
}

// Unwrap exposes the underlying cause.
func (e *BatchError) Unwrap() error { return e.Err }

// BatchGroups submits a grouped batch: ops is the concatenation of
// per-group sub-operation runs and sizes gives each group's length.
// The drive validates and applies every group independently under one
// amortized media wait — a group failing its compare-and-swap is
// skipped without aborting its neighbours. The returned slice has one
// entry per group: nil for a committed group, or a *BatchError whose
// Index is the failing sub-operation's offset within that group. The
// error return covers transport and whole-message failures only.
//
// Every batch is write-through. The unnamed SyncMode parameter stays
// because benchmark/pure.go passes wire.SyncWriteThrough.
func (c *Client) BatchGroups(ctx context.Context, ops []wire.BatchOp, sizes []uint32, _ wire.SyncMode) ([]error, error) {
	resp, err := c.roundTrip(ctx, &wire.Message{
		Type: wire.TBatch, Batch: ops, GroupSizes: sizes,
	})
	if err != nil {
		return nil, err
	}
	defer wire.ReleaseMessage(resp) // every verdict below is copied out of it
	if err := statusToError(resp); err != nil {
		return nil, err // a whole-message rejection: bad HMAC, malformed groups
	}
	if len(resp.GroupStatus) != len(sizes) {
		return nil, fmt.Errorf("kinetic: grouped batch answered %d statuses for %d groups",
			len(resp.GroupStatus), len(sizes))
	}
	out := make([]error, len(sizes))
	for gi, gs := range resp.GroupStatus {
		if gs.Status == wire.StatusOK {
			continue
		}
		m := wire.Message{Status: gs.Status, StatusMsg: gs.StatusMsg}
		out[gi] = &BatchError{Index: int(gs.FailedIndex), Err: statusToError(&m)}
	}
	return out, nil
}

// Delete removes key; dbVersion must match unless force.
func (c *Client) Delete(ctx context.Context, key, dbVersion []byte, force bool) error {
	resp, err := c.roundTrip(ctx, &wire.Message{
		Type: wire.TDelete, Key: key, DBVersion: dbVersion, Force: force,
	})
	if err != nil {
		return err
	}
	return statusOf(resp)
}

// KeyRange is a drive's reply to one range request.
type KeyRange struct {
	Keys [][]byte
	// Values is parallel to Keys when values were asked for, else nil.
	Values [][]byte
	// Truncated reports that the drive cut the reply (its key cap or
	// its reply byte budget): the range holds more keys past the last
	// one returned.
	Truncated bool

	reply *wire.Message
}

// Release hands the reply's buffers back for a later reply to reuse.
// Optional — an unreleased KeyRange is ordinary garbage — but after it
// no key or value of kr may be used.
func (kr KeyRange) Release() { wire.ReleaseMessage(kr.reply) }

// Range lists up to max entries in [start, end]; empty end means to the
// last key. startInclusive includes start itself. withValues asks for
// each key's value beside it, which costs the account PermRead on top of
// PermRange and the reply the values' bytes — for metadata-sized records,
// not for draining a range of 1 MiB object records.
func (c *Client) Range(ctx context.Context, start, end []byte, startInclusive, reverse bool, max int, withValues bool) (KeyRange, error) {
	resp, err := c.roundTrip(ctx, &wire.Message{
		Type: wire.TGetKeyRange, StartKey: start, EndKey: end,
		KeyInclusive: startInclusive, Reverse: reverse, MaxReturned: uint32(max),
		WithValues: withValues,
	})
	if err != nil {
		return KeyRange{}, err
	}
	if err := statusToError(resp); err != nil {
		return KeyRange{}, err
	}
	if withValues && len(resp.Values) != len(resp.Keys) {
		return KeyRange{}, fmt.Errorf("kinetic: range answered %d values for %d keys", len(resp.Values), len(resp.Keys))
	}
	return KeyRange{Keys: resp.Keys, Values: resp.Values, Truncated: resp.Truncated, reply: resp}, nil
}

// GetKeyRange is the keys-only Range for callers that do not follow a
// truncated reply.
func (c *Client) GetKeyRange(ctx context.Context, start, end []byte, startInclusive, reverse bool, max int) ([][]byte, error) {
	r, err := c.Range(ctx, start, end, startInclusive, reverse, max, false)
	return r.Keys, err
}

// Many is a drive's reply to one multi-key read: Keys, Values and Found
// are parallel, and answer the asked keys the drive got to. Nothing
// here is checked against what was asked — that is the caller's to do.
type Many struct {
	Keys   [][]byte
	Values [][]byte
	Found  []bool
	// Truncated reports that the drive cut the reply at its byte budget:
	// it answers fewer keys than were asked.
	Truncated bool

	reply *wire.Message
}

// Release hands the reply's buffers back for a later reply to reuse.
// Optional, as for KeyRange.Release; after it no key or value of m may
// be used.
func (m Many) Release() { wire.ReleaseMessage(m.reply) }

// GetMany reads up to wire.MaxBatchOps keys in one round trip. It costs
// the account PermRead, and the drive a media read per key answered.
func (c *Client) GetMany(ctx context.Context, keys [][]byte) (Many, error) {
	if len(keys) == 0 || len(keys) > wire.MaxBatchOps {
		return Many{}, fmt.Errorf("kinetic: a multi-key read asks 1..%d keys, not %d", wire.MaxBatchOps, len(keys))
	}
	resp, err := c.roundTrip(ctx, &wire.Message{Type: wire.TGetMany, Keys: keys})
	if err != nil {
		return Many{}, err
	}
	err = statusToError(resp)
	if err == nil && (len(resp.Values) != len(resp.Keys) || len(resp.Found) != len(resp.Keys)) {
		err = fmt.Errorf("kinetic: multi-key read answered %d keys with %d values and %d found marks",
			len(resp.Keys), len(resp.Values), len(resp.Found))
	}
	if err != nil {
		wire.ReleaseMessage(resp)
		return Many{}, err
	}
	return Many{Keys: resp.Keys, Values: resp.Values, Found: resp.Found, Truncated: resp.Truncated, reply: resp}, nil
}

// GetVersion fetches only the stored version of key.
func (c *Client) GetVersion(ctx context.Context, key []byte) ([]byte, error) {
	resp, err := c.roundTrip(ctx, &wire.Message{Type: wire.TGetVersion, Key: key})
	if err != nil {
		return nil, err
	}
	if err := statusToError(resp); err != nil {
		return nil, err
	}
	return resp.DBVersion, nil
}

// SetSecurity replaces the drive's account table, optionally setting
// an erase PIN. The issuing identity needs the SECURITY permission.
func (c *Client) SetSecurity(ctx context.Context, acls []wire.ACL, pin []byte) error {
	resp, err := c.roundTrip(ctx, &wire.Message{Type: wire.TSecurity, ACLs: acls, Pin: pin})
	if err != nil {
		return err
	}
	return statusOf(resp)
}

// InstantErase wipes the drive.
func (c *Client) InstantErase(ctx context.Context, pin []byte) error {
	resp, err := c.roundTrip(ctx, &wire.Message{Type: wire.TErase, Pin: pin})
	if err != nil {
		return err
	}
	return statusOf(resp)
}

// Noop verifies connectivity and credentials.
func (c *Client) Noop(ctx context.Context) error {
	resp, err := c.roundTrip(ctx, &wire.Message{Type: wire.TNoop})
	if err != nil {
		return err
	}
	return statusOf(resp)
}

// P2PPush asks the drive to copy key directly to the peer drive.
func (c *Client) P2PPush(ctx context.Context, key []byte, peer string) error {
	resp, err := c.roundTrip(ctx, &wire.Message{Type: wire.TP2PPush, Key: key, Peer: peer})
	if err != nil {
		return err
	}
	return statusOf(resp)
}

// GetLog returns drive status and statistics.
func (c *Client) GetLog(ctx context.Context) (map[string]string, error) {
	resp, err := c.roundTrip(ctx, &wire.Message{Type: wire.TGetLog})
	if err != nil {
		return nil, err
	}
	if err := statusToError(resp); err != nil {
		return nil, err
	}
	return resp.Log, nil
}

// Close tears down the connection; pending calls fail.
func (c *Client) Close() error {
	c.mu.Lock()
	c.closed = true
	conn := c.conn
	c.mu.Unlock()
	if conn != nil {
		return conn.Close()
	}
	return nil
}
