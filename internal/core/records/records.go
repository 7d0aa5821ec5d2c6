// Package records is the controller's one way to its drives. The drives
// are outside the trusted base (docs/storage.md, "Who opens what"): only
// this package holds a drive connection, and only its read verbs turn a
// drive's bytes into records — each through the bound opener of its
// record kind, after the reply that carried them has been checked. A
// read verb takes object keys, versions and placements and returns
// opened records or elected heads; the write verbs carry what the
// controller sealed, and the account calls serve takeover and rotation.
//
//	record kind  read verb                       opener
//	head         ReadHead, HeadWave, ReadHeads,  store.Codec.DecodeMeta (elect)
//	             Heads.Elect
//	version      ReadVersion, ProbeVersion       store.Codec.DecodeVersion
//	chunk        ReadStripe, ProbeChunk          store.Codec.DecodeChunkInto
//	policy       ReadPolicy, ProbePolicy         openPolicy
package records

import (
	"context"
	"encoding/hex"
	"errors"
	"sync"
	"time"

	"repro/internal/enclave"
	"repro/internal/kinetic/kclient"
	"repro/internal/kinetic/wire"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/store"
)

// ErrNotFound and ErrNoSuchPolicy are a read's answer when every drive
// asked says the record is absent; ErrVersionMismatch is a drive's
// refusal of a compare-and-swap.
var (
	ErrNotFound        = errors.New("pesos: object not found")
	ErrNoSuchPolicy    = errors.New("pesos: unknown policy id")
	ErrVersionMismatch = kclient.ErrVersionMismatch
)

// Endpoint names one Kinetic drive (in logs and diagnostics) and how to
// reach it: Dial opens a byte stream to it (TCP+TLS or in-memory).
type Endpoint struct {
	Name string
	Dial kclient.Dialer
}

// Credentials are the account a drive's connections sign with.
type Credentials = kclient.Credentials

// Config is what the layer opens and seals with (Codec), charges each
// drive round trip's enclave tax to (Cost) and counts hedges, refused
// range replies and walk rounds widened past their cover to. HedgeDelay
// fixes the fetch engine's hedge delay; 0 selects the adaptive one.
type Config struct {
	Codec                         *store.Codec
	Cost                          *enclave.CostModel
	HedgeDelay                    time.Duration
	Hedges, RangeRejects, Widened *obs.Counter
}

// Drives is the controller's drive table: one connection pool per drive,
// indexed as placements index drives.
type Drives struct {
	cfg   Config
	pools []*pool
}

// Dial connects a pool to every endpoint with its credentials.
func Dial(ctx context.Context, cfg Config, eps []Endpoint, creds []Credentials) (*Drives, error) {
	d := &Drives{cfg: cfg}
	for i, ep := range eps {
		p, err := dialPool(ctx, ep, creds[i])
		if err != nil {
			d.Close()
			return nil, err
		}
		d.pools = append(d.pools, p)
	}
	return d, nil
}

// Len is the number of drives, Name names drive di.
func (d *Drives) Len() int           { return len(d.pools) }
func (d *Drives) Name(di int) string { return d.pools[di].name }

// Close closes every connection. The table stays in place: a writer that
// raced past a closed check fails with the connection's ErrClosed.
func (d *Drives) Close() {
	for _, p := range d.pools {
		p.close()
	}
}

// Latency is drive di's read-latency estimate: the EWMA mean, the
// running p95 and the sample count (0: no read observed yet). Failing
// reports whether its latest read round trips failed; Observe folds in
// one that took dur.
func (d *Drives) Latency(di int) (ewma, p95 time.Duration, n uint64) {
	return d.pools[di].lat.snapshot()
}
func (d *Drives) Failing(di int) bool               { return d.pools[di].lat.estimate().failing }
func (d *Drives) Observe(di int, dur time.Duration) { d.pools[di].lat.observe(dur) }

// chargeIO charges the enclave tax of one drive round trip: two
// asynchronous syscall hand-offs (send, receive) plus payload bytes
// crossing the boundary.
func (d *Drives) chargeIO(payload int) {
	d.cfg.Cost.Syscall()
	d.cfg.Cost.Syscall()
	d.cfg.Cost.MoveBytes(payload)
}

// conn charges a round trip of payload bytes and returns the connection
// of drive di that carries it.
func (d *Drives) conn(di, payload int) *kclient.Client {
	d.chargeIO(payload)
	return d.pools[di].pick()
}

// The write verbs. Batch ships ops to drive di write-through as one
// request of groups, sizes[i] ops each, each applied whole or not at all,
// and returns each group's verdict; it runs detached from any caller's
// context, on behalf of every group. Put writes blob under drive key dk
// at drive version ver, Delete removes dk (absent is no error), and Push
// has drive di copy its record dk to the drive named peer.
func (d *Drives) Batch(di int, ops []wire.BatchOp, sizes []uint32, payload int) ([]error, error) {
	return d.conn(di, payload).BatchGroups(context.Background(), ops, sizes, wire.SyncWriteThrough)
}
func (d *Drives) Put(ctx context.Context, di int, dk, blob, ver []byte) error {
	return d.conn(di, len(blob)).Put(ctx, dk, blob, nil, ver, true)
}
func (d *Drives) Delete(ctx context.Context, di int, dk []byte) error {
	return d.conn(di, 0).Delete(ctx, dk, nil, true)
}
func (d *Drives) Push(ctx context.Context, di int, dk []byte, peer string) error {
	return d.conn(di, 0).P2PPush(ctx, dk, peer)
}

// FirstOpAbsent reports whether a batch failed because its first op
// found no record to act on.
func FirstOpAbsent(err error) bool {
	var be *kclient.BatchError
	return errors.As(err, &be) && be.Index == 0 && errors.Is(err, kclient.ErrNotFound)
}

// The account calls of takeover and rotation: SetSecurity replaces drive
// di's accounts with acls; Credentials is the account its connections
// sign with, and SetCredentials switches them to creds — each returned
// channel closes once its connection's calls signed under the old ones
// have been answered.
func (d *Drives) SetSecurity(ctx context.Context, di int, acls []wire.ACL) error {
	return d.conn(di, 0).SetSecurity(ctx, acls, nil)
}
func (d *Drives) Credentials(di int) Credentials { return d.pools[di].credentials() }
func (d *Drives) SetCredentials(di int, creds Credentials) []<-chan struct{} {
	return d.pools[di].setCredentials(creds)
}

// Noop probes every drive once, within timeout each: true where the
// drive answered.
func (d *Drives) Noop(ctx context.Context, timeout time.Duration) []bool {
	up := make([]bool, len(d.pools))
	var wg sync.WaitGroup
	for di, p := range d.pools {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pctx, cancel := context.WithTimeout(ctx, timeout)
			defer cancel()
			up[di] = p.pick().Noop(pctx) == nil
		}()
	}
	wg.Wait()
	return up
}

// PolicyID is the content-addressed identifier of a compiled policy: its
// hex hash.
func PolicyID(p *policy.Program) string {
	h := p.Hash()
	return hex.EncodeToString(h[:])
}

// Fanout runs fn against every drive of placement concurrently and waits
// for all of them. It succeeds only if every call does; the failures are
// joined, so errors.Is still matches sentinels like ErrVersionMismatch.
func Fanout(placement []int, fn func(di int) error) error {
	if len(placement) == 1 {
		return fn(placement[0])
	}
	errs := make([]error, len(placement))
	var wg sync.WaitGroup
	for i, di := range placement {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = fn(di)
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// InParallel runs f(0) … f(n-1) on at most 16 goroutines — the
// concurrent reads of one multi-key request: a batch get's point reads, a
// head wave's misses, a transaction's record reads — and returns when
// every call has; a single call runs on the caller's goroutine.
func InParallel(n int, f func(i int)) {
	if n == 1 {
		f(0)
		return
	}
	var wg sync.WaitGroup
	sem := make(chan struct{}, min(max(n, 1), 16))
	for i := range n {
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			f(i)
		}()
	}
	wg.Wait()
}
