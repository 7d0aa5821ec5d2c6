// Replication engine: atomic batched writes fanned out to every
// placement replica concurrently (§3.2 steps 4–7, §4.5).
//
// The write path commits an object record *and* its metadata record to
// every replica. Doing that as independent round trips has two costs:
// latency grows as replicas × 2 RTT, and a failure between the two
// puts strands an object version without its metadata (or worse, fresh
// metadata pointing at a missing record). Here each replica instead
// receives ONE atomic batch carrying both records — the drive applies
// all sub-operations or none — and all replicas are written
// concurrently, so write-through latency is the maximum replica RTT
// rather than the sum, and object/meta can never diverge on a drive.
//
// Reads are latency-aware hedged reads: the replica with the lowest
// observed latency is asked first and a hedge to the next replica
// fires only after an adaptive delay (~p95 of the outstanding
// replica's latency), so the common-case read occupies one drive's
// media while a slow or dead replica still gets covered within the
// hedge delay. Semantics: success first-wins, absence needs
// unanimity, mixed not-found/error surfaces the error.
package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/kinetic/kclient"
	"repro/internal/kinetic/wire"
	"repro/internal/obs"
	"repro/internal/store"
)

// fanout runs fn against every placement drive concurrently and waits
// for all of them. The operation succeeds only if every replica
// succeeds (the paper's write-through replication, §4.5); individual
// failures are aggregated so errors.Is still matches sentinels like
// kclient.ErrVersionMismatch.
func (c *Controller) fanout(placement []int, fn func(di int) error) error {
	if len(placement) == 1 {
		return fn(placement[0])
	}
	errs := make([]error, len(placement))
	var wg sync.WaitGroup
	for i, di := range placement {
		wg.Add(1)
		go func(i, di int) {
			defer wg.Done()
			errs[i] = fn(di)
		}(i, di)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// forEach runs fn over items on at most 8 goroutines at a time — per-key
// work over a set too large to give fanout's goroutine each — and
// returns the first error any call reported, after all of them ended.
func forEach[T any](items []T, fn func(T) error) error {
	sem := make(chan struct{}, 8)
	errc := make(chan error, 1)
	var wg sync.WaitGroup
	for _, it := range items {
		wg.Add(1)
		sem <- struct{}{}
		go func(it T) {
			defer wg.Done()
			defer func() { <-sem }()
			if err := fn(it); err != nil {
				select {
				case errc <- err:
				default:
				}
			}
		}(it)
	}
	wg.Wait()
	select {
	case err := <-errc:
		return err
	default:
		return nil
	}
}

// readReplicas runs a replicated read through the hedged primary-first
// engine and feeds completed round trips into the per-drive latency
// estimators. A drive's answer counts as a latency sample whether it
// found the record or not; a transport failure does not (it says
// nothing about the medium).
//
// The placement is resolved to pool pointers before any goroutine
// launches: a straggler read may be scheduled after the winner
// returned — even after the controller shut down and dropped its
// drive table — and must never index controller state.
func readReplicas[T any](ctx context.Context, c *Controller, placement []int, read func(ctx context.Context, p *drivePool) (T, error)) (T, error) {
	pools := make([]*drivePool, len(placement))
	for i, di := range placement {
		pools[i] = c.drives[di]
	}
	if len(pools) == 1 {
		// Nothing to hedge to: one direct timed read.
		t0 := time.Now()
		v, err := read(ctx, pools[0])
		recordOutcome(pools[0], time.Since(t0), err)
		return v, err
	}
	return readHedged(ctx, c, pools, read)
}

// recordOutcome feeds one completed round trip into a pool's latency
// estimator: answers (found or authoritative not-found) are latency
// samples, transport failures count toward the failing demotion, and
// cancelled reads (by a winner or the caller) say nothing about the
// medium.
func recordOutcome(p *drivePool, elapsed time.Duration, err error) {
	switch {
	case err == nil || isAbsent(err):
		p.observe(elapsed)
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
	default:
		p.observeFailure()
	}
}

// isAbsent reports a drive's authoritative "no such record": of an
// object, or of a policy.
func isAbsent(err error) bool {
	return errors.Is(err, ErrNotFound) || errors.Is(err, ErrNoSuchPolicy)
}

// Hedge-delay bounds. Until a drive has enough samples the engine
// hedges after a conservative default; the adaptive delay (~1.25×
// the outstanding drive's p95) is clamped so a noisy estimate can
// neither busy-hedge the media nor leave a dead replica uncovered.
const (
	defaultHedgeDelay = 2 * time.Millisecond
	minHedgeDelay     = 100 * time.Microsecond
	maxHedgeDelay     = 50 * time.Millisecond
	hedgeWarmup       = 16 // samples before the adaptive delay engages
)

// hedgeDelay returns how long to wait on a drive pool before hedging
// to the next replica.
func (c *Controller) hedgeDelay(p *drivePool) time.Duration {
	if c.cfg.HedgeDelay > 0 {
		return c.cfg.HedgeDelay
	}
	_, p95, n := p.latency()
	if n < hedgeWarmup {
		return defaultHedgeDelay
	}
	d := p95 + p95/4
	return min(max(d, minHedgeDelay), maxHedgeDelay)
}

// orderByLatency returns the pools sorted fastest-first by observed
// EWMA read latency. Drives with no samples yet sort first: they get
// explored as primaries until an estimate exists, after which the
// ordering self-corrects within a few reads of any latency shift.
// Drives whose latest round trips failed sort last regardless of
// their estimate — a dead drive never completes a read, so latency
// samples alone could never demote it, and every read would pay the
// hedge delay before reaching a healthy replica.
func orderByLatency(pools []*drivePool) []*drivePool {
	out := slices.Clone(pools)
	type rank struct {
		failing bool
		ewma    time.Duration
	}
	ranks := make(map[*drivePool]rank, len(out))
	for _, p := range out {
		r := rank{failing: p.failing()}
		if e, _, n := p.latency(); n > 0 {
			r.ewma = e
		}
		ranks[p] = r
	}
	sort.SliceStable(out, func(i, j int) bool {
		ri, rj := ranks[out[i]], ranks[out[j]]
		if ri.failing != rj.failing {
			return !ri.failing
		}
		return ri.ewma < rj.ewma
	})
	return out
}

// readHedged is the latency-aware primary-first read engine: the
// fastest replica is asked first and a hedge to the next-fastest
// fires only once the outstanding replica has been quiet for its own
// adaptive delay. The first success wins and cancels the stragglers. A
// replica reporting not-found is only believed once every replica has
// answered and none failed outright — a degraded replica that lost a
// record (pre-repair) must not shadow a healthy copy, and an
// unreachable replica means "don't know", so a mixed not-found/error
// outcome surfaces the error rather than affirming absence. Absence
// and hard errors therefore consult all remaining replicas immediately
// rather than waiting out hedge delays.
func readHedged[T any](ctx context.Context, c *Controller, pools []*drivePool, read func(ctx context.Context, p *drivePool) (T, error)) (T, error) {
	var zero T
	order := orderByLatency(pools)
	rctx, cancel := context.WithCancel(ctx)
	defer cancel()
	type result struct {
		val T
		err error
		idx int // index into order
	}
	ch := make(chan result, len(order))
	starts := make([]time.Time, len(order))
	done := make([]bool, len(order))
	launched := 0
	launch := func() {
		i, p := launched, order[launched]
		starts[i] = time.Now()
		launched++
		go func() {
			v, err := read(rctx, p)
			ch <- result{v, err, i}
		}()
	}
	launch()
	var notFound, lastErr error
	for answered := 0; answered < len(order); {
		var timer *time.Timer
		var hedge <-chan time.Time
		if launched < len(order) {
			timer = time.NewTimer(c.hedgeDelay(order[launched-1]))
			hedge = timer.C
		}
		select {
		case r := <-ch:
			if timer != nil {
				timer.Stop()
			}
			answered++
			done[r.idx] = true
			// Each physical read contributes exactly one estimator
			// sample, recorded here rather than in the read goroutine:
			// a straggler completing after the winner returned is
			// already charged below and must not be counted twice.
			recordOutcome(order[r.idx], time.Since(starts[r.idx]), r.err)
			if r.err == nil {
				// Outlived drives launched before the winner got a head
				// start and still lost: charge them their elapsed time
				// as a latency sample. Without this, a degraded primary
				// whose reads always lose the hedge race would never
				// complete a round trip, never update its estimate, and
				// keep its primary slot forever.
				for i := 0; i < r.idx; i++ {
					if !done[i] {
						done[i] = true
						order[i].observe(time.Since(starts[i]))
					}
				}
				return r.val, nil
			}
			switch {
			case isAbsent(r.err):
				notFound = r.err
			case errors.Is(r.err, context.Canceled) && ctx.Err() == nil:
				// A straggler cancelled after the winner returned;
				// never the answer.
			default:
				lastErr = r.err
			}
			// Absence needs unanimity and a failure demands immediate
			// failover: every remaining replica is consulted now.
			for launched < len(order) {
				launch()
			}
		case <-hedge:
			c.stats.ReadHedges.Inc()
			launch()
		case <-ctx.Done():
			if timer != nil {
				timer.Stop()
			}
			return zero, ctx.Err()
		}
	}
	if notFound != nil && lastErr == nil {
		return zero, notFound
	}
	return zero, lastErr
}

// replicaWrite is one staged write: the new head of a key and the two
// drive records — object record and metadata record — that must commit
// together on every replica.
type replicaWrite struct {
	rec     *store.Record // new head (a chunk stub has no payload); published on commit
	prev    []byte        // meta CAS token; nil on creation
	blob    []byte        // encoded object record
	metaRec []byte        // marshalled metadata
}

// stage is the one place a write becomes drive records: the new head's
// metadata and payload are encoded into the object record and the
// metadata record, the latter guarded by compare-and-swap against the
// version prev holds (nil: creation). Planning — the next version, the
// policy checks, the policy the head carries — is the caller's: put and
// batch plan under the stripe locks, a transaction under its VLL locks,
// a streamed upload re-plans at commitStream.
func (c *Controller) stage(prev *store.Meta, m store.Meta, payload []byte) (*replicaWrite, error) {
	rec := &store.Record{Meta: m, Payload: payload}
	blob, err := c.codec.EncodeRecord(rec)
	if err != nil {
		return nil, err
	}
	c.cost.MoveBytes(len(payload)) // request payload crosses into the enclave
	w := &replicaWrite{rec: rec, blob: blob, metaRec: m.Marshal()}
	if prev != nil {
		w.prev = encodeVer(prev.Version)
	}
	return w, nil
}

// appendBatchOps appends the write's atomic sub-operation pair — the
// group every replica receives — to dst: object record first
// (content-addressed by version, forced), then the metadata record
// guarded by compare-and-swap against concurrent controllers.
func (w *replicaWrite) appendBatchOps(dst []wire.BatchOp) []wire.BatchOp {
	key, next := w.rec.Meta.Key, encodeVer(w.rec.Meta.Version)
	return append(dst,
		wire.BatchOp{Op: wire.BatchPut, Key: store.ObjectKey(key, w.rec.Meta.Version), Value: w.blob,
			NewVersion: next, Force: true},
		wire.BatchOp{Op: wire.BatchPut, Key: store.MetaKey(key), Value: w.metaRec,
			DBVersion: w.prev, NewVersion: next})
}

// replicationFailed maps a replication error for the client and drops
// the affected keys' cached metadata: a partial failure may have
// advanced (or destroyed) state on some replicas past what the cache
// holds, so readers must re-read drive state; a metadata CAS conflict
// becomes the client-visible version error.
func (c *Controller) replicationFailed(err error, keys ...string) error {
	if err == nil {
		return nil
	}
	for _, k := range keys {
		c.metaCache.Remove(k)
	}
	if errors.Is(err, kclient.ErrVersionMismatch) {
		return fmt.Errorf("%w: concurrent update detected", ErrBadVersion)
	}
	return err
}

// commit is the write path's one way to the drives and back (§3.2 steps
// 6–7): it persists any n ≥ 1 staged writes on every replica and then
// publishes them. A single put is a batch of one; a transaction commit
// is a batch that planned itself.
//
// The writes are grouped by placement drive so each drive receives as
// few sub-operation groups as possible (an object+meta pair never splits
// across groups — the drive applies both or neither, so object and
// metadata cannot diverge on a replica), and the per-drive streams run
// concurrently: latency is the slowest replica's round trip, shared with
// whatever other clients' writes the drive's group scheduler merged
// alongside. sync selects the durability each group ships with; the
// group committer destages write-back groups with a trailing flush.
//
// Callers hold the keys' stripe locks and the shard gate across the
// call. The cache publish happens under them — a concurrent writer must
// not interleave a newer cache entry between the drive commit and the
// publish — and a failure invalidates every touched key's metadata
// before returning. The meta compare-and-swap tokens remain as the
// cross-controller backstop.
func (c *Controller) commit(ctx context.Context, writes []*replicaWrite, sync wire.SyncMode) error {
	perDrive := make([][]wire.BatchOp, len(c.drives))
	var drives []int
	keys := make([]string, len(writes))
	for i, w := range writes {
		keys[i] = w.rec.Meta.Key
		for _, di := range c.placement(keys[i]) {
			if perDrive[di] == nil {
				drives = append(drives, di)
			}
			perDrive[di] = w.appendBatchOps(perDrive[di])
		}
	}
	sctx, span := obs.StartSpan(ctx, "replicate")
	span.Attr("replicas", strconv.Itoa(len(drives)))
	err := c.fanout(drives, func(di int) error {
		// Chunk on the batch-op cap and the frame size, keeping each
		// object+meta pair in one atomic group.
		for ops := perDrive[di]; len(ops) > 0; {
			n, bytes := 0, 0
			for n < len(ops) && n+2 <= wire.MaxBatchOps {
				sz := len(ops[n].Value) + len(ops[n+1].Value)
				if n > 0 && bytes+sz > store.MaxObjectSize {
					break
				}
				bytes += sz
				n += 2
			}
			if err := c.driveBatch(sctx, di, ops[:n], bytes, sync); err != nil {
				return fmt.Errorf("core: write batch to drive %s: %w", c.drives[di].name, err)
			}
			ops = ops[n:]
		}
		return nil
	})
	span.End()
	if err != nil {
		return c.replicationFailed(err, keys...)
	}
	var bytes uint64
	for _, w := range writes {
		m := w.rec.Meta // a copy: a cached meta must not pin the record's payload
		c.metaCache.Put(m.Key, &m)
		c.objectCache.Put(string(store.ObjectKey(m.Key, m.Version)), w.rec)
		c.noteWrite(m.Key, int(m.Size))
		bytes += uint64(m.Size)
	}
	c.stats.Puts.Add(uint64(len(writes)))
	c.stats.WriteBytes.Add(bytes)
	return nil
}

// deleteReplica removes every stored version of key — object records
// and streamed chunk records — plus its metadata on one drive,
// batched: the metadata delete leads the first batch so its
// compare-and-swap guard rejects the whole destruction if a
// concurrent controller bumped the object — before any record is lost
// (the serial scheme only noticed after the records were gone). guard
// is the metadata version the delete must still find; nil forces it
// (release after a handoff: the range was frozen and ownership is gone,
// there is no concurrent writer to respect).
func (c *Controller) deleteReplica(ctx context.Context, di int, key string, guard []byte) error {
	start, end := store.ObjectKeyRange(key)
	keys, err := c.rangeAll(ctx, c.drives[di], start, end)
	if err != nil {
		return err
	}
	cstart, cend := store.ChunkKeyRange(key)
	chunkKeys, err := c.rangeAll(ctx, c.drives[di], cstart, cend)
	if err != nil {
		return err
	}
	keys = append(keys, chunkKeys...)
	ops := make([]wire.BatchOp, 0, len(keys)+1)
	ops = append(ops, wire.BatchOp{Op: wire.BatchDelete, Key: store.MetaKey(key), DBVersion: guard, Force: guard == nil})
	for _, k := range keys {
		ops = append(ops, wire.BatchOp{Op: wire.BatchDelete, Key: k, Force: true})
	}
	metaPending := true
	for len(ops) > 0 {
		n := min(len(ops), wire.MaxBatchOps)
		// Each chunk is one group: destruction stays write-through (a
		// released range's records must be durably gone before the
		// handoff acknowledges), and the CAS-guarded metadata delete
		// leading the first chunk protects the whole stream.
		err := c.driveBatch(ctx, di, ops[:n], 0, wire.SyncWriteThrough)
		if metaPending && err != nil {
			var be *kclient.BatchError
			if errors.As(err, &be) && be.Index == 0 && errors.Is(err, kclient.ErrNotFound) {
				// This replica already lost its metadata (degraded
				// pre-repair state): drop the guard and still collect
				// the version records.
				ops = ops[1:]
				metaPending = false
				continue
			}
		}
		if err != nil {
			return err
		}
		metaPending = false
		ops = ops[n:]
	}
	// Purge by drive key: this covers streamed chunk records too, which
	// are cached under ChunkKey and invisible to a version-number sweep.
	for _, k := range keys {
		c.objectCache.Remove(string(k))
	}
	return nil
}

// lockStripes acquires the per-key mutation stripes for a set of keys
// in deterministic order (deduplicated, sorted) so multi-key commits
// cannot deadlock against each other or single-key writers. The
// returned function releases them in reverse order.
func (c *Controller) lockStripes(keys []string) (unlock func()) {
	seen := make(map[int]bool, len(keys))
	idx := make([]int, 0, len(keys))
	for _, k := range keys {
		if i := stripeIndex(k); !seen[i] {
			seen[i] = true
			idx = append(idx, i)
		}
	}
	sort.Ints(idx)
	for _, i := range idx {
		c.writeLocks[i].Lock()
	}
	return func() {
		for j := len(idx) - 1; j >= 0; j-- {
			c.writeLocks[idx[j]].Unlock()
		}
	}
}
