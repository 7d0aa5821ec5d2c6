// Cross-client group commit: a write scheduler that coalesces
// concurrent logical writes into shared drive batches.
//
// One logical write already ships its object and metadata records to a
// replica as one atomic batch, but under N concurrent clients a drive
// would still pay N positioning delays, and the Kinetic medium is a
// serial server capped near 1 kIOP/s. Classic WAL group commit shows
// throughput scales with operations-per-sync, not syncs-per-op: the
// fix is to let independent writers share a single drive round trip.
//
// Every record write but a streamed chunk's is a Commit, which enqueues
// its per-drive sub-operation set as one *group* (or several, under the
// caps) into that drive's commit queue. Each drive has one commit loop
// that drains its queue with a Nagle-style adaptive policy:
//
//   - drive idle → the first group ships immediately (the 1-client
//     latency path pays only channel hand-off overhead);
//   - drive busy → groups arriving while its batch is in flight pile
//     up and the next batch takes them all, up to groupCommitMaxOps /
//     groupCommitMaxBytes; when the loop's previous batch was merged
//     (evidence of sustained concurrency) it holds a short
//     quiet-period gather window, capped by groupCommitMaxDelay, so a
//     wake-up burst of writers lands in one media wait instead of
//     fragmenting.
//
// The loops are independent on purpose. A write's replica groups
// enqueue at nearly the same moment, and each ships as soon as its own
// drive is free, so on idle drives the write pays one media wait. One
// clock over all drives would ship a wave as soon as the first replica
// enqueued, leaving the others a whole media time behind, and would hold
// every drive to the slowest one in the wave. A slow or hung drive holds
// only its own loop: its riders wait on their own contexts while the
// other drives keep draining. (A write's latency is max-of-replicas
// regardless — write-through replication waits for every copy.)
//
// The merged TBatch carries wire sub-operation groups: the drive
// validates and applies each group independently under its store lock
// — one amortized media wait for all of them, groups failing their
// compare-and-swap skipped without aborting neighbours — and answers
// with per-group statuses the loop demuxes back to each waiter.
//
// Correctness notes:
//   - Per-logical-op atomicity is untouched: a group is exactly the op
//     set one logical write ships to a replica as one atomic batch, and
//     a logical write still waits for every placement drive.
//   - Conflicting same-key groups never share a queue: every write
//     path holds its keys' commits locks (putObject, commitStream,
//     deleteObject, repairObject, batchPut, transact) across enqueue
//     and wait, so the loops only ever merge independent writes. The
//     drives' CAS checks remain as the cross-controller backstop.
//   - The loops never touch shard or key locks, so a FreezeRange
//     drain (which waits for in-flight writes holding the shard read
//     lock) always makes progress: queued groups keep draining
//     regardless of shard state, and a frozen range can never wedge a
//     queue.

package records

import (
	"context"
	"errors"
	"slices"
	"strconv"
	"sync"
	"time"

	"repro/internal/kinetic/wire"
	"repro/internal/obs"
	"repro/internal/store"
)

// Group-commit scheduler parameters.
const (
	// groupCommitMaxOps / groupCommitMaxBytes cap one merged drive
	// batch, and Commit's groups with it. A merged batch must stay
	// encodable under wire.MaxMessageSize, and MaxObjectSize (1 MB
	// payload of a 2 MB frame) leaves ample headroom for keys, versions
	// and framing.
	groupCommitMaxOps   = wire.MaxBatchOps
	groupCommitMaxBytes = int(store.MaxObjectSize)
	// groupCommitMaxDelay caps one gather window. It is an upper
	// bound, not a fixed wait: the quiet-period rule below usually
	// ends the window earlier, and the idle path never opens one.
	groupCommitMaxDelay = 150 * time.Microsecond
	// gatherPollInterval is the quiet-period granularity: the gather
	// re-checks the queue at this cadence and ends after
	// gatherQuietPolls consecutive empty polls. Sized to the stagger
	// of a wake-up burst — a writer serialized behind a rider of the
	// previous batch (stripe hand-off, version re-plan, enqueue)
	// re-arrives within roughly this window, and a finer window
	// fragments the burst across several media waits.
	gatherPollInterval = 75 * time.Microsecond
	gatherQuietPolls   = 2
)

// ErrClosed is every write's answer once Close began.
var ErrClosed = errors.New("pesos: controller closed")

// commitGroup is one logical write's per-drive op set waiting in a
// commit queue.
type commitGroup struct {
	ops   []wire.BatchOp
	bytes int        // payload bytes (drive-IO accounting)
	done  chan error // buffered(1); nil error = committed
}

// commitBatch is the groups a drive's loop is about to ship, with their
// summed sub-operations and payload bytes for the caps.
type commitBatch struct {
	groups     []*commitGroup
	ops, bytes int
}

// commitQueues is the group-commit engine: one queue and one commit
// loop per drive, index-aligned with the pools.
type commitQueues struct {
	mu     sync.Mutex
	queues [][]*commitGroup
	closed bool

	wakes []chan struct{} // per drive, cap 1: its queue became non-empty
	stop  chan struct{}   // closed on shutdown
	loops sync.WaitGroup
}

// Commit is the one way a record write but a streamed chunk reaches a
// drive: it ships ops to drive di write-through through the drive's
// commit loop, in groups each applied whole or not at all, and returns
// once every group committed (nil), one was rejected (the group's
// CAS/permission error, with BatchError indexes relative to the group),
// or ctx is cancelled. The groups keep to the batch caps and ship one
// after another; unit ops — a write's object and head pair, or a
// single op — are never split between two. ops stays the caller's and
// is only read. A cancelled waiter does not revoke an already-in-flight
// group — like a cancelled round trip, the write may still commit, and
// the caller's cache invalidation handles it.
func (d *Drives) Commit(ctx context.Context, di int, ops []wire.BatchOp, unit int) error {
	for len(ops) > 0 {
		n, bytes := 0, 0
		for n < len(ops) {
			u, sz := min(unit, len(ops)-n), 0
			for _, op := range ops[n : n+u] {
				sz += len(op.Value)
			}
			if n > 0 && (n+u > groupCommitMaxOps || bytes+sz > groupCommitMaxBytes) {
				break
			}
			n, bytes = n+u, bytes+sz
		}
		if err := d.commits.enqueue(ctx, di, ops[:n], bytes); err != nil {
			return err
		}
		ops = ops[n:]
	}
	return nil
}

// enqueue submits ops as one group for drive di and waits for its
// verdict.
func (g *commitQueues) enqueue(ctx context.Context, di int, ops []wire.BatchOp, bytes int) error {
	grp := &commitGroup{ops: ops, bytes: bytes, done: make(chan error, 1)}
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return ErrClosed
	}
	g.queues[di] = append(g.queues[di], grp)
	g.mu.Unlock()
	select {
	case g.wakes[di] <- struct{}{}:
	default:
	}
	queued := time.Now()
	select {
	case err := <-grp.done:
		obs.RecordSpan(ctx, "gcommit_wait", queued, time.Since(queued),
			obs.Attr{Key: "drive", Value: strconv.Itoa(di)})
		return err
	case <-ctx.Done():
		// Still queued? Withdraw it so a cancelled caller cannot
		// commit arbitrarily late. Already picked up → the batch is in
		// flight and its outcome is the drive's; the caller treats
		// ctx.Err() like any mid-round-trip cancellation.
		g.mu.Lock()
		for i, q := range g.queues[di] {
			if q == grp {
				g.queues[di] = append(g.queues[di][:i], g.queues[di][i+1:]...)
				g.mu.Unlock()
				return ctx.Err()
			}
		}
		g.mu.Unlock()
		return ctx.Err()
	}
}

// shutdown rejects all queued groups and stops the loops once their
// in-flight batches (if any) resolve. Close closes the drive
// connections afterwards, which unblocks a loop waiting on a response,
// then waits for the loops to exit. It reports whether it was the first
// call.
func (g *commitQueues) shutdown() bool {
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return false
	}
	g.closed = true
	queued := g.queues
	g.queues = make([][]*commitGroup, len(queued))
	g.mu.Unlock()
	for _, q := range queued {
		for _, grp := range q {
			grp.done <- ErrClosed
		}
	}
	close(g.stop)
	return true
}

// run is drive di's commit loop: pop a cap-fitting prefix of the queue,
// gather more when the previous batch was merged, ship, repeat.
// One batch per drive is in flight at a time: accumulating the queue
// for exactly the outstanding batch's duration is what sizes the next
// one, and a deeper pipeline was measured to fragment batches.
func (d *Drives) run(di int) {
	g := &d.commits
	defer g.loops.Done()
	var b commitBatch
	var merged bool
	for {
		select {
		case <-g.stop:
			return
		case <-g.wakes[di]:
		}
		for g.take(di, &b) {
			if merged {
				// Sustained concurrency: the previous batch was merged,
				// so the writers it woke are about to re-enqueue — gather
				// their burst so it shares this batch's media wait
				// instead of fragmenting across several. A lone client
				// never pays this: its batches carry one group, so merged
				// stays false and the idle path ships immediately.
				g.gather(di, &b)
			}
			merged = len(b.groups) > 1
			d.ship(di, b.groups)
			clear(b.groups) // do not pin the riders' ops until the next batch
			b = commitBatch{groups: b.groups[:0]}
		}
	}
}

// take moves the longest prefix of drive di's queue that fits the caps
// onto b, reporting whether it moved any group. An empty batch always
// takes the queue's head, whatever its size.
func (g *commitQueues) take(di int, b *commitBatch) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	n := 0
	for _, grp := range g.queues[di] {
		if len(b.groups) > 0 && (b.ops+len(grp.ops) > groupCommitMaxOps || b.bytes+grp.bytes > groupCommitMaxBytes) {
			break
		}
		b.groups = append(b.groups, grp)
		b.ops += len(grp.ops)
		b.bytes += grp.bytes
		n++
	}
	g.queues[di] = g.queues[di][n:]
	return n > 0
}

// gather extends a freshly popped batch for up to groupCommitMaxDelay,
// absorbing groups that arrive while the window is open. The window is
// quiet-period adaptive: every arrival re-arms a short poll, so a burst
// of waking writers is absorbed whole, while a dried-up queue ends the
// wait after a couple of poll intervals instead of the full delay.
func (g *commitQueues) gather(di int, b *commitBatch) {
	deadline := time.Now().Add(groupCommitMaxDelay)
	for quiet := 0; quiet < gatherQuietPolls; {
		wait := time.Until(deadline)
		if wait <= 0 {
			return
		}
		timer := time.NewTimer(min(wait, gatherPollInterval))
		select {
		case <-g.stop:
			timer.Stop()
			return
		case <-g.wakes[di]:
			timer.Stop()
		case <-timer.C:
		}
		if g.take(di, b) {
			quiet = 0
		} else {
			quiet++
		}
	}
}

// ship sends one drive's merged batch write-through — every rider is
// on the medium before its verdict — and demuxes the verdicts.
func (d *Drives) ship(di int, batch []*commitGroup) {
	// A lone group's ops ship as they are. Clipped, they make the first
	// append of a merged batch copy into a slice of its own, so no
	// rider's ops are written.
	ops := slices.Clip(batch[0].ops)
	sizes := make([]uint32, len(batch))
	bytes := 0
	for i, grp := range batch {
		if i > 0 {
			ops = append(ops, grp.ops...)
		}
		sizes[i] = uint32(len(grp.ops))
		bytes += grp.bytes
	}

	// One drive round trip for the whole batch: the enclave syscall
	// tax amortizes across riders exactly like the media wait. The
	// batch commits on behalf of every rider; an individual waiter's
	// cancellation must not abort its neighbours, so the round trip runs
	// detached (waiters honor their own contexts in enqueue).
	errs, err := d.conn(di, bytes).BatchGroups(context.Background(), ops, sizes, wire.SyncWriteThrough)

	d.cfg.GroupBatches.Inc()
	if len(batch) > 1 {
		d.cfg.GroupedWrites.Add(uint64(len(batch)))
	}

	if err != nil {
		for _, grp := range batch {
			grp.done <- err
		}
		return
	}
	for i, grp := range batch {
		grp.done <- errs[i]
	}
}
