// Cross-client group commit: a write scheduler that coalesces
// concurrent logical writes into shared drive batches.
//
// PR 1 amortized media waits *within* one logical operation (an
// object record and its metadata ride one atomic TBatch), but under N
// concurrent clients a drive still pays N positioning delays — every
// put/delete/tx ships its own batch, and the Kinetic medium is a
// serial server capped near 1 kIOP/s. Classic WAL group commit shows
// throughput scales with operations-per-sync, not syncs-per-op: the
// fix is to let independent writers share a single drive round trip.
//
// Every logical write that funnels through the replication engine
// (commit — every shape of put — plus deleteReplica and PutPolicy)
// enqueues its per-drive sub-operation set as one *group* into that
// drive's commit queue. A controller-level scheduler goroutine drains
// the queues in *generations* — one merged TBatch per drive, all
// drives concurrently, exactly like the replica fan-out of a single
// write — with a Nagle-style adaptive policy:
//
//   - drives idle → the first group ships immediately (the 1-client
//     latency path pays only channel hand-off overhead);
//   - drives busy → groups arriving while a generation is in flight
//     pile up and the next generation takes them all, up to
//     groupCommitMaxOps / groupCommitMaxBytes per drive; when the
//     previous generation was merged (evidence of sustained
//     concurrency) the scheduler holds a short quiet-period gather
//     window, capped by groupCommitMaxDelay, so a wake-up burst of
//     writers lands in one media wait instead of fragmenting.
//
// Generations, not independent per-drive clocks, are what keep
// replicated writes fast: a write completes at the max of its
// replicas' batches, and independent per-drive schedulers drift out
// of phase until every write waits ~1.5 batch cycles; one generation
// clock keeps all replicas of a write in the same batch wave, so it
// waits exactly one. (A write's latency is max-of-replicas regardless
// — write-through replication waits for every copy.)
//
// The merged TBatch carries wire sub-operation groups: the drive
// validates and applies each group independently under its store lock
// — one amortized media wait for all of them, groups failing their
// compare-and-swap skipped without aborting neighbours — and answers
// with per-group statuses the scheduler demuxes back to each waiter.
//
// Correctness notes:
//   - Per-logical-op atomicity is untouched: a group is exactly the
//     op set PR 1 shipped as one atomic batch, and a logical write
//     still waits for every placement drive.
//   - Conflicting same-key groups never share a queue: every write
//     path holds the key's stripe lock (putObject, commitStream,
//     deleteObject) or the full stripe set (commitTx, batchPut) across
//     enqueue and wait, so the scheduler only ever merges independent
//     writes. The drives' CAS checks remain as the cross-controller
//     backstop.
//   - The scheduler never touches shard or stripe locks, so a
//     FreezeRange drain (which waits for in-flight writes holding the
//     shard read lock) always makes progress: queued groups keep
//     draining regardless of shard state, and a frozen range can
//     never wedge the shared queue.
package core

import (
	"context"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/kinetic/wire"
	"repro/internal/obs"
	"repro/internal/store"
)

// Group-commit scheduler parameters.
const (
	// groupCommitMaxOps / groupCommitMaxBytes cap one merged drive
	// batch. A merged batch must stay encodable under
	// wire.MaxMessageSize, and MaxObjectSize (1 MB payload of a 2 MB
	// frame) leaves ample headroom for keys, versions and framing.
	groupCommitMaxOps   = wire.MaxBatchOps
	groupCommitMaxBytes = int(store.MaxObjectSize)
	// groupCommitMaxDelay caps one gather window. It is an upper
	// bound, not a fixed wait: the quiet-period rule below usually
	// ends the window earlier, and the idle path never opens one.
	groupCommitMaxDelay = 150 * time.Microsecond
	// gatherPollInterval is the quiet-period granularity: the gather
	// re-checks the queues at this cadence and ends after
	// gatherQuietPolls consecutive empty polls. Sized to the stagger
	// of a wake-up burst — a writer serialized behind a rider of the
	// previous generation (stripe hand-off, version re-plan, enqueue)
	// re-arrives within roughly this window, and a finer window
	// fragments the burst across several media waits.
	gatherPollInterval = 75 * time.Microsecond
	gatherQuietPolls   = 2
	// generationStallTimeout bounds how long the generation clock
	// waits for a drive's batch before moving on without it. A
	// blackholed drive connection (no FIN, e.g. a network partition)
	// would otherwise park shipGeneration forever and halt writes to
	// every healthy drive; after the timeout the stalled ship is left
	// to resolve in the background — its riders keep waiting on their
	// own contexts, exactly as if they had written to the hung drive
	// directly — while other drives' queues keep draining. Generous:
	// a full 64-op batch behind a deep HDD queue is tens of
	// milliseconds, not seconds.
	generationStallTimeout = 5 * time.Second
)

// commitGroup is one logical write's per-drive op set waiting in a
// commit queue.
type commitGroup struct {
	ops   []wire.BatchOp
	bytes int           // payload bytes (drive-IO accounting)
	sync  wire.SyncMode // durability the submitter needs
	done  chan error    // buffered(1); nil error = committed
}

// opsPool recycles the merged-batch []wire.BatchOp scratch of ship (the
// marshal scratch is already pooled by wire.Encoder).
var opsPool = sync.Pool{
	New: func() any {
		s := make([]wire.BatchOp, 0, 2*wire.MaxBatchOps)
		return &s
	},
}

func getOps() []wire.BatchOp {
	return (*opsPool.Get().(*[]wire.BatchOp))[:0]
}

func putOps(s []wire.BatchOp) {
	// Drop value references so pooled scratch never pins payloads.
	for i := range s {
		s[i] = wire.BatchOp{}
	}
	s = s[:0]
	opsPool.Put(&s)
}

// groupScheduler is the controller's group-commit engine: one queue
// per drive, one generation clock over all of them.
type groupScheduler struct {
	c *Controller

	mu     sync.Mutex
	queues [][]*commitGroup // per drive, index-aligned with c.drives
	closed bool

	wake chan struct{} // cap 1: some queue became non-empty
	stop chan struct{} // closed on shutdown
	wg   sync.WaitGroup

	// Scheduler-goroutine state. One generation is in flight at a
	// time: accumulating the queues for exactly the duration of the
	// outstanding generation is what sizes the next one — pipelining
	// deeper was measured to fragment batches (more positioning
	// passes for the same writes) and lose throughput.
	lastMerged bool // previous generation had a merged batch
	// dirtyWB flags per-drive write-back bytes awaiting a flush.
	// Atomic because a ship goroutine abandoned by the generation
	// stall timeout resolves in the background, unordered against the
	// scheduler loop.
	dirtyWB []atomic.Bool
}

// newGroupScheduler builds and starts the scheduler. Called from New
// once the drive pools exist.
func newGroupScheduler(c *Controller) *groupScheduler {
	g := &groupScheduler{
		c:       c,
		queues:  make([][]*commitGroup, len(c.drives)),
		dirtyWB: make([]atomic.Bool, len(c.drives)),
		wake:    make(chan struct{}, 1),
		stop:    make(chan struct{}),
	}
	g.wg.Add(1)
	go g.run()
	return g
}

// enqueue submits one group for drive di and blocks until the
// scheduler commits it (nil), the drive rejects it (the group's
// CAS/permission error, with BatchError indexes relative to the
// group), or ctx is cancelled. ops stays the caller's and is only
// read. A cancelled waiter does not revoke an already-in-flight group —
// like a cancelled round trip, the write may still commit, and the
// caller's cache invalidation handles it.
func (g *groupScheduler) enqueue(ctx context.Context, di int, ops []wire.BatchOp, bytes int, sync wire.SyncMode) error {
	grp := &commitGroup{ops: ops, bytes: bytes, sync: sync, done: make(chan error, 1)}
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return ErrClosed
	}
	g.queues[di] = append(g.queues[di], grp)
	g.mu.Unlock()
	select {
	case g.wake <- struct{}{}:
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

// shutdown rejects all queued groups and stops the scheduler once the
// in-flight generation (if any) resolves. Callers close the drive
// connections afterwards, which unblocks a scheduler waiting on
// responses, then wait() for the goroutine to exit.
func (g *groupScheduler) shutdown() {
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return
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
}

func (g *groupScheduler) wait() { g.wg.Wait() }

// run is the scheduler loop: pop a mergeable prefix of every drive
// queue, optionally gather under the adaptive policy, ship the
// generation (one grouped TBatch per drive, concurrently), demux the
// per-group verdicts, repeat; destage write-back bytes with trailing
// flushes whenever the drives go idle.
func (g *groupScheduler) run() {
	defer g.wg.Done()
	batches := make([][]*commitGroup, len(g.c.drives))
	for {
		select {
		case <-g.stop:
			return
		case <-g.wake:
		}
		for {
			if !g.popAll(batches) {
				break
			}
			if g.lastMerged {
				// Sustained concurrency: the previous generation was
				// merged, so the writers it woke are about to
				// re-enqueue — gather their burst so it shares this
				// generation's media waits instead of fragmenting
				// across several. A lone client never pays this: its
				// batches carry one group, so lastMerged stays false
				// and the idle path ships immediately.
				g.gather(batches)
			}
			g.shipGeneration(batches)
		}
		g.trailingFlush()
	}
}

// popAll moves the longest cap-fitting prefix of every drive queue
// into batches, reporting whether any drive has work.
func (g *groupScheduler) popAll(batches [][]*commitGroup) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	any := false
	for di := range g.queues {
		batches[di] = batches[di][:0]
		ops, bytes, n := 0, 0, 0
		for _, grp := range g.queues[di] {
			if n > 0 && (ops+len(grp.ops) > groupCommitMaxOps || bytes+grp.bytes > groupCommitMaxBytes) {
				break
			}
			ops += len(grp.ops)
			bytes += grp.bytes
			n++
		}
		if n > 0 {
			batches[di] = append(batches[di], g.queues[di][:n]...)
			g.queues[di] = g.queues[di][n:]
			any = true
		}
	}
	return any
}

// gather extends a freshly popped generation for up to
// groupCommitMaxDelay, absorbing groups that arrive while the window
// is open. The window is quiet-period adaptive: every arrival re-arms
// a short poll, so a burst of waking writers is absorbed whole, while
// dried-up queues end the wait after a couple of poll intervals
// instead of the full delay.
func (g *groupScheduler) gather(batches [][]*commitGroup) {
	deadline := time.Now().Add(groupCommitMaxDelay)
	ops := make([]int, len(batches))
	bytes := make([]int, len(batches))
	for di, b := range batches {
		for _, grp := range b {
			ops[di] += len(grp.ops)
			bytes[di] += grp.bytes
		}
	}
	quiet := 0
	for quiet < gatherQuietPolls {
		wait := time.Until(deadline)
		if wait <= 0 {
			break
		}
		timer := time.NewTimer(min(wait, gatherPollInterval))
		select {
		case <-g.stop:
			timer.Stop()
			return
		case <-g.wake:
			timer.Stop()
		case <-timer.C:
		}
		g.mu.Lock()
		took := false
		for di := range g.queues {
			for len(g.queues[di]) > 0 {
				grp := g.queues[di][0]
				if ops[di]+len(grp.ops) > groupCommitMaxOps || bytes[di]+grp.bytes > groupCommitMaxBytes {
					break
				}
				ops[di] += len(grp.ops)
				bytes[di] += grp.bytes
				batches[di] = append(batches[di], grp)
				g.queues[di] = g.queues[di][1:]
				took = true
			}
		}
		g.mu.Unlock()
		if took {
			quiet = 0
		} else {
			quiet++
		}
	}
}

// shipGeneration sends every drive's merged batch concurrently — the
// same fan-out shape as a single replicated write — and waits for all
// of them, so the next generation's accumulation window is exactly
// the in-flight time. A drive that stalls past generationStallTimeout
// stops gating the clock: its ship resolves in the background and the
// scheduler moves on, so one hung drive cannot halt writes to the
// healthy ones.
func (g *groupScheduler) shipGeneration(batches [][]*commitGroup) {
	merged := false
	for _, b := range batches {
		if len(b) > 1 {
			merged = true
		}
	}
	g.lastMerged = merged

	done := make(chan struct{})
	var wg sync.WaitGroup
	for di, b := range batches {
		if len(b) == 0 {
			continue
		}
		wg.Add(1)
		// Each ship owns a copy of its batch: the scheduler reuses the
		// batches arrays for the next generation, and a ship abandoned
		// by the stall timeout below may still be iterating its slice
		// when that happens.
		go func(di int, batch []*commitGroup) {
			defer wg.Done()
			g.ship(di, batch)
		}(di, append([]*commitGroup(nil), b...))
	}
	go func() { wg.Wait(); close(done) }()
	timer := time.NewTimer(generationStallTimeout)
	defer timer.Stop()
	select {
	case <-done:
	case <-timer.C:
		// Abandon the wait, not the work: the stalled batches finish
		// (or fail when their connections die) in the background and
		// resolve their riders then.
	}
}

// ship sends one drive's merged batch and demuxes the verdicts.
func (g *groupScheduler) ship(di int, batch []*commitGroup) {
	ops := getOps()
	sizes := make([]uint32, len(batch))
	bytes := 0
	// The batch commits write-through unless every rider tolerates
	// write-back (then one trailing flush destages them together).
	sync := wire.SyncWriteBack
	for i, grp := range batch {
		ops = append(ops, grp.ops...)
		sizes[i] = uint32(len(grp.ops))
		bytes += grp.bytes
		if grp.sync != wire.SyncWriteBack {
			sync = wire.SyncWriteThrough
		}
	}

	cl := g.c.drives[di].pick()
	// One drive round trip for the whole batch: the enclave syscall
	// tax amortizes across riders exactly like the media wait.
	g.c.chargeDriveIO(bytes)
	// The batch commits on behalf of every rider; an individual
	// waiter's cancellation must not abort its neighbours, so the
	// round trip runs detached (waiters honor their own contexts in
	// enqueue).
	errs, err := cl.BatchGroups(context.Background(), ops, sizes, sync)
	putOps(ops)

	merged := len(batch) > 1
	g.c.stats.GroupBatches.Inc()
	if merged {
		g.c.stats.GroupedWrites.Add(uint64(len(batch)))
	}

	if err != nil {
		for _, grp := range batch {
			grp.done <- err
		}
		return
	}
	if sync == wire.SyncWriteBack {
		g.dirtyWB[di].Store(true)
	}
	for i, grp := range batch {
		grp.done <- errs[i]
	}
}

// trailingFlush destages buffered write-back bytes once the queues
// are idle. Riders that chose write-back tolerate losing these
// records (tx recovery re-derives state from replicas), so the flush
// trails the acknowledgements instead of gating them — and runs
// detached, so its media wait never delays a generation that arrives
// just after the idle transition.
func (g *groupScheduler) trailingFlush() {
	for di := range g.dirtyWB {
		if !g.dirtyWB[di].Load() {
			continue
		}
		g.mu.Lock()
		busy := len(g.queues[di]) > 0
		g.mu.Unlock()
		if busy {
			continue // new work arrived; it will flush on the next idle
		}
		g.dirtyWB[di].Store(false)
		go func(di int) {
			g.c.chargeDriveIO(0)
			if err := g.c.drives[di].pick().Flush(context.Background()); err != nil {
				// Advisory destage; the records' durability story is
				// replication, and the next write-through batch or
				// flush covers the medium.
				return
			}
			g.c.stats.TrailingFlushes.Inc()
		}(di)
	}
}

// driveBatch is the single choke point for shipping one logical
// write's sub-operations to one drive: it enqueues them as one group
// on the drive's commit queue and waits for the verdict. BatchError
// indexes are relative to ops.
func (c *Controller) driveBatch(ctx context.Context, di int, ops []wire.BatchOp, payload int, sync wire.SyncMode) error {
	return c.gcommit.enqueue(ctx, di, ops, payload, sync)
}
