// The fetch engine: every read of a record off the drives — metadata,
// version records, policies, chunk records — is one first-k-of-n fetch.
// A record's candidates are the copies of its slots: a replicated
// record is a stripe with k = 1 (one slot, a copy on every placement
// drive), an erasure-coded stripe has k data slots and m parity slots,
// one copy each (stripe.go).
//
// Reads are latency-aware and hedged: the fastest healthy home of each
// data slot is asked first, and a further copy is asked only after an
// adaptive delay (~p95 of the drive last asked, floored by the bytes in
// flight), so the common-case read occupies one drive's media per slot
// while a slow or dead drive is still covered within the hedge delay.
// Every reply is opened by the caller's bound opener; a refusal is a
// failed read of that drive. Semantics: the first authentic copy of a
// slot wins, absence needs unanimity, and an error outranks a
// not-found.

package records

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/kinetic/kclient"
	"repro/internal/policy"
	"repro/internal/store"
)

// recordOutcome feeds one completed round trip into a pool's latency
// estimator: answers (found or authoritative not-found) are latency
// samples, transport failures and refused replies count toward the
// failing demotion, and cancelled reads (by a winner or the caller) say
// nothing about the medium.
func recordOutcome(p *pool, elapsed time.Duration, err error) {
	switch {
	case err == nil || isAbsent(err):
		p.lat.observe(elapsed)
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
	default:
		p.lat.observeFailure()
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

// hedgeDelay returns how long a fetch waits on drive pool p before it
// asks a further copy, with inflight bytes still to arrive. The adaptive
// delay is tuned by KB-scale record reads; a megabyte shard transfer
// outlasts it even on a healthy drive, and hedging then launches reads
// against drives that are merely mid-transfer. So the delay is floored
// by a conservative wire-rate estimate (~100 MB/s) of the bytes in
// flight, and the floor is capped so a hung drive is still hedged
// promptly.
func (d *Drives) hedgeDelay(p *pool, inflight int) time.Duration {
	floor := min(time.Duration(inflight)*10*time.Nanosecond, maxHedgeDelay)
	if d.cfg.HedgeDelay > 0 {
		return max(d.cfg.HedgeDelay, floor)
	}
	delay := defaultHedgeDelay
	if _, p95, n := p.lat.snapshot(); n >= hedgeWarmup {
		delay = min(max(p95+p95/4, minHedgeDelay), maxHedgeDelay)
	}
	return max(delay, floor)
}

// fetchCand is one copy a fetch may read: a stripe shard — for a
// replicated record, slot 0 — on one drive.
type fetchCand struct {
	Shard
	pool *pool
}

// fetchOrder orders cands, in place, the way a fetch launches them for
// k data slots (slots k and up are parity): the fastest healthy home of
// each data slot first (every one is wanted), then the data slots' other
// copies, then parity, each by latency estimate, then the copies on
// failing drives, data before parity, as a last resort. Drives with no
// samples sort first, so they get explored until an estimate exists.
// Failing drives sort last whatever their estimate: a dead drive never
// completes a read, so latency samples alone could never demote it, and
// every read would pay the hedge delay before reaching a healthy copy.
func fetchOrder(k int, cands []fetchCand) []fetchCand {
	type ranked struct {
		fetchCand
		est   estimate
		class int
	}
	rs := make([]ranked, len(cands))
	for i, cd := range cands {
		rs[i].fetchCand = cd
		rs[i].est = cd.pool.lat.estimate()
	}
	sort.SliceStable(rs, func(i, j int) bool { return rs[i].est.before(rs[j].est) })
	first := make([]bool, k)
	for i := range rs {
		r := &rs[i]
		switch {
		case r.est.failing && r.Slot < k:
			r.class = 3
		case r.est.failing:
			r.class = 4
		case r.Slot >= k:
			r.class = 2
		case first[r.Slot]:
			r.class = 1
		default:
			first[r.Slot] = true
		}
	}
	sort.SliceStable(rs, func(i, j int) bool { return rs[i].class < rs[j].class })
	for i, r := range rs {
		cands[i] = r.fetchCand
	}
	return cands
}

// fetch is the one read engine. It returns, by slot, the first
// authentic copy of k slots out of cands: every data slot 0..k-1, or —
// only when a data slot's copies fail or are slow — a parity slot (k
// and up) in its place. get is one drive round trip (the latency
// sample), open judges its reply with the record's bound opener; a
// refusal fails the copy like a transport error. slotBytes is the
// payload of one slot, for the hedge delay's floor. drop hands back a
// value the fetch does not return (nil: nothing to hand back).
//
// One copy of every data slot launches at once; the rest are hedges. A
// failed fetch — an error, a not-found or a refusal — launches every
// untried copy of its slot, or with none left the next untried
// candidate, at once; otherwise one timer launches the next candidate
// whenever the drive asked last has been quiet for its hedge delay. The
// same timer is the patience window: a parity arrival must not end the
// read while healthy data fetches are still in flight — displacing a
// data chunk forces a decode, and the decoder belongs off the healthy
// path — so once k slots are in hand the data still out gets one more
// hedge delay. With one candidate no timer is armed.
//
// Absence needs unanimity: a not-found is the answer only when every
// candidate said so, since a degraded drive that lost a record must not
// shadow a healthy copy, and an unreachable one means "don't know".
//
// Each physical read feeds its drive's estimator once (recordOutcome),
// refusals included, also when they arrive after the fetch settled. A
// fetch launched before the last winner and still out has lost to a
// later launch and is charged the time it has run: without that, a
// degraded drive whose reads always lose the hedge race would never
// complete a round trip, never update its estimate, and keep being asked
// first. Stragglers drain in the background, so drop gets every value
// the fetch does not return.
func fetch[R, T any](ctx context.Context, d *Drives, k int, cands []fetchCand, slotBytes int,
	get func(context.Context, fetchCand) (R, error), open func(fetchCand, R) (T, error), drop func(T)) ([]T, error) {
	order := fetchOrder(k, cands)
	nslots := k
	for _, cd := range order {
		nslots = max(nslots, cd.Slot+1)
	}
	type result struct {
		i   int // into order
		val T
		rtt time.Duration // the drive round trip alone: opening a reply says nothing of the medium
		err error
	}
	fctx, cancel := context.WithCancel(ctx)
	defer cancel()
	results := make(chan result, len(order))
	seq := make([]int, len(order)) // launch order from 1; 0: untried
	starts := make([]time.Time, len(order))
	answered := make([]bool, len(order))
	got := make([]T, nslots)
	filled := make([]bool, nslots)
	inflight := make([]int, nslots)        // fetches out per slot
	launched, last, outstanding := 0, 0, 0 // last: the candidate launched most recently
	launch := func(i int) {
		launched++
		seq[i], starts[i], last = launched, time.Now(), i
		outstanding++
		inflight[order[i].Slot]++
		go func(cd fetchCand, start time.Time) {
			r := result{i: i}
			raw, err := get(fctx, cd)
			r.rtt, r.err = time.Since(start), err
			if err == nil {
				r.val, r.err = open(cd, raw)
			}
			results <- r
		}(order[i], starts[i])
	}
	untried := func(slot int) int { // the first untried candidate (of slot, when ≥ 0); -1: none
		for i, cd := range order {
			if seq[i] == 0 && (slot < 0 || cd.Slot == slot) {
				return i
			}
		}
		return -1
	}
	for i := range min(k, len(order)) {
		launch(i)
	}

	var timer *time.Timer // Reset and Stop drop an undelivered tick (Go ≥ 1.23)
	arm := func(d time.Duration) {
		if timer == nil {
			timer = time.NewTimer(d)
		} else {
			timer.Reset(d)
		}
	}
	have, lastWin := 0, -1
	patience, patienceOver := false, false
	var lastErr error
loop:
	for {
		pending := 0 // data slots still wanted with a fetch out
		for s := range k {
			if !filled[s] && inflight[s] > 0 {
				pending++
			}
		}
		next := untried(-1)
		switch {
		case have >= k && (pending == 0 || patienceOver):
			break loop
		case have < k && outstanding == 0 && next < 0:
			break loop // every candidate answered
		case have < k && next >= 0, have >= k && !patience:
			// The hedge, re-armed on every answer while slots are
			// missing; once k are in hand, the patience window, once.
			// Parallel transfers share the paths, so the bytes in flight
			// are a slot per data slot still out.
			patience = have >= k
			arm(d.hedgeDelay(order[last].pool, slotBytes*max(pending, 1)))
		case have < k && timer != nil:
			timer.Stop() // every candidate is out: nothing left to hedge to
		}
		var fire <-chan time.Time
		if timer != nil {
			fire = timer.C
		}
		select {
		case r := <-results:
			outstanding--
			answered[r.i] = true
			cd := order[r.i]
			inflight[cd.Slot]--
			recordOutcome(cd.pool, r.rtt, r.err)
			switch {
			case r.err != nil:
				if lastErr == nil || !isAbsent(r.err) {
					lastErr = r.err
				}
				if have < k {
					i := untried(cd.Slot)
					if i < 0 {
						i = next // no copy of the slot left: the next candidate
					}
					for ; i >= 0; i = untried(cd.Slot) {
						launch(i)
					}
				}
			case filled[cd.Slot]:
				if drop != nil {
					drop(r.val) // a slower copy of a slot already in hand
				}
			default:
				got[cd.Slot], filled[cd.Slot] = r.val, true
				have++
				lastWin = r.i
			}
		case <-fire:
			if have >= k {
				patienceOver = true
			} else {
				d.cfg.Hedges.Inc()
				launch(next)
			}
		case <-ctx.Done():
			lastErr = ctx.Err()
			break loop
		}
	}
	if timer != nil {
		timer.Stop()
	}
	cancel()

	winSeq := 0
	if lastWin >= 0 {
		winSeq = seq[lastWin]
	}
	for i := range order {
		if seq[i] > 0 && seq[i] < winSeq && !answered[i] {
			order[i].pool.lat.observe(time.Since(starts[i]))
		}
	}
	if outstanding > 0 {
		go func(n int) {
			for ; n > 0; n-- {
				r := <-results
				// A loser charged above has had its sample; what it can
				// still add is a failure, a refusal above all.
				if seq[r.i] >= winSeq || (r.err != nil && !isAbsent(r.err)) {
					recordOutcome(order[r.i].pool, r.rtt, r.err)
				}
				if r.err == nil && drop != nil {
					drop(r.val)
				}
			}
		}(outstanding)
	}
	if have < k {
		for s, ok := range filled {
			if ok && drop != nil {
				drop(got[s])
			}
		}
		return nil, lastErr
	}
	return got, nil
}

// readReplicated reads the record under drive key dk off placement
// through the fetch engine, one slot with a copy on every placement
// drive. open turns one replica's bytes into the value or refuses them —
// malformed, damaged, or another record's authentic bytes served under
// this key — and a refusal fails over to the next replica instead of
// failing the read. what names the record in errors; none is what a
// unanimous not-found surfaces as.
func readReplicated[T any](ctx context.Context, d *Drives, placement []int, dk []byte, none error, what string, open func(val []byte) (T, error)) (T, error) {
	cands := make([]fetchCand, len(placement)) // one slot, a copy on each drive
	for i, di := range placement {
		cands[i].pool = d.pools[di] // resolved before any fetch goroutine starts
	}
	got, err := fetch(ctx, d, 1, cands, 0,
		func(ctx context.Context, cd fetchCand) ([]byte, error) {
			d.chargeIO(0)
			val, _, err := cd.pool.pick().Get(ctx, dk)
			if errors.Is(err, kclient.ErrNotFound) {
				err = fmt.Errorf("%w: %s", none, what)
			}
			return val, err
		},
		func(_ fetchCand, val []byte) (T, error) { return open(val) }, nil)
	if err != nil {
		var zero T
		if !isAbsent(err) {
			err = fmt.Errorf("core: all replicas failed reading %s: %w", what, err)
		}
		return zero, err
	}
	return got[0], nil
}

// ReadHead reads key's head record off placement. The codec refuses a
// copy that is another object's record served under this key: the policy
// check would trust its PolicyID.
func (d *Drives) ReadHead(ctx context.Context, key string, placement []int) (*store.Meta, error) {
	return readReplicated(ctx, d, placement, store.MetaKey(key), ErrNotFound, "meta "+strconv.Quote(key),
		func(val []byte) (*store.Meta, error) {
			m := new(store.Meta)
			return m, d.cfg.Codec.DecodeMeta(val, key, m)
		})
}

// ReadVersion reads one version record off placement. The codec opens it
// only intact and bound to (key, version): a replica serving another
// object's or version's authentic record fails over like a damaged one.
// A chunk stub's content hash spans its chunks; the stream reader checks
// it.
func (d *Drives) ReadVersion(ctx context.Context, key string, version int64, placement []int) (*store.Record, error) {
	return readReplicated(ctx, d, placement, store.ObjectKey(key, version), ErrNotFound, fmt.Sprintf("%q v%d", key, version),
		func(val []byte) (*store.Record, error) {
			d.cfg.Cost.MoveBytes(len(val))
			return d.cfg.Codec.DecodeVersion(val, key, version)
		})
}

// ReadPolicy reads compiled policy id off placement. Content addressing
// doubles as integrity: a copy that does not parse, or does not hash back
// to its id, is refused — so one bad drive cannot deny every object under
// the policy.
func (d *Drives) ReadPolicy(ctx context.Context, id string, placement []int) (*policy.Program, error) {
	return readReplicated(ctx, d, placement, store.PolicyKey(id), ErrNoSuchPolicy, "policy "+strconv.Quote(id), openPolicy(id))
}

// openPolicy is the bound opener of policy id: a copy must hash back to id.
func openPolicy(id string) func([]byte) (*policy.Program, error) {
	return func(val []byte) (*policy.Program, error) {
		prog, err := policy.Unmarshal(val)
		if err == nil && PolicyID(prog) != id {
			err = fmt.Errorf("core: policy %q fails integrity check: %w", id, store.ErrCorrupt)
		}
		return prog, err
	}
}

// Shard is one chunk record of a stripe: its slot (0..k-1 data, k and up
// parity) and its chunk index.
type Shard struct {
	Slot int
	Idx  int64
}

// ChunkBufs pools chunk-sized buffers: an upload's chunks and parity, and
// the payloads of the chunk records a read opens. Every v2 put flows
// through the streaming entry point, so allocating the full chunk size
// per request (1 MB for a 1 KB value) becomes pure GC pressure under
// write-heavy load; the pool bounds it to one buffer per concurrent
// upload or chunk in flight.
var ChunkBufs = sync.Pool{
	New: func() any {
		b := make([]byte, store.MaxObjectSize)
		return &b
	},
}

// Chunk is an opened chunk record whose payload lives in a pooled chunk
// buffer; Release hands the buffer back. A zero Chunk releases nothing.
type Chunk struct {
	Rec  *store.Record
	bufp *[]byte
}

// Release hands the chunk's buffer back; its payload is invalid after.
func (c Chunk) Release() {
	if c.bufp != nil {
		ChunkBufs.Put(c.bufp)
	}
}

// ReadStripe reads k of the chunk records shards name, of key's chunk
// set, by slot, through the one engine: the stripe's data chunks are its
// k slots and its parity shards the rest, each shard a copy on every
// drive homes names for its index. slotBytes is one shard's payload.
func (d *Drives) ReadStripe(ctx context.Context, key string, set int64, k int, shards []Shard, homes func(idx int64) []int, slotBytes int) ([]Chunk, error) {
	var cands []fetchCand
	for _, sh := range shards {
		for _, di := range homes(sh.Idx) {
			cands = append(cands, fetchCand{sh, d.pools[di]})
		}
	}
	return fetch(ctx, d, k, cands, slotBytes,
		func(ctx context.Context, cd fetchCand) (kclient.Value, error) {
			d.chargeIO(0)
			v, err := cd.pool.pick().GetValue(ctx, store.ChunkKey(key, set, cd.Idx))
			if errors.Is(err, kclient.ErrNotFound) {
				err = fmt.Errorf("%w: %q chunk %d of set %d", ErrNotFound, key, cd.Idx, set)
			}
			return v, err
		},
		func(cd fetchCand, v kclient.Value) (Chunk, error) { return d.openChunk(v, key, set, cd.Idx) },
		Chunk.Release)
}

// openChunk opens the raw chunk record in v into a pooled chunk buffer
// and hands v's frame back: the codec has copied or decrypted the
// payload out of it, authenticated, by the time it returns. A chunk
// record never enters the object cache — streamed reads are large and
// sequential, and a pooled payload must have exactly one owner.
func (d *Drives) openChunk(v kclient.Value, key string, set, idx int64) (Chunk, error) {
	defer v.Release()
	d.cfg.Cost.MoveBytes(len(v.Value))
	c := Chunk{bufp: ChunkBufs.Get().(*[]byte)}
	var err error
	if c.Rec, err = d.cfg.Codec.DecodeChunkInto(v.Value, *c.bufp, key, set, idx); err != nil {
		c.Release()
		return Chunk{}, err
	}
	return c, nil
}
