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
package core

import (
	"context"
	"errors"
	"sort"
	"time"
)

// recordOutcome feeds one completed round trip into a pool's latency
// estimator: answers (found or authoritative not-found) are latency
// samples, transport failures and refused replies count toward the
// failing demotion, and cancelled reads (by a winner or the caller) say
// nothing about the medium.
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

// hedgeDelay returns how long a fetch waits on drive pool p before it
// asks a further copy, with inflight bytes still to arrive. The adaptive
// delay is tuned by KB-scale record reads; a megabyte shard transfer
// outlasts it even on a healthy drive, and hedging then launches reads
// against drives that are merely mid-transfer. So the delay is floored
// by a conservative wire-rate estimate (~100 MB/s) of the bytes in
// flight, and the floor is capped so a hung drive is still hedged
// promptly.
func (c *Controller) hedgeDelay(p *drivePool, inflight int) time.Duration {
	floor := min(time.Duration(inflight)*10*time.Nanosecond, maxHedgeDelay)
	if c.cfg.hedgeDelay > 0 {
		return max(c.cfg.hedgeDelay, floor)
	}
	d := defaultHedgeDelay
	if _, p95, n := p.latency(); n >= hedgeWarmup {
		d = min(max(p95+p95/4, minHedgeDelay), maxHedgeDelay)
	}
	return max(d, floor)
}

// fetchCand is one copy a fetch may read: a stripe shard — for a
// replicated record, slot 0 — on one drive.
type fetchCand struct {
	stripeShard
	pool *drivePool
}

// copies lists drives as a replicated record's candidates: one slot, a
// copy on each. The pools are resolved here, before any fetch goroutine
// starts: a straggler may run after the controller shut down and dropped
// its drive table, and must never index controller state.
func (c *Controller) copies(drives []int) []fetchCand {
	cands := make([]fetchCand, len(drives))
	for i, di := range drives {
		cands[i].pool = c.drives[di]
	}
	return cands
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
		ewma  time.Duration
		class int
	}
	rs := make([]ranked, len(cands))
	for i, cd := range cands {
		rs[i].fetchCand = cd
		rs[i].ewma, _, _ = cd.pool.latency()
	}
	sort.SliceStable(rs, func(i, j int) bool { return rs[i].ewma < rs[j].ewma })
	first := make([]bool, k)
	for i := range rs {
		r := &rs[i]
		switch failing := r.pool.failing(); {
		case failing && r.slot < k:
			r.class = 3
		case failing:
			r.class = 4
		case r.slot >= k:
			r.class = 2
		case first[r.slot]:
			r.class = 1
		default:
			first[r.slot] = true
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
func fetch[R, T any](ctx context.Context, c *Controller, k int, cands []fetchCand, slotBytes int,
	get func(context.Context, fetchCand) (R, error), open func(fetchCand, R) (T, error), drop func(T)) ([]T, error) {
	order := fetchOrder(k, cands)
	nslots := k
	for _, cd := range order {
		nslots = max(nslots, cd.slot+1)
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
		inflight[order[i].slot]++
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
			if seq[i] == 0 && (slot < 0 || cd.slot == slot) {
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
			arm(c.hedgeDelay(order[last].pool, slotBytes*max(pending, 1)))
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
			inflight[cd.slot]--
			recordOutcome(cd.pool, r.rtt, r.err)
			switch {
			case r.err != nil:
				if lastErr == nil || !isAbsent(r.err) {
					lastErr = r.err
				}
				if have < k {
					i := untried(cd.slot)
					if i < 0 {
						i = next // no copy of the slot left: the next candidate
					}
					for ; i >= 0; i = untried(cd.slot) {
						launch(i)
					}
				}
			case filled[cd.slot]:
				if drop != nil {
					drop(r.val) // a slower copy of a slot already in hand
				}
			default:
				got[cd.slot], filled[cd.slot] = r.val, true
				have++
				lastWin = r.i
			}
		case <-fire:
			if have >= k {
				patienceOver = true
			} else {
				c.stats.ReadHedges.Inc()
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
			order[i].pool.observe(time.Since(starts[i]))
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
