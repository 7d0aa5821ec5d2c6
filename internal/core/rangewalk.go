// Range walk: the one way the controller enumerates drive keys. The
// drives are outside the trusted base, so every range reply is checked
// before anything is built on it (rangePage), and every enumeration —
// a listing page, a sweeper tick, a handoff export, standby warm-up, a
// key's version and chunk records — is either one drive drained
// (rangeAll) or the merged, deduplicated stream of several (rangeWalk).
package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"slices"

	"repro/internal/kinetic/kclient"
)

// rangePage asks one drive for up to want keys (0: the drive's cap) of
// [start, end] and is the only caller of kclient.Range. A reply that
// fails checkRange is a failed read of that drive: counted, fed to the
// pool's failure demotion, and never seen by the caller — so a reply
// marked Truncated always ends on a key past start, and every loop over
// pages makes strict progress whatever the drive answers.
func (c *Controller) rangePage(ctx context.Context, p *drivePool, start []byte, inclusive bool, end []byte, want int, withValues bool) (kclient.KeyRange, error) {
	c.chargeDriveIO(0)
	kr, err := p.pick().Range(ctx, start, end, inclusive, false, want, withValues)
	if err != nil {
		return kclient.KeyRange{}, err
	}
	moved := 0
	for _, k := range kr.Keys {
		moved += len(k)
	}
	for _, v := range kr.Values {
		moved += len(v)
	}
	c.cost.MoveBytes(moved)
	if err := checkRange(kr, start, inclusive, end, withValues); err != nil {
		c.stats.RangeRejects.Inc()
		recordOutcome(p, 0, err)
		kr.Release()
		return kclient.KeyRange{}, fmt.Errorf("core: drive %s: %w", p.name, err)
	}
	return kr, nil
}

// checkRange verifies a range reply is strictly ascending, inside the
// asked range (start itself only when inclusive), not marked cut
// without a last key to resume from, and — when values were asked for —
// carries one per key.
func checkRange(kr kclient.KeyRange, start []byte, inclusive bool, end []byte, withValues bool) error {
	prev := start
	for i, k := range kr.Keys {
		if cmp := bytes.Compare(k, prev); cmp < 0 || (cmp == 0 && !(i == 0 && inclusive)) {
			return fmt.Errorf("core: drive range reply out of order at key %d", i)
		}
		prev = k
	}
	if len(kr.Keys) == 0 && kr.Truncated {
		return errors.New("core: drive range reply truncated to nothing")
	}
	if len(kr.Keys) > 0 && bytes.Compare(prev, end) > 0 {
		return errors.New("core: drive range reply past the asked range")
	}
	if withValues && len(kr.Values) != len(kr.Keys) {
		return fmt.Errorf("core: drive range reply with %d values for %d keys", len(kr.Values), len(kr.Keys))
	}
	return nil
}

// rangeAll drains one drive's keys in [start, end] past the drive's
// per-response cap. Keys only: the ranges drained here hold object and
// chunk records.
func (c *Controller) rangeAll(ctx context.Context, p *drivePool, start, end []byte) ([][]byte, error) {
	var out [][]byte
	for inclusive := true; ; inclusive = false {
		kr, err := c.rangePage(ctx, p, start, inclusive, end, 0, false)
		if err != nil {
			return nil, err
		}
		out = append(out, kr.Keys...)
		if !kr.Truncated {
			return out, nil
		}
		start = kr.Keys[len(kr.Keys)-1]
	}
}

// rangeWalk is one merged enumeration of [cursor, end] across a set of
// drives. It proceeds in rounds: every drive of the set (or of its
// cover) is asked for its next page at once, the sorted replies are
// consumed as one deduplicated ascending stream by next, and — because
// each drive cuts its reply independently — a round is only trusted up
// to the smallest last key among the truncated replies (the
// completeness horizon); the next round resumes past it. A drive that
// fails, or whose reply
// rangePage rejects, did not answer its round; what that costs is the
// consumer's rule, given as tolerate.
type rangeWalk struct {
	drives []int // drive indexes to ask
	// cover, when > 0, asks only drives[:cover] in a round that all of
	// them answer; in any other round the rest are asked too, from the
	// same cursor, and tolerate applies to the whole set. Only the
	// listing has one (listingDrives).
	cover     int
	cursor    []byte // where the next round starts
	inclusive bool   // whether cursor itself is in the range
	end       []byte // inclusive upper bound
	page      int    // keys asked of each drive per round (0: the drive's cap)
	values    bool   // ask for each key's value beside it
	// tolerate is how many drives of the set may fail to answer a round
	// before the keys they alone hold could be missing from it: the walk
	// fails rather than yield a stream with holes.
	tolerate int

	c *Controller
	// fetch is one drive's checked page from (start, inclusive) on.
	fetch func(di int, start []byte, inclusive bool) (kclient.KeyRange, error)

	lists   []driveRange // this round's replies, by drive index
	horizon []byte       // this round's completeness horizon; nil: no reply was cut
	started bool         // a round has run
	copies  [][]byte     // next's result, reused across calls
	err     error        // why the walk stopped short; nil when it ran to the end
}

// driveRange is one drive's reply and the merge's position in it.
type driveRange struct {
	kclient.KeyRange
	pos int
	err error
}

// walk starts w over this controller's drives.
func (c *Controller) walk(ctx context.Context, w *rangeWalk) *rangeWalk {
	w.c = c
	w.fetch = func(di int, start []byte, inclusive bool) (kclient.KeyRange, error) {
		return c.rangePage(ctx, c.drives[di], start, inclusive, w.end, w.page, w.values)
	}
	return w
}

// next pops the smallest key the walk has not yet produced, with the
// bitmask of the drives reporting it (drive di is bit di; a drive past
// the 64th has none) and, when values were asked for, each one's copy
// of its value. All three are valid until the following call. ok is
// false at the end of the range and when the walk failed — w.err tells
// which.
func (w *rangeWalk) next() (dk []byte, mask uint64, copies [][]byte, ok bool) {
	for {
		for i := range w.lists {
			l := &w.lists[i]
			if l.pos < len(l.Keys) && (!ok || bytes.Compare(l.Keys[l.pos], dk) < 0) {
				dk, ok = l.Keys[l.pos], true
			}
		}
		if ok && (w.horizon == nil || bytes.Compare(dk, w.horizon) <= 0) {
			break
		}
		if w.err != nil || (w.started && w.horizon == nil) {
			return nil, 0, nil, false
		}
		w.round()
		ok = false
	}
	copies = w.copies[:0]
	for di := range w.lists {
		l := &w.lists[di]
		if l.pos < len(l.Keys) && bytes.Equal(l.Keys[l.pos], dk) {
			mask |= 1 << uint(di)
			if w.values {
				copies = append(copies, l.Values[l.pos])
			}
			l.pos++
		}
	}
	w.copies = copies
	return dk, mask, copies, true
}

// round asks every drive of the set (or its cover) for its next page
// and installs the replies. Every key at or below the previous horizon
// has been merged by then (even ones the consumer dropped), which is
// what keeps the cursor advancing.
func (w *rangeWalk) round() {
	if w.started {
		w.cursor, w.inclusive = w.horizon, false
	}
	lists := make([]driveRange, len(w.c.drives))
	ask := func(drives []int) (failed bool) {
		_ = w.c.fanout(drives, func(di int) error { // failures are per drive, in lists
			if kr, err := w.fetch(di, w.cursor, w.inclusive); err != nil {
				lists[di].err = err // and no key of it is merged
			} else {
				lists[di].KeyRange = kr
			}
			return nil
		})
		return slices.ContainsFunc(drives, func(di int) bool { return lists[di].err != nil })
	}
	asked := w.drives
	if w.cover > 0 {
		asked = w.drives[:w.cover]
	}
	if ask(asked) && len(asked) < len(w.drives) {
		// The cover no longer holds two copies of every window this round.
		ask(w.drives[len(asked):])
		asked = w.drives
		w.c.stats.ScanWidened.Inc()
	}
	// Only now may the previous replies go back for reuse: the cursor
	// just asked for was a key of one of them.
	w.release()
	w.lists, w.horizon, w.started = lists, nil, true
	unanswered := 0
	var lastErr error
	for _, di := range asked {
		l := &lists[di]
		if l.err != nil {
			unanswered++
			lastErr = l.err
		} else if l.Truncated {
			if last := l.Keys[len(l.Keys)-1]; w.horizon == nil || bytes.Compare(last, w.horizon) < 0 {
				w.horizon = last
			}
		}
	}
	if unanswered > w.tolerate {
		w.err = fmt.Errorf("core: range walk cannot guarantee coverage, %d of %d drives did not answer: %w", unanswered, len(asked), lastErr)
		w.release()
	}
}

// release hands the current round's replies back for reuse; no key or
// value the walk produced may be used after it.
func (w *rangeWalk) release() {
	for i := range w.lists {
		w.lists[i].Release()
	}
	w.lists = nil
}
