// Range walk: the one way the controller enumerates drive keys. The
// drives are outside the trusted base, so every range reply is checked
// before anything is built on it (rangePage), and every enumeration —
// a listing page, a sweeper tick, a handoff export, standby warm-up, a
// key's version and chunk records — is the merged, deduplicated stream
// of one or several drives (rangeWalk).

package records

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/kinetic/kclient"
	"repro/internal/store"
)

// rangePage asks one drive for up to want keys (0: the drive's cap) of
// [start, end] and is the only caller of kclient.Range. A reply that
// fails checkRange is a failed read of that drive: counted, fed to the
// pool's failure demotion, and never seen by the caller — so a reply
// marked Truncated always ends on a key past start, and every loop over
// pages makes strict progress whatever the drive answers.
func (d *Drives) rangePage(ctx context.Context, p *pool, start []byte, inclusive bool, end []byte, want int, withValues bool) (kclient.KeyRange, error) {
	d.chargeIO(0)
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
	d.cfg.Cost.MoveBytes(moved)
	if err := checkRange(kr, start, inclusive, end, withValues); err != nil {
		d.cfg.RangeRejects.Inc()
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

	d *Drives
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

// walk starts w over d's drives.
func (d *Drives) walk(ctx context.Context, w *rangeWalk) *rangeWalk {
	w.d = d
	w.fetch = func(di int, start []byte, inclusive bool) (kclient.KeyRange, error) {
		return d.rangePage(ctx, d.pools[di], start, inclusive, w.end, w.page, w.values)
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
	lists := make([]driveRange, len(w.d.pools))
	ask := func(drives []int) (failed bool) {
		_ = Fanout(drives, func(di int) error { // failures are per drive, in lists
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
		w.d.cfg.Widened.Inc()
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

// Keys lists the drive keys of key's version records and of its chunk
// records on drive di: what a delete of key destroys there.
func (d *Drives) Keys(ctx context.Context, di int, key string) (versions, chunks [][]byte, err error) {
	start, end := store.ObjectKeyRange(key)
	if versions, err = d.keys(ctx, di, start, end); err == nil {
		start, end = store.ChunkKeyRange(key)
		chunks, err = d.keys(ctx, di, start, end)
	}
	return versions, chunks, err
}

// keys drains drive di's keys in [start, end] past its per-reply cap.
func (d *Drives) keys(ctx context.Context, di int, start, end []byte) ([][]byte, error) {
	w := d.walk(ctx, &rangeWalk{drives: []int{di}, cursor: start, inclusive: true, end: end})
	defer w.release()
	var out [][]byte
	for dk, _, _, ok := w.next(); ok; dk, _, _, ok = w.next() {
		out = append(out, bytes.Clone(dk))
	}
	return out, w.err
}

// Versions returns the ascending union of key's version records (≤
// maxVer — records beyond the newest committed head are uncommitted
// leftovers) still present on any drive of placement, by walking the
// key's record range: cost scales with surviving records, not version
// history. The enumeration stands while all but tolerate drives answer
// it.
func (d *Drives) Versions(ctx context.Context, key string, maxVer int64, placement []int, tolerate int) ([]int64, error) {
	w := d.walk(ctx, &rangeWalk{drives: placement, cursor: store.ObjectKey(key, 0), inclusive: true,
		end: store.ObjectKey(key, maxVer), tolerate: tolerate})
	defer w.release()
	var out []int64
	for dk, _, _, ok := w.next(); ok; dk, _, _, ok = w.next() {
		if _, v, err := store.VersionFromObjectKey(dk); err == nil {
			out = append(out, v)
		}
	}
	return out, w.err
}

// HeadScan is a walk of head records: every object key with prefix Prefix
// from From on (From itself only when Inclusive), some drive of Drives
// holds a head of, Page keys asked of each drive a round (0: the drive's
// cap). Cover and Tolerate are the walk's (rangeWalk).
type HeadScan struct {
	Drives    []int
	Cover     int
	From      string
	Inclusive bool
	Prefix    string
	Page      int
	Tolerate  int
}

// Heads is a running HeadScan. Next steps it to the next key; Elect opens
// that key's walked copies. Close hands the last replies back.
type Heads struct {
	w      *rangeWalk
	copies [][]byte // the current key's copies, in drive order
	mask   uint64
	Err    error // why the walk stopped short; set once Next returns false
}

// Heads starts a walk of heads.
func (d *Drives) Heads(ctx context.Context, s HeadScan) *Heads {
	_, end := store.MetaKeyRange(s.Prefix)
	return &Heads{w: d.walk(ctx, &rangeWalk{drives: s.Drives, cover: s.Cover, cursor: store.MetaKey(s.From),
		inclusive: s.Inclusive, end: end, page: s.Page, values: true, tolerate: s.Tolerate})}
}

// Next steps to the next object key, with the bitmask of the drives
// holding a head under it (drive di is bit di; a drive past the 64th has
// none). ok is false at the end of the walk and when it failed (Err).
func (h *Heads) Next() (key string, mask uint64, ok bool) {
	var dk []byte
	if dk, h.mask, h.copies, ok = h.w.next(); !ok {
		h.Err = h.w.err
		return "", 0, false
	}
	return string(dk[2:]), h.mask, true // strip the metadata namespace prefix
}

// Elect is the head election (elect) over the current key's walked
// copies: in drive order, or with placement, by placement slot — a
// drive of it that holds none is an empty slot.
func (h *Heads) Elect(key string, placement []int, slots *[2]store.Meta) (*store.Meta, uint64, error) {
	copies := h.copies
	if placement != nil {
		copies = make([][]byte, len(placement))
		for i, di := range placement {
			if bit := uint64(1) << uint(di); h.mask&bit != 0 {
				copies[i] = h.copies[bits.OnesCount64(h.mask&(bit-1))]
			}
		}
	}
	return elect(h.w.d.cfg.Codec, key, copies, slots)
}

// Close hands the walk's last replies back: no copy it read may be used
// after it.
func (h *Heads) Close() { h.w.release() }
