// The head wave: the heads of a multi-key write's cache misses read off
// the drives with multi-key reads, so a wave costs each drive at most
// two round trips instead of each key one to three. The drives are
// outside the trusted base: every reply is checked before anything is
// built on it (checkHeads), every copy is opened by the head's one
// election (newestMeta), and absence takes every placement drive's word,
// as in the fetch engine. What the wave cannot settle goes through the
// per-key path, loadHead, which keeps hedging and failover.
package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"maps"
	"slices"
	"time"

	"repro/internal/kinetic/kclient"
	"repro/internal/kinetic/wire"
	"repro/internal/store"
)

// waveKey is one key of a head wave and what the drives said of it.
type waveKey struct {
	key       string
	dk        []byte // the head's drive key
	placement []int
	asked     []int    // placement drives asked, in any round
	absent    int      // placement drives that answered it absent
	copies    [][]byte // this round's found copies, for the election
	head      *store.Meta
}

// settled reports whether the wave knows the key's head: a copy that
// opens for the key, or absence on every placement drive.
func (w *waveKey) settled() bool { return w.head != nil || w.absent == len(w.placement) }

// headWave loads the heads of keys, none of them cached, in two rounds
// of multi-key reads. Round 1 asks each key's first-choice replica — the
// one the fetch engine would ask first — grouped by drive. Round 2 asks
// the rest of each placement, but only for the keys round 1 did not
// settle. A drive that fails a request, or answers one with a reply
// checkHeads refuses, is failed for the wave: it is not asked again, and
// the keys it did not answer cannot be proven absent. Every key the two
// rounds leave unsettled is loaded through loadHead. Found heads are
// published to the meta cache, as loadHead would.
func (c *Controller) headWave(ctx context.Context, keys []string, ask headAsker) []headLoad {
	wk := make([]waveKey, len(keys))
	for i, k := range keys {
		wk[i] = waveKey{key: k, dk: store.MetaKey(k), placement: c.placement(k)}
	}
	c.waveRounds(ctx, wk, c.firstChoices(), ask)

	out := make([]headLoad, len(keys))
	var rest []int
	for i := range wk {
		switch w := &wk[i]; {
		case w.head != nil:
			c.metaCache.Put(w.key, w.head)
			out[i] = headLoad{meta: w.head}
		case w.settled():
			out[i] = headLoad{err: absentHead(w.key)}
		default:
			rest = append(rest, i)
		}
	}
	inParallel(len(rest), func(j int) { out[rest[j]] = c.loadHead(ctx, keys[rest[j]]) })
	return out
}

// absentHead is the error a unanimous not-found of key's head surfaces
// as, worded as fetchMeta's.
func absentHead(key string) error { return fmt.Errorf("%w: meta %q", ErrNotFound, key) }

// firstChoices returns, for a placement, the drive the fetch engine asks
// first (fetchOrder): the lowest latency estimate among the healthy
// drives, else among the failing ones, ties to the placement's order.
// The estimates are read once per wave.
func (c *Controller) firstChoices() func(placement []int) int {
	type rank struct {
		failing bool
		ewma    time.Duration
	}
	ranks := make([]rank, len(c.drives))
	for di, p := range c.drives {
		ranks[di].ewma, _, _ = p.latency()
		ranks[di].failing = p.failing()
	}
	return func(placement []int) int {
		best := placement[0]
		for _, di := range placement[1:] {
			if r, b := ranks[di], ranks[best]; !r.failing && b.failing || r.failing == b.failing && r.ewma < b.ewma {
				best = di
			}
		}
		return best
	}
}

// headAsker is one multi-key read of heads off drive di: askHeads, for
// the controller's drives.
type headAsker func(ctx context.Context, di int, dks [][]byte) (kclient.Many, error)

// askers is the controller's headAsker. The pools are resolved here,
// before any wave goroutine starts, as the fetch engine's are (copies).
func (c *Controller) askers() headAsker {
	pools := slices.Clone(c.drives)
	return func(ctx context.Context, di int, dks [][]byte) (kclient.Many, error) {
		return c.askHeads(ctx, pools[di], dks)
	}
}

// waveRounds runs the wave's two rounds over wk, asking drives through
// ask; first picks a placement's round-1 drive. It settles what the
// replies prove and leaves the rest unsettled.
func (c *Controller) waveRounds(ctx context.Context, wk []waveKey, first func(placement []int) int, ask headAsker) {
	failed := map[int]bool{}
	c.waveRound(ctx, wk, failed, ask, func(w *waveKey) []int { return []int{first(w.placement)} })
	c.waveRound(ctx, wk, failed, ask, func(w *waveKey) []int {
		if w.settled() {
			return nil
		}
		return slices.DeleteFunc(slices.Clone(w.placement), func(di int) bool {
			return failed[di] || slices.Contains(w.asked, di)
		})
	})
}

// waveRequest is one multi-key read of a round: a drive and the keys
// (indexes into the wave) it is asked.
type waveRequest struct {
	di    int
	keys  []int
	reply kclient.Many
	err   error
}

// waveRound asks each key of wk the drives drives(key) names, grouped
// into one request per drive and MaxBatchOps keys, all at once; then
// tallies the answers and elects each key's head from the copies found.
// A drive whose request fails joins failed.
func (c *Controller) waveRound(ctx context.Context, wk []waveKey, failed map[int]bool, ask headAsker, drives func(*waveKey) []int) {
	byDrive := map[int][]int{}
	for i := range wk {
		for _, di := range drives(&wk[i]) {
			byDrive[di] = append(byDrive[di], i)
			wk[i].asked = append(wk[i].asked, di)
		}
	}
	var reqs []waveRequest
	for _, di := range slices.Sorted(maps.Keys(byDrive)) {
		for keys := range slices.Chunk(byDrive[di], wire.MaxBatchOps) {
			reqs = append(reqs, waveRequest{di: di, keys: keys})
		}
	}
	inParallel(len(reqs), func(r int) {
		req := &reqs[r]
		dks := make([][]byte, len(req.keys))
		for j, i := range req.keys {
			dks[j] = wk[i].dk
		}
		req.reply, req.err = ask(ctx, req.di, dks)
	})
	for _, req := range reqs {
		if req.err != nil {
			failed[req.di] = true
			continue
		}
		for j, found := range req.reply.Found {
			if w := &wk[req.keys[j]]; found {
				w.copies = append(w.copies, req.reply.Values[j])
			} else {
				w.absent++
			}
		}
	}
	var slots [2]store.Meta
	for i := range wk {
		if w := &wk[i]; len(w.copies) > 0 {
			// A copy that opens for no key of its own leaves the key
			// unsettled: a drive held something under it, so it is not
			// absent either.
			if best, _, err := c.newestMeta(w.key, w.copies, &slots); err == nil {
				head := *best
				w.head = &head
			}
			w.copies = nil
		}
	}
	for _, req := range reqs {
		req.reply.Release()
	}
}

// askHeads is one multi-key read of heads and the only caller of
// kclient.GetMany. A reply that fails checkHeads is a failed read of
// that drive: fed to the pool's failure demotion, and never seen by the
// caller. A reply is no latency sample: it serves many reads.
func (c *Controller) askHeads(ctx context.Context, p *drivePool, dks [][]byte) (kclient.Many, error) {
	c.chargeDriveIO(0)
	m, err := p.pick().GetMany(ctx, dks)
	if err == nil {
		moved := 0
		for _, v := range m.Values {
			moved += len(v)
		}
		c.cost.MoveBytes(moved)
		if err = checkHeads(m, dks); err != nil {
			m.Release()
			m = kclient.Many{}
		}
	}
	if err != nil {
		recordOutcome(p, 0, err)
		return m, fmt.Errorf("core: drive %s: %w", p.name, err)
	}
	return m, nil
}

// checkHeads verifies a multi-key read reply answers the asked keys in
// the order asked, each once, none that was not asked; that it is cut
// only where it says so, and never to nothing (the drive always answers
// the first key); and that an absent key carries no value.
func checkHeads(m kclient.Many, asked [][]byte) error {
	if len(m.Keys) > len(asked) {
		return fmt.Errorf("core: drive multi-key reply answers %d keys, %d asked", len(m.Keys), len(asked))
	}
	for i, k := range m.Keys {
		if !bytes.Equal(k, asked[i]) {
			return fmt.Errorf("core: drive multi-key reply answers key %d out of turn", i)
		}
		if !m.Found[i] && len(m.Values[i]) > 0 {
			return fmt.Errorf("core: drive multi-key reply has a value for absent key %d", i)
		}
	}
	switch {
	case len(m.Keys) == 0:
		return errors.New("core: drive multi-key reply answers nothing")
	case m.Truncated != (len(m.Keys) < len(asked)):
		return fmt.Errorf("core: drive multi-key reply answers %d of %d keys, truncated %t", len(m.Keys), len(asked), m.Truncated)
	}
	return nil
}
