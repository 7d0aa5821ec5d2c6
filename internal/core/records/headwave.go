// The head wave: the heads of a multi-key write's cache misses read off
// the drives with multi-key reads, so a wave costs each drive at most
// two round trips instead of each key one to three. The drives are
// outside the trusted base: every reply is checked before anything is
// built on it (checkHeads), every copy is opened by the head's one
// election (elect), and absence takes every placement drive's word, as
// in the fetch engine. What the wave cannot settle the controller reads
// per key (ReadHead), which keeps hedging and failover. This file also
// holds the head's other multi-copy reads: ReadHeads, and the probes of
// repair and the sweeper.

package records

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"maps"
	"slices"

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

// Head is what a head wave settled of one key: its head, or Absent —
// every placement drive answered it absent — or, with neither, nothing.
type Head struct {
	Meta   *store.Meta
	Absent bool
}

// HeadWave reads the heads of keys, each off placement(key), in two rounds
// of multi-key reads. Round 1 asks each key's first-choice replica — the
// one the fetch engine would ask first — grouped by drive. Round 2 asks
// the rest of each placement, but only for the keys round 1 did not
// settle. A drive that fails a request, or answers one with a reply
// checkHeads refuses, is failed for the wave: it is not asked again, and
// the keys it did not answer cannot be proven absent. wrap, when set, is
// handed each request of the wave — its drive, and the read, whose error
// it returns.
func (d *Drives) HeadWave(ctx context.Context, keys []string, placement func(string) []int, wrap func(di int, read func() error) error) []Head {
	wk := make([]waveKey, len(keys))
	for i, k := range keys {
		wk[i] = waveKey{key: k, dk: store.MetaKey(k), placement: placement(k)}
	}
	ask := d.askers()
	if wrap != nil {
		real := ask
		ask = func(ctx context.Context, di int, dks [][]byte) (m kclient.Many, err error) {
			err = wrap(di, func() error { m, err = real(ctx, di, dks); return err })
			return m, err
		}
	}
	d.waveRounds(ctx, wk, d.FirstChoices(), ask)
	out := make([]Head, len(keys))
	for i := range wk {
		out[i] = Head{Meta: wk[i].head, Absent: wk[i].head == nil && wk[i].settled()}
	}
	return out
}

// FirstChoices returns, for a placement, the drive the fetch engine asks
// first (fetchOrder): the first by the replica ranking (estimate.before),
// ties to the placement's order. The estimates are read once.
func (d *Drives) FirstChoices() func(placement []int) int {
	ests := make([]estimate, len(d.pools))
	for di, p := range d.pools {
		ests[di] = p.lat.estimate()
	}
	return func(placement []int) int {
		best := placement[0]
		for _, di := range placement[1:] {
			if ests[di].before(ests[best]) {
				best = di
			}
		}
		return best
	}
}

// headAsker is one multi-key read of heads off drive di: askHeads, for
// the controller's drives.
type headAsker func(ctx context.Context, di int, dks [][]byte) (kclient.Many, error)

// askers is d's headAsker. The pools are resolved here, before any wave
// goroutine starts, as the fetch engine's are (copies).
func (d *Drives) askers() headAsker {
	pools := slices.Clone(d.pools)
	return func(ctx context.Context, di int, dks [][]byte) (kclient.Many, error) {
		return d.askHeads(ctx, pools[di], dks)
	}
}

// waveRounds runs the wave's two rounds over wk, asking drives through
// ask; first picks a placement's round-1 drive. It settles what the
// replies prove and leaves the rest unsettled.
func (d *Drives) waveRounds(ctx context.Context, wk []waveKey, first func(placement []int) int, ask headAsker) {
	failed := map[int]bool{}
	d.waveRound(ctx, wk, failed, ask, func(w *waveKey) []int { return []int{first(w.placement)} })
	d.waveRound(ctx, wk, failed, ask, func(w *waveKey) []int {
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
func (d *Drives) waveRound(ctx context.Context, wk []waveKey, failed map[int]bool, ask headAsker, drives func(*waveKey) []int) {
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
	InParallel(len(reqs), func(r int) {
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
			if best, _, err := elect(d.cfg.Codec, w.key, w.copies, &slots); err == nil {
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
func (d *Drives) askHeads(ctx context.Context, p *pool, dks [][]byte) (kclient.Many, error) {
	d.chargeIO(0)
	m, err := p.pick().GetMany(ctx, dks)
	if err == nil {
		moved := 0
		for _, v := range m.Values {
			moved += len(v)
		}
		d.cfg.Cost.MoveBytes(moved)
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

// elect is the one election among copies of key's head record, for a
// listing, the head wave, repair, the sweeper and warm-up. The codec
// opens each copy and refuses another object's record: its policy must
// not judge key. The newest copy that opens wins, the first of equal
// versions, and bit i of current reports whether copies[i] opens at that
// version (past the 64th, none does). Byte-equal copies, the healthy
// case, are opened once, into slots a caller may reuse. With no copy
// that opens it fails: an entry that cannot be policy-checked is never
// listed, and dropping it silently would hide an object from a reader
// entitled to it.
func elect(codec *store.Codec, key string, copies [][]byte, slots *[2]store.Meta) (best *store.Meta, current uint64, err error) {
	best, spare := &slots[0], &slots[1]
	var bestRaw []byte
	found := false
	for i, raw := range copies {
		bit := uint64(1) << uint(i)
		if found && bytes.Equal(raw, bestRaw) {
			current |= bit
			continue
		}
		m := best
		if found {
			m = spare
		}
		m.Key = key // DecodeMeta keeps a key it finds already there
		if codec.DecodeMeta(raw, key, m) != nil {
			continue
		}
		switch {
		case found && m.Version == best.Version:
			current |= bit
		case !found || m.Version > best.Version:
			if found {
				best, spare = spare, best
			}
			found, bestRaw, current = true, raw, bit
		}
	}
	if !found {
		return nil, 0, fmt.Errorf("core: no readable metadata copy of %q: %w", key, store.ErrCorrupt)
	}
	return best, current, nil
}

// ReadHeads reads every placement drive's head of key at once and elects
// the newest copy that names key (elect): bit i of current is set when
// placement[i]'s copy opens at the elected version. strict fails it on a
// copy a drive could not read (unread).
func (d *Drives) ReadHeads(ctx context.Context, key string, placement []int, strict bool) (*store.Meta, uint64, error) {
	dk := store.MetaKey(key)
	copies := make([][]byte, len(placement)) // by placement slot; nil: no copy read
	errs := make([]error, len(placement))
	_ = Fanout(placement, func(di int) error { // failures are per slot, in errs
		i := slices.Index(placement, di)
		copies[i], _, errs[i] = d.conn(di, 0).Get(ctx, dk)
		return nil
	})
	for _, err := range errs {
		if err := unread(strict, dk, err); err != nil {
			return nil, 0, err
		}
	}
	var slots [2]store.Meta
	elected, current, err := elect(d.cfg.Codec, key, copies, &slots)
	if err != nil {
		if slices.ContainsFunc(errs, func(err error) bool { return errors.Is(err, kclient.ErrNotFound) }) {
			err = fmt.Errorf("%w: %q", ErrNotFound, key)
		} else if failed := errors.Join(errs...); failed != nil {
			err = fmt.Errorf("core: all replicas failed reading meta %q: %w", key, failed)
		}
		return nil, 0, err
	}
	head := *elected
	return &head, current, nil
}

// unread fails a strict read — an export's — on a copy of dk it could
// not read (err, not not-found): release destroys the source's copies.
func unread(strict bool, dk []byte, err error) error {
	if !strict || err == nil || errors.Is(err, kclient.ErrNotFound) {
		return nil
	}
	return fmt.Errorf("core: export cannot read every copy of %q: %w", dk, err)
}

// probe asks each of drives once for the record under dk and judges
// every answer with open, the bound opener of dk — the judgement a read
// of dk makes. It returns the first healthy copy, opened and raw, the
// drives whose copy open accepted (that copy's first), and the drives
// holding none: absent, unreadable (failing a strict probe: unread) and
// refused.
func probe[T any](ctx context.Context, d *Drives, strict bool, drives []int, dk []byte, open func([]byte) (*T, error)) (v *T, blob []byte, held, missing []int, err error) {
	for _, di := range drives {
		cur, _, rerr := d.conn(di, 0).Get(ctx, dk)
		var got *T
		if rerr == nil {
			got, rerr = open(cur)
		} else if err = unread(strict, dk, rerr); err != nil {
			return nil, nil, nil, nil, err
		}
		if rerr != nil {
			missing = append(missing, di)
			continue
		}
		if v == nil {
			v, blob = got, cur
		}
		held = append(held, di)
	}
	return v, blob, held, missing, nil
}

// ProbeVersion and ProbeChunk are probe of key's version record and of
// chunk record idx of key's chunk set; ProbePolicy returns the drives of
// placement holding a copy of policy id that hashes back to it.
func (d *Drives) ProbeVersion(ctx context.Context, strict bool, drives []int, key string, version int64) (*store.Record, []byte, []int, []int, error) {
	return probe(ctx, d, strict, drives, store.ObjectKey(key, version), func(b []byte) (*store.Record, error) {
		return d.cfg.Codec.DecodeVersion(b, key, version)
	})
}
func (d *Drives) ProbeChunk(ctx context.Context, strict bool, drives []int, key string, set, idx int64) (*store.Record, []byte, []int, []int, error) {
	return probe(ctx, d, strict, drives, store.ChunkKey(key, set, idx), func(b []byte) (*store.Record, error) {
		return d.cfg.Codec.DecodeChunkInto(b, nil, key, set, idx)
	})
}
func (d *Drives) ProbePolicy(ctx context.Context, placement []int, id string) []int {
	_, _, held, _, _ := probe(ctx, d, false, placement, store.PolicyKey(id), openPolicy(id))
	return held
}

// HasVersion and HasChunk ask drive di, without reading the record,
// whether it holds key's version record, or chunk record idx of key's
// chunk set: nil, ErrNotFound, or why it could not say.
func (d *Drives) HasVersion(ctx context.Context, di int, key string, version int64) error {
	return d.has(ctx, di, store.ObjectKey(key, version))
}
func (d *Drives) HasChunk(ctx context.Context, di int, key string, set, idx int64) error {
	return d.has(ctx, di, store.ChunkKey(key, set, idx))
}
func (d *Drives) has(ctx context.Context, di int, dk []byte) error {
	_, err := d.conn(di, 0).GetVersion(ctx, dk)
	if errors.Is(err, kclient.ErrNotFound) {
		err = fmt.Errorf("%w: %q", ErrNotFound, dk)
	}
	return err
}
