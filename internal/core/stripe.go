// Storage classes as layouts. A streamed object is a sequence of chunk
// records; its storage class only decides which drives hold which
// record, and one engine (stream.go, repair.go) runs every class
// through the layout type below.
//
//	class        k  m  window              homes(idx)
//	replicated   1  0  placement(key)      every window drive
//	ec:k+m       k  m  ecGroup(key, k+m)   window[(slot+stripe) % len(window)]
//
// A stripe is k consecutive data chunks plus m Reed-Solomon parity
// shards over them. Replication is the degenerate stripe: one chunk,
// no parity, redundancy from the chunk's several homes instead. The
// erasure-coded class spends (k+m)/k× raw capacity instead of
// Replicas× while any m simultaneous drive losses stay survivable;
// reads fetch the data chunks in parallel and fall back to parity (any
// k of k+m shards win) only when a shard is slow or gone, so the
// decoder stays off the healthy path entirely.
//
// Parity shards are ordinary chunk records at the reserved index range
// store.ParityIndexBase+…, so they sort inside store.ChunkKeyRange —
// delete and orphan sweeps collect them with no extra bookkeeping —
// and carry the same authenticated chunk id binding (object, version,
// index) as data chunks. The stripe rotation in homes spreads parity
// writes across the whole group. Only (k, m) persist in the metadata —
// the window derives from the key and the current dead mask, and the
// stub + metadata records stay fully replicated on the ordinary
// placement drives, so version visibility and CAS semantics are the
// same for every class.
package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/ec"
	"repro/internal/kinetic/kclient"
	"repro/internal/store"
)

// layout is a storage class as the stream engine sees it.
type layout struct {
	k, m   int      // data chunks and parity shards per stripe
	window []int    // the drives the class spreads this key over, dead members substituted
	code   *ec.Code // nil when m == 0
}

// layoutOf builds key's layout for the class a version's metadata
// records (eck == 0: replicated). A parity class other than the
// configured one builds its code on the fly — objects written under an
// older (k, m) stay readable after a reconfiguration.
func (c *Controller) layoutOf(key string, eck, ecm int64) (layout, error) {
	if eck == 0 {
		return layout{k: 1, window: c.placement(key)}, nil
	}
	code := c.ecCode
	if code == nil || int64(code.DataShards()) != eck || int64(code.ParityShards()) != ecm {
		var err error
		if code, err = ec.New(int(eck), int(ecm)); err != nil {
			return layout{}, err
		}
	}
	return layout{k: int(eck), m: int(ecm), window: c.ecGroup(key, int(eck+ecm)), code: code}, nil
}

// ecShardDrive returns the group member homing shard slot s of stripe
// t (slots 0..k-1 are data, k..k+m-1 parity).
func ecShardDrive(group []int, slot int, stripe int64) int {
	g := int64(len(group))
	return group[(int64(slot)+stripe)%g]
}

// homes returns the drives that must hold chunk record idx (a data
// chunk or, at a store.ParityIndex, a parity shard).
func (l layout) homes(idx int64) []int {
	if l.m == 0 {
		return l.window
	}
	slot, stripe := idx%int64(l.k), idx/int64(l.k)
	if p := idx - store.ParityIndexBase; p >= 0 {
		slot, stripe = int64(l.k)+p%int64(l.m), p/int64(l.m)
	}
	return []int{ecShardDrive(l.window, int(slot), stripe)}
}

// stripeShard is one chunk record of a stripe: its slot (0..k-1 data,
// k..k+m-1 parity) and its chunk index.
type stripeShard struct {
	slot int
	idx  int64
}

// shards lists the records of stripe t of an object of chunks data
// chunks: the data chunks the stripe actually has (the final stripe
// may hold fewer than k), then its m parity shards.
func (l layout) shards(t, chunks int64) []stripeShard {
	kt := int(min(int64(l.k), chunks-t*int64(l.k)))
	out := make([]stripeShard, 0, kt+l.m)
	for s := 0; s < kt; s++ {
		out = append(out, stripeShard{s, t*int64(l.k) + int64(s)})
	}
	for j := 0; j < l.m; j++ {
		out = append(out, stripeShard{l.k + j, store.ParityIndex(t, int64(l.m), int64(j))})
	}
	return out
}

// chunkLen returns the true byte length of data chunk gi: every chunk
// is full except the object's final one.
func chunkLen(m *store.Meta, gi int64) int {
	if gi == m.Chunks-1 {
		if r := m.Size - (m.Chunks-1)*streamChunkSize; r > 0 {
			return int(r)
		}
	}
	return streamChunkSize
}

// pooledRec is a record whose payload lives in a pooled chunk buffer;
// release hands the buffer back. A zero pooledRec releases nothing.
type pooledRec struct {
	rec  *store.Record
	bufp *[]byte
}

func (p pooledRec) release() {
	if p.bufp != nil {
		chunkBufs.Put(p.bufp)
	}
}

// getChunkValue reads one raw chunk record — a data chunk or a parity
// shard — off one drive.
func (c *Controller) getChunkValue(ctx context.Context, p *drivePool, key string, version, idx int64) (kclient.Value, error) {
	c.chargeDriveIO(0)
	v, err := p.pick().GetValue(ctx, store.ChunkKey(key, version, idx))
	if errors.Is(err, kclient.ErrNotFound) {
		err = fmt.Errorf("%w: %q v%d chunk %d", ErrNotFound, key, version, idx)
	}
	return v, err
}

// openChunk decodes the raw chunk record in v into a pooled chunk
// buffer and hands v's frame back: the codec has copied or decrypted
// the payload out of it, authenticated, by the time it returns. A
// chunk record never enters the object cache — streamed reads are
// large and sequential, and a pooled payload must have exactly one
// owner.
func (c *Controller) openChunk(v kclient.Value, key string, version, idx int64) (pooledRec, error) {
	defer v.Release()
	c.cost.MoveBytes(len(v.Value))
	pr := pooledRec{bufp: chunkBufs.Get().(*[]byte)}
	var err error
	if pr.rec, err = c.codec.DecodeChunkInto(v.Value, *pr.bufp, key, version, idx); err != nil {
		pr.release()
		return pooledRec{}, err
	}
	return pr, nil
}

// stripeCand is one copy of a stripe shard a read may fetch.
type stripeCand struct {
	stripeShard
	pool *drivePool
}

// readOrder lists every copy of a stripe's shards in launch order: the
// fastest healthy home of each data chunk first (every one is wanted),
// then the data chunks' other homes and then the parity shards, each
// by latency estimate, then copies on failing drives (data before
// parity) as a last resort.
func (c *Controller) readOrder(l layout, shards []stripeShard) []stripeCand {
	pools := make([]*drivePool, len(l.window))
	for i, di := range l.window {
		pools[i] = c.drives[di]
	}
	rank := make(map[*drivePool]int, len(pools))
	for i, p := range orderByLatency(pools) {
		rank[p] = i
	}
	var cands []stripeCand
	for _, sh := range shards {
		for _, di := range l.homes(sh.idx) {
			cands = append(cands, stripeCand{sh, c.drives[di]})
		}
	}
	sort.SliceStable(cands, func(i, j int) bool { return rank[cands[i].pool] < rank[cands[j].pool] })
	var first, others, parity, failing []stripeCand
	primary := make([]bool, l.k)
	for _, cd := range cands {
		switch {
		case cd.pool.failing():
			failing = append(failing, cd)
		case cd.slot >= l.k:
			parity = append(parity, cd)
		case !primary[cd.slot]:
			primary[cd.slot] = true
			first = append(first, cd)
		default:
			others = append(others, cd)
		}
	}
	sort.SliceStable(failing, func(i, j int) bool { return failing[i].slot < l.k && failing[j].slot >= l.k })
	return append(append(append(first, others...), parity...), failing...)
}

// readStripe returns the data chunks of stripe t. One copy of every
// data chunk launches at once (all are wanted — parallelism is the
// point of striping); the remaining copies and the parity shards are
// hedges, launched on a fetch failure or when the hedge timer expires.
// Reconstruction runs only when a parity shard actually displaced a
// data chunk, so a layout without parity never decodes.
//
// The returned release hands the fetched shards' pooled buffers back;
// the data slices are invalid after it runs.
func (c *Controller) readStripe(ctx context.Context, l layout, meta *store.Meta, t int64) ([][]byte, func(), error) {
	shards := l.shards(t, meta.Chunks)
	kt := len(shards) - l.m
	shardLen := chunkLen(meta, t*int64(l.k)) // the stripe's first chunk sizes its shards
	key, version := meta.Key, meta.Version

	// The adaptive hedge delay is tuned by KB-scale record reads; a
	// megabyte shard transfer outlasts it even on a healthy drive, and
	// hedging then launches fetches against drives that are merely
	// mid-transfer — wasted reads that cost more than the tail they
	// trim. Floor the delay at a conservative wire-rate estimate of the
	// bytes still in flight (parallel transfers share the paths, so a
	// full-width launch legitimately takes k shard-times) and the cap
	// keeps a genuinely hung drive hedged promptly.
	hedgeAfter := func(pool *drivePool, dataPending int) time.Duration {
		floor := time.Duration(shardLen) * time.Duration(max(dataPending, 1)) * 10 * time.Nanosecond // ~100 MB/s
		floor = min(max(floor, time.Millisecond), maxHedgeDelay)
		return max(c.hedgeDelay(pool), floor)
	}

	order := c.readOrder(l, shards)
	type result struct {
		i   int // index into order
		pr  pooledRec
		err error
		// The drive round trip alone, for the latency estimator: a record
		// that fails to open says nothing about the medium's speed.
		rtt    time.Duration
		rttErr error
	}
	fctx, cancel := context.WithCancel(ctx)
	defer cancel()
	results := make(chan result, len(order))
	starts := make([]time.Time, len(order))
	done := make([]bool, len(order))
	inflight := make([]int, l.k+l.m) // fetches out per slot
	launched, outstanding := 0, 0
	launch := func() {
		i, cd := launched, order[launched]
		launched++
		outstanding++
		inflight[cd.slot]++
		starts[i] = time.Now()
		go func() {
			r := result{i: i}
			v, err := c.getChunkValue(fctx, cd.pool, key, version, cd.idx)
			r.rtt, r.rttErr, r.err = time.Since(starts[i]), err, err
			if err == nil {
				r.pr, r.err = c.openChunk(v, key, version, cd.idx)
			}
			results <- r
		}()
	}
	for launched < kt {
		launch()
	}

	// A parity arrival must not end the read while healthy data
	// fetches are still in flight: displacing a data chunk forces a
	// decode, and the decoder belongs off the healthy path. Once a k
	// quorum exists, outstanding data chunks get one more hedge-delay
	// of grace; only then does the read settle for the parity quorum.
	got := make([]pooledRec, l.k+l.m) // by slot
	have, haveData, lastWin := 0, 0, -1
	var lastErr error
	var patienceTimer *time.Timer
	var patience <-chan time.Time
	patienceOver := false
	for haveData < kt && outstanding > 0 {
		dataPending := 0
		for s := 0; s < kt; s++ {
			if got[s].rec == nil && inflight[s] > 0 {
				dataPending++
			}
		}
		if have >= kt && (dataPending == 0 || patienceOver) {
			break
		}
		if have >= kt && patience == nil {
			patienceTimer = time.NewTimer(hedgeAfter(order[launched-1].pool, dataPending))
			patience = patienceTimer.C
		}
		var timer *time.Timer
		var hedge <-chan time.Time
		if have < kt && launched < len(order) {
			timer = time.NewTimer(hedgeAfter(order[launched-1].pool, dataPending))
			hedge = timer.C
		}
		select {
		case r := <-results:
			outstanding--
			done[r.i] = true
			cd := order[r.i]
			inflight[cd.slot]--
			// One estimator sample per physical read, recorded here and
			// not in the fetch: a straggler finishing after the stripe
			// settled is charged below and must not count twice.
			recordOutcome(cd.pool, r.rtt, r.rttErr)
			switch {
			case r.err != nil:
				// Absence needs unanimity: an error outranks a not-found.
				if lastErr == nil || !errors.Is(r.err, ErrNotFound) {
					lastErr = r.err
				}
				if have < kt && launched < len(order) {
					launch()
				}
			case got[cd.slot].rec != nil:
				r.pr.release() // a slower copy of a chunk already in hand
			default:
				got[cd.slot] = r.pr
				have++
				if cd.slot < kt {
					haveData++
				}
				lastWin = r.i
			}
		case <-hedge:
			c.stats.ReadHedges.Inc()
			launch()
		case <-patience:
			patienceOver = true
		}
		if timer != nil {
			timer.Stop()
		}
	}
	if patienceTimer != nil {
		patienceTimer.Stop()
	}
	cancel()
	// Fetches launched before the last winner and still out lost to a
	// later launch: charge them their elapsed time as a latency sample.
	// Without this a degraded drive whose reads always lose the hedge
	// race would never complete a round trip, never update its estimate,
	// and keep being asked first.
	for i := 0; i < lastWin; i++ {
		if !done[i] {
			order[i].pool.observe(time.Since(starts[i]))
		}
	}
	if outstanding > 0 {
		// Stragglers drain in the background so their pooled buffers
		// return; the buffered channel means they never block.
		go func(n int) {
			for i := 0; i < n; i++ {
				r := <-results
				r.pr.release()
			}
		}(outstanding)
	}
	release := func() {
		for _, pr := range got {
			pr.release()
		}
	}
	if have < kt {
		release()
		return nil, nil, fmt.Errorf("core: stripe %d of %q v%d: only %d of %d chunk records readable: %w",
			t, key, version, have, kt+l.m, lastErr)
	}

	data := make([][]byte, kt)
	if haveData == kt {
		for s := range data {
			data[s] = got[s].rec.Payload
		}
		return data, release, nil
	}

	buf := make([][]byte, l.k+l.m)
	for s := range got {
		if got[s].rec != nil {
			buf[s] = padShard(got[s].rec.Payload, shardLen)
		}
	}
	zeroTail(buf[kt:l.k], shardLen)
	if err := l.code.ReconstructData(buf); err != nil {
		release()
		return nil, nil, fmt.Errorf("core: stripe %d of %q v%d: %w", t, key, version, err)
	}
	c.stats.ECDecodes.Inc()
	for s := range data {
		data[s] = buf[s][:chunkLen(meta, t*int64(l.k)+int64(s))]
	}
	return data, release, nil
}

// zeroTail fills the data slots past a short final stripe's actual
// chunks: they were never written, the encoder modeled them as zero
// shards, so the decoder sees them as present zeros (one shared buffer:
// the decoder only reads present shards).
func zeroTail(slots [][]byte, shardLen int) {
	if len(slots) == 0 {
		return
	}
	zero := make([]byte, shardLen)
	for s := range slots {
		slots[s] = zero
	}
}

// padShard zero-pads the object's short final chunk to the stripe's
// shard length for the decoder.
func padShard(p []byte, shardLen int) []byte {
	if len(p) >= shardLen {
		return p
	}
	return append(make([]byte, 0, shardLen), p...)[:shardLen]
}
