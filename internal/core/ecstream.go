// Erasure-coded storage class (tentpole of docs/storage.md): a
// streamed object past Config.ECMinBytes is striped k data chunks at
// a time into k+m shards — the k chunks themselves plus m
// Reed-Solomon parity shards — each on its own drive, instead of
// every chunk on every replica. Raw capacity per logical byte drops
// from Replicas× to (k+m)/k× while any m simultaneous drive losses
// stay survivable; reads fetch the k data shards in parallel and fall
// back to parity (any k of k+m shards win) only when a shard is slow
// or gone, so the decoder stays off the healthy-path entirely.
//
// Layout. Parity shards are ordinary chunk records at the reserved
// index range store.ParityIndexBase+…, so they sort inside
// store.ChunkKeyRange — delete and orphan sweeps collect them with no
// extra bookkeeping — and carry the same authenticated chunk id
// binding (object, version, index) as data chunks. Shard slot s of
// stripe t lives on group[(s+t) % len(group)] where the group is the
// k+m-wide placement window of the key (see ecGroup); the rotation
// spreads parity writes across the whole group. Only (k, m) persist
// in the metadata — the group derives from the key and the current
// dead mask, and the stub + metadata records stay fully replicated on
// the ordinary placement drives, so version visibility and CAS
// semantics are identical to the replicated class.
package core

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"time"

	"repro/internal/ec"
	"repro/internal/kinetic/kclient"
	"repro/internal/store"
)

// ecShardDrive returns the group member homing shard slot s of stripe
// t (slots 0..k-1 are data, k..k+m-1 parity).
func ecShardDrive(group []int, slot int, stripe int64) int {
	g := int64(len(group))
	return group[(int64(slot)+stripe)%g]
}

// ecChunkLen returns the true byte length of data chunk gi: every
// chunk is full except the object's final one.
func ecChunkLen(m *store.Meta, gi int64) int {
	if gi == m.Chunks-1 {
		if r := m.Size - (m.Chunks-1)*streamChunkSize; r > 0 {
			return int(r)
		}
	}
	return streamChunkSize
}

// ecCodeFor returns the controller's code when the parameters match
// the configuration (the common case), else builds one on the fly —
// objects written under an older (k, m) stay readable after a
// reconfiguration.
func (c *Controller) ecCodeFor(k, m int) (*ec.Code, error) {
	if c.ecCode != nil && c.ecCode.DataShards() == k && c.ecCode.ParityShards() == m {
		return c.ecCode, nil
	}
	return ec.New(k, m)
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

// openChunk decodes the raw chunk record in v — into a pooled chunk
// buffer when pooled — and hands v's frame back: the codec has copied
// or decrypted the payload out of it, authenticated, by the time it
// returns.
func (c *Controller) openChunk(v kclient.Value, key string, version, idx int64, pooled bool) (pooledRec, error) {
	defer v.Release()
	c.cost.MoveBytes(len(v.Value))
	var pr pooledRec
	var buf []byte
	if pooled {
		pr.bufp = chunkBufs.Get().(*[]byte)
		buf = *pr.bufp
	}
	var err error
	if pr.rec, err = c.codec.DecodeChunkInto(v.Value, buf, key, version, idx); err != nil {
		pr.release()
		return pooledRec{}, err
	}
	return pr, nil
}

// putStreamEC persists an upload erasure-coded: each data chunk goes
// to its single home drive as it arrives (no replication fanout — the
// write amplification of this class is the parity alone), the m
// parity accumulators fold it in incrementally, and the accumulators
// flush as parity shard records when their stripe closes. The sealing
// commit is the same CAS-guarded stub+metadata batch as the
// replicated class. sniffed holds the chunks the class sniff already
// consumed; rest carries the remainder unless eofSeen.
func (c *Controller) putStreamEC(ctx context.Context, sessionKey, key string, opts PutOptions, next int64, sniffed [][]byte, rest io.Reader, eofSeen bool) (int64, error) {
	code := c.ecCode
	k, m := code.DataShards(), code.ParityShards()
	group := c.ecGroup(key, k+m)
	hasher := sha256.New()
	var total, chunks, parityBytes int64

	parityBufs := make([]*[]byte, m)
	parity := make([][]byte, m)
	for j := range parityBufs {
		parityBufs[j] = chunkBufs.Get().(*[]byte)
	}
	sealp := sealBufs.Get().(*[]byte) // every shard put is synchronous: one seal buffer serves them all
	defer func() {
		for _, bp := range parityBufs {
			chunkBufs.Put(bp)
		}
		sealBufs.Put(sealp)
	}()

	cleanup := func() {
		// The request context may already be canceled; sweep the
		// partial stripes — data shards and any flushed parity — on a
		// detached context so they don't outlive the failed upload.
		c.sweepStreamEC(context.WithoutCancel(ctx), key, next, group, chunks, k, m)
	}

	putShard := func(di int, idx int64, payload []byte) error {
		blob, err := c.sealChunk(sealp, key, next, idx, payload)
		if err != nil {
			return err
		}
		cl := c.drives[di].pick()
		c.chargeDriveIO(len(blob))
		if err := cl.Put(ctx, store.ChunkKey(key, next, idx), blob, nil, encodeVer(next), true); err != nil {
			return fmt.Errorf("core: ec shard %d of %q to drive %s: %w", idx, key, c.drives[di].name, err)
		}
		return nil
	}

	// stripeLen is the open stripe's shard length — the length of its
	// first chunk (only the object's final chunk can be short, so only
	// a final single-chunk stripe shrinks its parity).
	var stripeLen int
	flushParity := func(stripe int64) error {
		for j := 0; j < m; j++ {
			idx := store.ParityIndex(stripe, int64(m), int64(j))
			if err := putShard(ecShardDrive(group, k+j, stripe), idx, parity[j][:stripeLen]); err != nil {
				return err
			}
			parityBytes += int64(stripeLen)
		}
		return nil
	}
	writeChunk := func(chunk []byte) error {
		total += int64(len(chunk))
		if total > c.maxStreamBytes() {
			return fmt.Errorf("%w: cap is %d bytes", ErrStreamTooLarge, c.maxStreamBytes())
		}
		c.cost.MoveBytes(len(chunk))
		hasher.Write(chunk)
		stripe, slot := chunks/int64(k), int(chunks%int64(k))
		if slot == 0 {
			stripeLen = len(chunk)
			for j := range parity {
				p := (*parityBufs[j])[:stripeLen]
				for i := range p {
					p[i] = 0
				}
				parity[j] = p
			}
		}
		if err := putShard(ecShardDrive(group, slot, stripe), chunks, chunk); err != nil {
			return err
		}
		code.EncodeAdd(parity, slot, chunk)
		chunks++
		if slot == k-1 {
			return flushParity(stripe)
		}
		return nil
	}

	for _, chunk := range sniffed {
		if err := writeChunk(chunk); err != nil {
			cleanup()
			return 0, err
		}
	}
	if !eofSeen {
		bufp := chunkBufs.Get().(*[]byte)
		defer chunkBufs.Put(bufp)
		buf := *bufp
		for {
			n, rerr := io.ReadFull(rest, buf)
			if rerr != nil && rerr != io.EOF && rerr != io.ErrUnexpectedEOF {
				cleanup()
				return 0, rerr
			}
			if n > 0 {
				if err := writeChunk(buf[:n]); err != nil {
					cleanup()
					return 0, err
				}
			}
			if rerr != nil {
				break
			}
		}
	}
	// Close a final partial stripe: its parity covers the chunks it
	// has (the absent tail slots are zero shards by construction, the
	// decoder models them the same way).
	if chunks%int64(k) != 0 {
		if err := flushParity(chunks / int64(k)); err != nil {
			cleanup()
			return 0, err
		}
	}

	var hash [32]byte
	copy(hash[:], hasher.Sum(nil))
	intact := func(pctx context.Context) error {
		return c.ecChunksIntact(pctx, key, next, chunks, k, group)
	}
	if err := c.commitStream(ctx, sessionKey, key, opts, next, total, hash, chunks, int64(k), int64(m), intact); err != nil {
		cleanup()
		return 0, err
	}
	c.noteWrite(key, int(total))
	c.stats.Puts.Inc()
	c.stats.Streams.Inc()
	c.stats.ECObjects.Inc()
	c.stats.ECParityBytes.Add(uint64(parityBytes))
	c.stats.WriteBytes.Add(uint64(total))
	return next, nil
}

// sweepStreamEC best-effort deletes the shard records of an aborted
// EC upload: data indices up to and including the possibly in-flight
// one, plus every stripe's parity indices, probed on every group
// drive (a superset of the homes actually written — deletes of absent
// keys are no-ops). This is the EC arm of the stream orphan sweep:
// parity shards whose data siblings never committed must not survive
// as dark capacity.
func (c *Controller) sweepStreamEC(ctx context.Context, key string, next int64, group []int, chunks int64, k, m int) {
	stripes := chunks/int64(k) + 1 // include the open stripe
	_ = c.fanout(group, func(di int) error {
		cl := c.drives[di].pick()
		del := func(idx int64) {
			c.chargeDriveIO(0)
			_ = cl.Delete(ctx, store.ChunkKey(key, next, idx), nil, true)
		}
		for idx := int64(0); idx <= chunks; idx++ {
			del(idx)
		}
		for t := int64(0); t < stripes; t++ {
			for j := 0; j < m; j++ {
				del(store.ParityIndex(t, int64(m), int64(j)))
			}
		}
		return nil
	})
}

// ecChunksIntact is the commit-time survival probe for the EC layout:
// the first and last data shard, each at its home drive. A concurrent
// delete sweeps the whole chunk key range on every group drive, so
// any probe surviving means no delete committed during the upload.
func (c *Controller) ecChunksIntact(ctx context.Context, key string, next, chunks int64, k int, group []int) error {
	type probe struct {
		di  int
		idx int64
	}
	probes := []probe{{ecShardDrive(group, 0, 0), 0}}
	if chunks > 1 {
		last := chunks - 1
		probes = append(probes, probe{ecShardDrive(group, int(last%int64(k)), last/int64(k)), last})
	}
	for _, p := range probes {
		cl := c.drives[p.di].pick()
		c.chargeDriveIO(0)
		if _, err := cl.GetVersion(ctx, store.ChunkKey(key, next, p.idx)); err != nil {
			if errors.Is(err, kclient.ErrNotFound) {
				return fmt.Errorf("%w: object deleted during streamed upload", ErrBadVersion)
			}
			return err
		}
	}
	return nil
}

// getStreamEC is the EC arm of getObjectStream: stripes stream to the
// writer in order, each assembled by readStripeEC from any k of its
// k+m shards, with the same whole-object hash seal as the replicated
// class.
func (c *Controller) getStreamEC(ctx context.Context, key string, version int64, m *store.Meta) (*store.Meta, func(io.Writer) error, error) {
	code, err := c.ecCodeFor(int(m.ECK), int(m.ECM))
	if err != nil {
		return nil, nil, err
	}
	group := c.ecGroup(key, int(m.ECK+m.ECM))
	meta := *m // the send closure must not alias the caller's copy
	send := func(w io.Writer) error {
		hasher := sha256.New()
		stripes := (meta.Chunks + meta.ECK - 1) / meta.ECK
		type fetched struct {
			data    [][]byte
			release func()
			err     error
		}
		// One-stripe lookahead: while stripe t streams to the client,
		// stripe t+1's shard fetches are already in flight, so drive
		// reads and the client-side transfer pipeline instead of
		// alternating fetch/write bubbles.
		fetch := func(t int64) chan fetched {
			ch := make(chan fetched, 1)
			go func() {
				data, release, err := c.readStripeEC(ctx, code, &meta, version, t, group)
				ch <- fetched{data, release, err}
			}()
			return ch
		}
		var inflight chan fetched
		drain := func() {
			if inflight == nil {
				return
			}
			go func(ch chan fetched) {
				if f := <-ch; f.err == nil {
					f.release()
				}
			}(inflight)
		}
		inflight = fetch(0)
		for t := int64(0); t < stripes; t++ {
			f := <-inflight
			inflight = nil
			if t+1 < stripes {
				inflight = fetch(t + 1)
			}
			if f.err != nil {
				drain()
				return f.err
			}
			for _, p := range f.data {
				c.cost.MoveBytes(len(p))
				hasher.Write(p)
				if _, werr := w.Write(p); werr != nil {
					f.release()
					drain()
					return werr
				}
			}
			f.release()
		}
		var hash [32]byte
		copy(hash[:], hasher.Sum(nil))
		if hash != meta.ContentHash {
			// Bytes are already on the wire; the error must abort the
			// connection so the client sees a truncated transfer, never
			// a silently wrong object.
			return fmt.Errorf("%w: streamed object %q v%d fails whole-object hash", store.ErrCorrupt, key, version)
		}
		return nil
	}
	c.noteRead(key, int(m.Size))
	c.stats.Gets.Inc()
	c.stats.Streams.Inc()
	c.stats.ReadBytes.Add(uint64(m.Size))
	return m, send, nil
}

// ecReadCand is one shard a stripe read may fetch.
type ecReadCand struct {
	slot int
	idx  int64
	pool *drivePool
}

// readStripeEC returns the data chunks of stripe t, fastest k of the
// stripe's k+m shards winning. The live data shards launch together
// (all are wanted — parallelism is the point of striping); parity
// shards are hedges, launched on a shard failure or when the hedge
// timer expires, ordered by the per-drive latency estimates with
// failing drives last. Reconstruction runs only when a parity shard
// actually displaced a data shard.
//
// The returned release hands the fetched shards' pooled buffers back;
// the data slices are invalid after it runs.
func (c *Controller) readStripeEC(ctx context.Context, code *ec.Code, meta *store.Meta, version, t int64, group []int) ([][]byte, func(), error) {
	k, m := code.DataShards(), code.ParityShards()
	kt := k
	if rem := meta.Chunks - t*int64(k); rem < int64(kt) {
		kt = int(rem)
	}
	shardLen := ecChunkLen(meta, t*int64(k)) // the stripe's first chunk sizes its shards
	key := meta.Key

	// The adaptive hedge delay is tuned by KB-scale record reads; a
	// megabyte shard transfer outlasts it even on a healthy drive, and
	// hedging then launches parity fetches against drives that are
	// merely mid-transfer — wasted reads that cost more than the tail
	// they trim. Floor the delay at a conservative wire-rate estimate
	// of the bytes still in flight (k parallel transfers share the
	// paths, so a full-width launch legitimately takes k shard-times)
	// and the cap keeps a genuinely hung drive hedged promptly.
	hedgeAfter := func(pool *drivePool, dataPending int) time.Duration {
		floor := time.Duration(shardLen) * time.Duration(max(dataPending, 1)) * 10 * time.Nanosecond // ~100 MB/s
		floor = min(max(floor, time.Millisecond), maxHedgeDelay)
		return max(c.hedgeDelay(pool), floor)
	}

	// Launch order: healthy data first (slot order — every one is
	// wanted), then parity ordered by latency estimate, then shards on
	// failing drives (data before parity) as a last resort.
	var healthyData, failingData, parityCands, failingParity []ecReadCand
	for s := 0; s < kt; s++ {
		cd := ecReadCand{s, t*int64(k) + int64(s), c.drives[ecShardDrive(group, s, t)]}
		if cd.pool.failing() {
			failingData = append(failingData, cd)
		} else {
			healthyData = append(healthyData, cd)
		}
	}
	for j := 0; j < m; j++ {
		cd := ecReadCand{k + j, store.ParityIndex(t, int64(m), int64(j)), c.drives[ecShardDrive(group, k+j, t)]}
		if cd.pool.failing() {
			failingParity = append(failingParity, cd)
		} else {
			parityCands = append(parityCands, cd)
		}
	}
	pools := make([]*drivePool, len(parityCands))
	for i, cd := range parityCands {
		pools[i] = cd.pool
	}
	byLat := orderByLatency(pools)
	ordered := make([]ecReadCand, 0, len(parityCands))
	for _, p := range byLat {
		for _, cd := range parityCands {
			if cd.pool == p && !containsCand(ordered, cd.slot) {
				ordered = append(ordered, cd)
				break
			}
		}
	}
	order := append(append(append(healthyData, ordered...), failingData...), failingParity...)

	type result struct {
		slot int
		pr   pooledRec
		err  error
	}
	fctx, cancel := context.WithCancel(ctx)
	defer cancel()
	results := make(chan result, len(order))
	launched := 0
	launch := func() {
		cd := order[launched]
		launched++
		go func() {
			pr, err := c.fetchShardPooled(fctx, cd.pool, key, version, cd.idx)
			results <- result{cd.slot, pr, err}
		}()
	}
	for launched < kt {
		launch()
	}
	outstanding := kt
	pending := make([]bool, kt) // data fetches in flight, not yet resolved
	for s := range pending {
		pending[s] = true
	}

	// A parity arrival must not end the read while healthy data
	// fetches are still in flight: displacing a data shard forces a
	// decode, and the decoder belongs off the healthy path. Once a k
	// quorum exists, outstanding data shards get one more hedge-delay
	// of grace; only then does the read settle for the parity quorum.
	shards := make([]pooledRec, k+m)
	got := 0
	var lastErr error
	var patienceTimer *time.Timer
	var patience <-chan time.Time
	patienceOver := false
	for {
		dataPending := 0
		for s := 0; s < kt; s++ {
			if pending[s] {
				dataPending++
			}
		}
		if got >= kt && (dataPending == 0 || patienceOver) {
			break
		}
		if outstanding == 0 {
			break
		}
		if got >= kt && patience == nil {
			patienceTimer = time.NewTimer(hedgeAfter(c.drives[ecShardDrive(group, 0, t)], dataPending))
			patience = patienceTimer.C
		}
		var timer *time.Timer
		var hedge <-chan time.Time
		if got < kt && launched < len(order) {
			timer = time.NewTimer(hedgeAfter(order[launched].pool, dataPending))
			hedge = timer.C
		}
		select {
		case r := <-results:
			outstanding--
			if r.slot < kt {
				pending[r.slot] = false
			}
			if r.err != nil {
				lastErr = r.err
				if got < kt && launched < len(order) {
					launch()
					outstanding++
				}
			} else {
				shards[r.slot] = r.pr
				got++
			}
		case <-hedge:
			c.stats.ReadHedges.Inc()
			launch()
			outstanding++
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
		for _, pr := range shards {
			pr.release()
		}
	}
	if got < kt {
		release()
		return nil, nil, fmt.Errorf("core: ec stripe %d of %q v%d: only %d of %d shards readable: %w",
			t, key, version, got, kt+m, lastErr)
	}

	needDecode := false
	for s := 0; s < kt; s++ {
		if shards[s].rec == nil {
			needDecode = true
			break
		}
	}
	data := make([][]byte, kt)
	if !needDecode {
		for s := 0; s < kt; s++ {
			data[s] = shards[s].rec.Payload
		}
		return data, release, nil
	}

	buf := make([][]byte, k+m)
	var zero []byte
	for s := kt; s < k; s++ {
		// Slots past the stripe's actual chunks were never written;
		// the encoder modeled them as zero shards, so the decoder sees
		// them as present zeros.
		if zero == nil {
			zero = make([]byte, shardLen)
		}
		buf[s] = zero
	}
	for s := 0; s < k+m; s++ {
		if shards[s].rec == nil {
			continue
		}
		p := shards[s].rec.Payload
		if len(p) < shardLen {
			// The object's short final chunk: pad for the decoder.
			pp := make([]byte, shardLen)
			copy(pp, p)
			p = pp
		}
		buf[s] = p
	}
	if err := code.ReconstructData(buf); err != nil {
		release()
		return nil, nil, fmt.Errorf("core: ec stripe %d of %q v%d: %w", t, key, version, err)
	}
	c.stats.ECDecodes.Inc()
	for s := 0; s < kt; s++ {
		if shards[s].rec != nil {
			data[s] = shards[s].rec.Payload
		} else {
			data[s] = buf[s][:ecChunkLen(meta, t*int64(k)+int64(s))]
		}
	}
	return data, release, nil
}

func containsCand(cands []ecReadCand, slot int) bool {
	for _, cd := range cands {
		if cd.slot == slot {
			return true
		}
	}
	return false
}

// fetchShardPooled reads one shard record off its home drive,
// authenticated and decoded into a pooled buffer, feeding the drive's
// latency estimator the same way the replicated read engine does (the
// estimates order parity hedges and future replica reads alike).
func (c *Controller) fetchShardPooled(ctx context.Context, pool *drivePool, key string, version, idx int64) (pooledRec, error) {
	t0 := time.Now()
	v, err := c.getChunkValue(ctx, pool, key, version, idx)
	recordOutcome(pool, time.Since(t0), err)
	if err != nil {
		return pooledRec{}, err
	}
	return c.openChunk(v, key, version, idx, true)
}

// verifyStripesEC recomputes an EC version's whole-object hash
// through the stripe reader (so verification exercises exactly the
// read path, parity fallback included).
func (c *Controller) verifyStripesEC(ctx context.Context, m *store.Meta) error {
	code, err := c.ecCodeFor(int(m.ECK), int(m.ECM))
	if err != nil {
		return err
	}
	group := c.ecGroup(m.Key, int(m.ECK+m.ECM))
	hasher := sha256.New()
	var total int64
	for t := int64(0); t*m.ECK < m.Chunks; t++ {
		data, release, err := c.readStripeEC(ctx, code, m, m.Version, t, group)
		if err != nil {
			return err
		}
		for _, p := range data {
			hasher.Write(p)
			total += int64(len(p))
		}
		release()
	}
	var hash [32]byte
	copy(hash[:], hasher.Sum(nil))
	if total != m.Size || hash != m.ContentHash {
		return store.ErrCorrupt
	}
	return nil
}
