// Streaming read/write paths of the v2 API. The v1 surface buffers
// whole values in the handler and inherits the Kinetic 1 MB value
// limit; here uploads are consumed chunk by chunk and large objects
// are persisted as a sequence of chunk records — each at most
// store.MaxObjectSize — sealed by a chunk-stub object record and the
// metadata record committed in one atomic batch per replica. A crash
// mid-stream therefore never publishes a partial object: until the
// final batch lands, readers still see the previous version.
//
// Reads stream chunk records straight to the response writer. The codec
// authenticates every chunk record it returns and binds it to its chunk
// id, so chunks cannot be damaged or transplanted between objects,
// versions or positions; the whole-object hash check at the end is what
// catches an authentic chunk of an earlier upload of the same version.
package core

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"sync"

	"repro/internal/kinetic/kclient"
	"repro/internal/policy/lang"
	"repro/internal/store"
)

// keyedLocks is a map of per-key mutexes with reference counting:
// streamed uploads of one key serialize against each other without
// tying up the shared write-lock stripes for the (client-paced)
// duration of an upload.
type keyedLocks struct {
	mu sync.Mutex
	m  map[string]*keyedLock
}

type keyedLock struct {
	mu   sync.Mutex
	refs int
}

// lock acquires the key's mutex, creating it on first use; the
// returned function releases it and drops the entry when unused.
func (k *keyedLocks) lock(key string) (unlock func()) {
	k.mu.Lock()
	if k.m == nil {
		k.m = make(map[string]*keyedLock)
	}
	e := k.m[key]
	if e == nil {
		e = &keyedLock{}
		k.m[key] = e
	}
	e.refs++
	k.mu.Unlock()
	e.mu.Lock()
	return func() {
		e.mu.Unlock()
		k.mu.Lock()
		if e.refs--; e.refs == 0 {
			delete(k.m, key)
		}
		k.mu.Unlock()
	}
}

// streamChunkSize is the payload carried by one chunk record: the
// largest value one Kinetic put accepts.
const streamChunkSize = store.MaxObjectSize

// chunkBufs pools the per-upload chunk buffers. Every v2 put flows
// through the streaming entry point, so allocating the full chunk
// size per request (1 MB for a 1 KB value) becomes pure GC pressure
// under write-heavy load; the pool bounds it to one buffer per
// concurrent upload.
var chunkBufs = sync.Pool{
	New: func() any {
		b := make([]byte, streamChunkSize)
		return &b
	},
}

// sealBufs pools the buffers chunk records are sealed into: a chunk
// plus room for the record's header, nonce and tag under keys of up to
// a few KiB (a longer key's record grows its buffer once and the pool
// keeps the grown one). An upload holds one for its duration — every
// drive put of a chunk, replica fan-out included, has returned before
// the next chunk is sealed over it.
var sealBufs = sync.Pool{
	New: func() any {
		b := make([]byte, 0, streamChunkSize+(4<<10))
		return &b
	},
}

// sealChunk encodes one chunk record of a streamed version into the
// upload's seal buffer. The blob is valid until the next sealChunk on
// the same buffer.
func (c *Controller) sealChunk(sealp *[]byte, key string, version, idx int64, payload []byte) ([]byte, error) {
	blob, err := c.codec.EncodeChunkInto(*sealp, key, version, idx, payload)
	if err == nil {
		*sealp = blob[:0]
	}
	return blob, err
}

// DefaultMaxStreamBytes caps a streamed object when Config leaves
// MaxStreamBytes zero.
const DefaultMaxStreamBytes = 256 << 20

// PutStream stores an object of unknown size read from body. Values
// up to store.MaxObjectSize land inline (byte-identical to Put);
// larger values switch to chunk records transparently. Returns the
// new version through the unified result shape.
func (s *Session) PutStream(ctx context.Context, key string, body io.Reader, opts PutOptions) OpResult {
	s.touch()
	ver, err := s.ctl.putObjectStream(ctx, s.clientKey, key, body, opts)
	return OpResult{Key: JSONKey(key), Version: ver, Err: wireError(err)}
}

// GetStream opens an object for streaming: it returns the metadata
// and a send function writing the payload to w. Policy checks and
// version selection happen before the first byte is produced, so the
// caller can emit headers from the metadata and then stream.
func (s *Session) GetStream(ctx context.Context, key string, opts GetOptions) (*store.Meta, func(io.Writer) error, error) {
	s.touch()
	return s.ctl.getObjectStream(ctx, s.clientKey, key, opts)
}

func (c *Controller) maxStreamBytes() int64 {
	if c.cfg.MaxStreamBytes > 0 {
		return c.cfg.MaxStreamBytes
	}
	return DefaultMaxStreamBytes
}

// putObjectStream is the streamed write path. The body arrives at the
// client's pace, so the shared write-lock stripes are NOT held across
// the upload (a stalled uploader must never block unrelated writers):
// concurrent streamed uploads of one key serialize on a dedicated
// per-key stream lock, version planning and the final commit each take
// the stripe lock briefly, and the metadata compare-and-swap rejects
// the commit if a buffered writer won the key in between (the loser
// sweeps its chunks and reports a version conflict).
func (c *Controller) putObjectStream(ctx context.Context, sessionKey, key string, body io.Reader, opts PutOptions) (int64, error) {
	unlockStream := c.streamLocks.lock(key)
	defer unlockStream()

	// Sharding fast-fail before any chunk is uploaded; the
	// authoritative gate (ownership + freeze barrier) runs again at
	// commitStream, so a handoff racing the upload still redirects.
	if err := c.checkOwned(key); err != nil {
		return 0, err
	}

	bufp := chunkBufs.Get().(*[]byte)
	defer chunkBufs.Put(bufp)
	buf := *bufp
	n, rerr := io.ReadFull(body, buf)
	if rerr == io.EOF || rerr == io.ErrUnexpectedEOF {
		// The whole value fits one record: hand it to the buffered
		// write path, so small streamed puts are byte-identical to
		// buffered puts. The payload is copied out at its real size —
		// the cache may retain it, the pooled buffer must not escape.
		return c.putObject(ctx, sessionKey, key, append([]byte(nil), buf[:n]...), opts)
	}
	if rerr != nil {
		return 0, rerr
	}
	// The first chunk filled completely; peek one byte to tell a body
	// of exactly one chunk (still inline) from a genuinely larger one.
	var peek [1]byte
	if _, perr := io.ReadFull(body, peek[:]); perr == io.EOF {
		return c.putObject(ctx, sessionKey, key, append([]byte(nil), buf...), opts)
	} else if perr != nil {
		return 0, perr
	}
	rest := io.MultiReader(bytes.NewReader(peek[:]), body)

	// Plan the version under the stripe lock, briefly. This early pass
	// rejects doomed uploads (bad version, policy denial, unknown
	// policy) before any chunk is persisted; the authoritative plan is
	// re-run under the lock at commit time (see commitStream).
	lock := c.writeLock(key)
	lock.Lock()
	meta, next, err := c.planVersion(ctx, sessionKey, key, opts)
	if err == nil {
		_, _, err = c.resolvePolicy(ctx, meta, opts.PolicyID)
	}
	lock.Unlock()
	if err != nil {
		return 0, err
	}
	placement := c.placement(key)

	// Storage-class selection. The body's size is unknown until EOF,
	// so with EC enabled the upload is read ahead until it either ends
	// (→ fully replicated, it is small) or crosses the EC threshold
	// (→ erasure-coded) — the class is part of the committed layout
	// and cannot change mid-object, so no chunk record lands before
	// the decision.
	sniffed := [][]byte{buf}
	eofSeen := false
	useEC := false
	if c.cfg.EC {
		sniffBytes := int64(len(buf))
		var extra []*[]byte
		defer func() {
			for _, bp := range extra {
				chunkBufs.Put(bp)
			}
		}()
		for sniffBytes < c.cfg.ECMinBytes {
			bp := chunkBufs.Get().(*[]byte)
			extra = append(extra, bp)
			sn, serr := io.ReadFull(rest, *bp)
			if sn > 0 {
				sniffed = append(sniffed, (*bp)[:sn])
				sniffBytes += int64(sn)
			}
			if serr == io.EOF || serr == io.ErrUnexpectedEOF {
				eofSeen = true
				break
			}
			if serr != nil {
				return 0, serr
			}
		}
		useEC = sniffBytes >= c.cfg.ECMinBytes
	}
	if useEC {
		return c.putStreamEC(ctx, sessionKey, key, opts, next, sniffed, rest, eofSeen)
	}

	// Chunked path. Chunks are force-put (content-addressed by
	// version+index, invisible until the final meta commit); the stub
	// object record and the CAS-guarded metadata commit atomically at
	// the end. On failure the written chunks are swept best-effort —
	// they were never reachable.
	hasher := sha256.New()
	sealp := sealBufs.Get().(*[]byte)
	defer sealBufs.Put(sealp)
	var total int64
	var chunks int64
	cleanup := func() {
		// The request context may already be canceled (client
		// disconnect is a common way to get here); sweep on a detached
		// context so the orphaned chunks don't outlive the upload.
		sweepCtx := context.WithoutCancel(ctx)
		_ = c.fanout(placement, func(di int) error {
			cl := c.drives[di].pick()
			for idx := int64(0); idx < chunks; idx++ {
				c.chargeDriveIO(0)
				_ = cl.Delete(sweepCtx, store.ChunkKey(key, next, idx), nil, true)
			}
			return nil
		})
	}
	writeChunk := func(chunk []byte) error {
		total += int64(len(chunk))
		if total > c.maxStreamBytes() {
			return fmt.Errorf("%w: cap is %d bytes", ErrStreamTooLarge, c.maxStreamBytes())
		}
		c.cost.MoveBytes(len(chunk))
		hasher.Write(chunk)
		blob, err := c.sealChunk(sealp, key, next, chunks, chunk)
		if err != nil {
			return err
		}
		dk := store.ChunkKey(key, next, chunks)
		err = c.fanout(placement, func(di int) error {
			cl := c.drives[di].pick()
			c.chargeDriveIO(len(blob))
			if err := cl.Put(ctx, dk, blob, nil, encodeVer(next), true); err != nil {
				return fmt.Errorf("core: stream chunk %d of %q to drive %s: %w", chunks, key, c.drives[di].name, err)
			}
			return nil
		})
		if err != nil {
			return c.replicationFailed(err, key)
		}
		chunks++
		return nil
	}
	for _, chunk := range sniffed { // chunks already read by the class sniff
		if err := writeChunk(chunk); err != nil {
			cleanup()
			return 0, err
		}
	}
	for !eofSeen {
		n, rerr = io.ReadFull(rest, buf)
		if rerr != nil && rerr != io.EOF && rerr != io.ErrUnexpectedEOF {
			cleanup()
			return 0, rerr
		}
		if rerr != nil {
			eofSeen = true
		}
		if n > 0 {
			if err := writeChunk(buf[:n]); err != nil {
				cleanup()
				return 0, err
			}
		}
	}

	var hash [32]byte
	copy(hash[:], hasher.Sum(nil))
	intact := func(pctx context.Context) error {
		return c.chunksIntact(pctx, key, next, chunks, placement)
	}
	if err := c.commitStream(ctx, sessionKey, key, opts, next, total, hash, chunks, 0, 0, intact); err != nil {
		cleanup()
		return 0, err
	}
	c.noteWrite(key, int(total))
	c.stats.Puts.Inc()
	c.stats.Streams.Inc()
	c.stats.WriteBytes.Add(uint64(total))
	return next, nil
}

// commitStream seals a chunked upload under the stripe lock. The
// version CAS alone cannot distinguish the planned object from a
// same-version impostor created by a delete+recreate during the
// (lock-free) upload — an ABA that would both bypass the recreated
// object's update policy and publish metadata whose chunks the delete
// already swept. So the plan is re-run under the lock (re-checking the
// now-current policy and version) and the chunk records are probed for
// survival before the sealing batch — chunk-stub object record plus
// CAS-guarded metadata, atomic per replica — goes out. The intact
// probe is layout-specific (replicated chunks probe the placement
// drives, EC shards their group homes); eck/ecm record the storage
// class in the metadata (zero for replicated).
func (c *Controller) commitStream(ctx context.Context, sessionKey, key string, opts PutOptions, next, total int64, hash [32]byte, chunks, eck, ecm int64, intact func(context.Context) error) error {
	lock := c.writeLock(key)
	lock.Lock()
	defer lock.Unlock()

	release, err := c.beginWrite(ctx, key)
	if err != nil {
		return err
	}
	defer release()

	meta2, next2, err := c.planVersion(ctx, sessionKey, key, opts)
	if err != nil {
		return err
	}
	if next2 != next {
		return fmt.Errorf("%w: concurrent update during streamed upload", ErrBadVersion)
	}
	newPolicyID, policyHash, err := c.resolvePolicy(ctx, meta2, opts.PolicyID)
	if err != nil {
		return err
	}
	if err := intact(ctx); err != nil {
		return err
	}

	newMeta := &store.Meta{
		Key: key, Version: next, Size: total, ContentHash: hash,
		PolicyID: newPolicyID, PolicyHash: policyHash, Chunks: chunks,
		ECK: eck, ECM: ecm,
	}
	stub := &store.Record{Meta: *newMeta}
	stubBlob, err := c.codec.EncodeRecord(stub)
	if err != nil {
		return err
	}
	w := &replicaWrite{key: key, next: next, blob: stubBlob, metaRec: newMeta.Marshal()}
	if meta2 != nil {
		w.prev = encodeVer(meta2.Version)
	}
	if err := c.writeThrough(ctx, w); err != nil {
		return err
	}
	c.publishWrite(stub)
	return nil
}

// chunksIntact verifies the upload's chunk records still exist on
// every replica (a concurrent delete sweeps the whole chunk range, so
// probing the first and last chunk suffices per drive). Caller holds
// the stripe lock, so no new delete can race the probe.
func (c *Controller) chunksIntact(ctx context.Context, key string, next, chunks int64, placement []int) error {
	probes := []int64{0}
	if chunks > 1 {
		probes = append(probes, chunks-1)
	}
	return c.fanout(placement, func(di int) error {
		cl := c.drives[di].pick()
		for _, idx := range probes {
			c.chargeDriveIO(0)
			if _, err := cl.GetVersion(ctx, store.ChunkKey(key, next, idx)); err != nil {
				if errors.Is(err, kclient.ErrNotFound) {
					return fmt.Errorf("%w: object deleted during streamed upload", ErrBadVersion)
				}
				return err
			}
		}
		return nil
	})
}

// getObjectStream is the streamed read path.
func (c *Controller) getObjectStream(ctx context.Context, sessionKey, key string, opts GetOptions) (*store.Meta, func(io.Writer) error, error) {
	if err := c.checkOwned(key); err != nil {
		return nil, nil, err
	}
	meta, err := c.loadMeta(ctx, key)
	if err != nil {
		return nil, nil, err
	}
	if err := c.checkPolicy(ctx, lang.PermRead, sessionKey, key, meta, nil, opts.Certs); err != nil {
		return nil, nil, err
	}
	version := meta.Version
	if opts.HasVersion {
		version = opts.Version
	}
	rec, err := c.loadRecord(ctx, key, version)
	if err != nil {
		return nil, nil, err
	}
	m := rec.Meta
	if m.Chunks == 0 {
		send := func(w io.Writer) error {
			c.cost.MoveBytes(len(rec.Payload))
			_, err := w.Write(rec.Payload)
			return err
		}
		c.noteRead(key, len(rec.Payload))
		c.stats.Gets.Inc()
		c.stats.ReadBytes.Add(uint64(len(rec.Payload)))
		return &m, send, nil
	}
	if m.ECK > 0 {
		return c.getStreamEC(ctx, key, version, &m)
	}
	send := func(w io.Writer) error {
		hasher := sha256.New()
		for idx := int64(0); idx < m.Chunks; idx++ {
			crec, release, err := c.loadChunkPooled(ctx, key, version, idx)
			if err != nil {
				return err
			}
			c.cost.MoveBytes(len(crec.Payload))
			hasher.Write(crec.Payload)
			_, werr := w.Write(crec.Payload)
			release()
			if werr != nil {
				return werr
			}
		}
		var hash [32]byte
		copy(hash[:], hasher.Sum(nil))
		if hash != m.ContentHash {
			// Bytes are already on the wire; the returned error must
			// abort the connection so the client sees a truncated
			// transfer, never a silently wrong object.
			return fmt.Errorf("%w: streamed object %q v%d fails whole-object hash", store.ErrCorrupt, key, version)
		}
		return nil
	}
	c.noteRead(key, int(m.Size))
	c.stats.Gets.Inc()
	c.stats.Streams.Inc()
	c.stats.ReadBytes.Add(uint64(m.Size))
	return &m, send, nil
}

// loadChunk fetches one chunk record, cache-first with replica
// failover through the read engine; the codec authenticates it and its
// chunk id (position binding).
// Concurrent misses on one chunk coalesce into a single drive read.
func (c *Controller) loadChunk(ctx context.Context, key string, version, idx int64) (*store.Record, error) {
	dk := store.ChunkKey(key, version, idx)
	ck := string(dk)
	if r, ok := c.objectCache.Get(ck); ok {
		return r, nil
	}
	rec, shared, err := c.objectFlight.Do(ctx, ck,
		func(fctx context.Context) (*store.Record, error) {
			if r, ok := c.objectCache.Get(ck); ok {
				return r, nil
			}
			pr, err := c.readChunk(fctx, key, version, idx, false)
			return pr.rec, err
		},
		func(r *store.Record) { c.objectCache.Put(ck, r) })
	if shared {
		c.stats.CoalescedReads.Inc()
	}
	return rec, err
}

// readChunk reads one chunk record off the replicas through the read
// engine, decoded into a pooled chunk buffer when pooled.
func (c *Controller) readChunk(ctx context.Context, key string, version, idx int64, pooled bool) (pooledRec, error) {
	pr, err := readReplicas(ctx, c, c.placement(key), func(ctx context.Context, p *drivePool) (pooledRec, error) {
		v, err := c.getChunkValue(ctx, p, key, version, idx)
		if err != nil {
			return pooledRec{}, err
		}
		return c.openChunk(v, key, version, idx, pooled)
	})
	if err != nil && !errors.Is(err, ErrNotFound) {
		err = fmt.Errorf("core: all replicas failed reading %q v%d chunk %d: %w", key, version, idx, err)
	}
	return pr, err
}

// loadChunkPooled is loadChunk for the streamed GET hot path: a cache
// hit is served as-is, a miss decodes into a pooled chunk buffer the
// caller hands back via release, and the record is neither cached nor
// coalesced — a pooled payload must have exactly one owner, and
// streamed reads are large and sequential, so per-chunk caching buys
// little against 1 MB of allocation per chunk. A hedged attempt that
// loses the race strands its buffer for the GC (rare: hedges fire on
// the latency tail only).
func (c *Controller) loadChunkPooled(ctx context.Context, key string, version, idx int64) (*store.Record, func(), error) {
	dk := store.ChunkKey(key, version, idx)
	if r, ok := c.objectCache.Get(string(dk)); ok {
		return r, func() {}, nil
	}
	pr, err := c.readChunk(ctx, key, version, idx, true)
	if err != nil {
		return nil, nil, err
	}
	return pr.rec, pr.release, nil
}

// verifyChunks recomputes a streamed version's whole-object hash from
// its chunk records (the verification interface's equivalent of the
// inline hash check).
func (c *Controller) verifyChunks(ctx context.Context, m *store.Meta) error {
	if m.ECK > 0 {
		return c.verifyStripesEC(ctx, m)
	}
	hasher := sha256.New()
	var total int64
	for idx := int64(0); idx < m.Chunks; idx++ {
		rec, err := c.loadChunk(ctx, m.Key, m.Version, idx)
		if err != nil {
			return err
		}
		hasher.Write(rec.Payload)
		total += int64(len(rec.Payload))
	}
	var hash [32]byte
	copy(hash[:], hasher.Sum(nil))
	if total != m.Size || hash != m.ContentHash {
		return store.ErrCorrupt
	}
	return nil
}
