// Streaming read/write paths of the object API. A buffered put holds
// the whole value and inherits the Kinetic 1 MB value limit; here
// uploads are consumed chunk by chunk and large objects
// are persisted as a sequence of chunk records — each at most
// store.MaxObjectSize — sealed by a chunk-stub object record and the
// metadata record committed in one atomic batch per replica. A crash
// mid-stream therefore never publishes a partial object: until the
// final batch lands, readers still see the previous version. Chunks are
// named by an id the upload draws (store.Meta.Upload), so uploads of one
// key stream side by side, lock-free, and the first to commit wins.
//
// Reads stream chunk records straight to the response writer. The codec
// authenticates every chunk record and binds it to its chunk id (object,
// upload, index): no chunk is damaged, transplanted or replayed from an
// earlier upload unseen, so a GET checks the object's size and hashes
// nothing more. The whole-object hash is computed on every PUT,
// re-checked by Verify, and on GET only for a stub written before
// uploads drew an id (docs/storage.md "Why a streamed GET needs no
// whole-object hash").
package core

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"sync"

	"repro/internal/core/records"
	"repro/internal/kinetic/wire"
	"repro/internal/store"
)

// streamChunkSize is the payload carried by one chunk record: the
// largest value one Kinetic put accepts.
const streamChunkSize = store.MaxObjectSize

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

// sealChunk encodes one chunk record of an upload into its seal buffer.
// The blob is valid until the next sealChunk on the same buffer.
func (c *Controller) sealChunk(sealp *[]byte, key string, set, idx int64, payload []byte) ([]byte, error) {
	blob, err := c.codec.EncodeChunkInto(*sealp, key, set, idx, payload)
	if err == nil {
		*sealp = blob[:0]
	}
	return blob, err
}

// DefaultMaxStreamBytes caps a streamed object.
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
	c := s.ctl
	rec, err := c.readObject(ctx, s.clientKey, key, opts, false)
	if err != nil {
		return nil, nil, err
	}
	m := rec.Meta
	if m.Chunks == 0 {
		return &m, func(w io.Writer) error {
			c.cost.MoveBytes(len(rec.Payload))
			_, err := w.Write(rec.Payload)
			return err
		}, nil
	}
	l, err := c.layoutOf(key, m.ECK, m.ECM)
	if err != nil {
		return nil, nil, err
	}
	return &m, func(w io.Writer) error {
		// The record's own metadata, not the copy the caller may edit.
		meta := &rec.Meta
		sink := func(p []byte) error {
			c.cost.MoveBytes(len(p))
			_, err := w.Write(p)
			return err
		}
		if meta.Upload != 0 {
			return c.streamChunks(ctx, l, meta, sink)
		}
		// A stub written before uploads drew an id names its chunks by
		// version, so an earlier upload's chunk of the same version opens
		// under it: only the whole-object hash refuses it.
		return c.streamHashed(ctx, l, meta, sink)
	}, nil
}

func (c *Controller) maxStreamBytes() int64 {
	if c.cfg.maxStreamBytes > 0 {
		return c.cfg.maxStreamBytes
	}
	return DefaultMaxStreamBytes
}

// putObjectStream is the streamed write path. The body arrives at the
// client's pace, so no lock of the key is held across the upload (a
// stalled uploader must never block another write of the key): the
// early plan and the final commit each take the commits lock briefly,
// and the commit refuses the upload if another writer — a buffered one
// or another upload — committed the key in between (the loser sweeps
// its own chunks and reports a version conflict).
func (c *Controller) putObjectStream(ctx context.Context, sessionKey, key string, body io.Reader, opts PutOptions) (int64, error) {
	// Sharding fast-fail before any chunk is uploaded; the
	// authoritative gate (ownership + freeze barrier) runs again at
	// commitStream, so a handoff racing the upload still redirects.
	if err := c.checkOwned(key); err != nil {
		return 0, err
	}

	bufp := records.ChunkBufs.Get().(*[]byte)
	defer records.ChunkBufs.Put(bufp)
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

	// Plan the version under the commits lock, briefly. This early pass
	// rejects doomed uploads (bad version, policy denial, unknown
	// policy) before any chunk is persisted and reserves nothing; the
	// authoritative plan is re-run under the lock at commit time, which
	// refuses the upload unless it still plans next (see commitStream).
	unlock := c.commits.lock([]string{key}, nil)
	var next int64
	meta, err := c.loadHead(ctx, key).forWrite()
	if err == nil {
		next, err = c.planVersion(ctx, nil, sessionKey, key, meta, opts)
	}
	if err == nil {
		_, _, err = c.resolvePolicy(ctx, meta, opts.PolicyID)
	}
	unlock()
	if err != nil {
		return 0, err
	}
	// Storage-class selection. The body's size is unknown until EOF,
	// so with EC enabled the upload is read ahead until it either ends
	// (→ fully replicated, it is small) or crosses the EC threshold
	// (→ erasure-coded) — the class is part of the committed layout
	// and cannot change mid-object, so no chunk record lands before
	// the decision.
	sniffed := [][]byte{buf}
	var eck, ecm int64
	if c.cfg.EC {
		sniffBytes := int64(len(buf))
		var extra []*[]byte
		defer func() {
			for _, bp := range extra {
				records.ChunkBufs.Put(bp)
			}
		}()
		for sniffBytes < c.cfg.ECMinBytes {
			bp := records.ChunkBufs.Get().(*[]byte)
			extra = append(extra, bp)
			sn, serr := io.ReadFull(rest, *bp)
			if sn > 0 {
				sniffed = append(sniffed, (*bp)[:sn])
				sniffBytes += int64(sn)
			}
			if serr == io.EOF || serr == io.ErrUnexpectedEOF {
				rest = nil // the sniff saw the end of the body
				break
			}
			if serr != nil {
				return 0, serr
			}
		}
		if sniffBytes >= c.cfg.ECMinBytes {
			eck, ecm = int64(c.cfg.ECDataShards), int64(c.cfg.ECParityShards)
		}
	}
	l, err := c.layoutOf(key, eck, ecm)
	if err != nil {
		return 0, err
	}
	return c.putChunks(ctx, sessionKey, key, opts, next, l, sniffed, rest)
}

// putChunks persists a chunked upload under layout l. Every chunk is
// sealed once and force-put to each of its homes as it arrives (named
// by the upload's id and its index, invisible until the final meta
// commit); under a parity layout the m accumulators fold it in
// incrementally and flush as parity shard records when their stripe
// closes. The stub object record and the CAS-guarded metadata commit
// atomically at the end; on failure the written records are swept
// best-effort — they were never reachable. sniffed holds the chunks
// the class sniff already consumed (the first one full, in a buffer
// the loop reads the remainder into); rest carries the remainder, nil
// when the sniff saw the end.
func (c *Controller) putChunks(ctx context.Context, sessionKey, key string, opts PutOptions, next int64, l layout, sniffed [][]byte, rest io.Reader) (int64, error) {
	set := store.NewUploadID()
	hasher := sha256.New()
	sealp := sealBufs.Get().(*[]byte) // every record put is synchronous: one seal buffer serves them all
	defer sealBufs.Put(sealp)
	parity := make([][]byte, l.m)
	for j := range parity {
		bp := records.ChunkBufs.Get().(*[]byte)
		defer records.ChunkBufs.Put(bp)
		parity[j] = *bp
	}
	var total, chunks, parityBytes int64

	putRecord := func(idx int64, payload []byte) error {
		blob, err := c.sealChunk(sealp, key, set, idx, payload)
		if err != nil {
			return err
		}
		return c.replicationFailed(records.Fanout(l.homes(idx), func(di int) error {
			if err := c.drives.PutChunk(ctx, di, key, set, idx, blob); err != nil {
				return fmt.Errorf("core: stream chunk %d of %q to drive %s: %w", idx, key, c.drives.Name(di), err)
			}
			return nil
		}), key)
	}
	// stripeLen is the open stripe's shard length — the length of its
	// first chunk (only the object's final chunk can be short, so only
	// a final single-chunk stripe shrinks its parity).
	var stripeLen int
	flushParity := func(stripe int64) error {
		for j := range parity {
			if err := putRecord(store.ParityIndex(stripe, int64(l.m), int64(j)), parity[j][:stripeLen]); err != nil {
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
		stripe, slot := chunks/int64(l.k), int(chunks%int64(l.k))
		if slot == 0 {
			stripeLen = len(chunk)
			for j := range parity {
				clear(parity[j][:stripeLen])
			}
		}
		if err := putRecord(chunks, chunk); err != nil {
			return err
		}
		if l.m > 0 {
			l.code.EncodeAdd(parity, slot, chunk)
		}
		chunks++
		if slot == l.k-1 {
			return flushParity(stripe)
		}
		return nil
	}
	upload := func() error {
		for _, chunk := range sniffed {
			if err := writeChunk(chunk); err != nil {
				return err
			}
		}
		buf := sniffed[0]
		for rest != nil {
			n, rerr := io.ReadFull(rest, buf)
			if rerr == io.EOF || rerr == io.ErrUnexpectedEOF {
				rest = nil
			} else if rerr != nil {
				return rerr
			}
			if n > 0 {
				if err := writeChunk(buf[:n]); err != nil {
					return err
				}
			}
		}
		// Close a final partial stripe: its parity covers the chunks it
		// has (the absent tail slots are zero shards by construction, the
		// decoder models them the same way).
		if chunks%int64(l.k) != 0 {
			if err := flushParity(chunks / int64(l.k)); err != nil {
				return err
			}
		}
		stub := store.Meta{Key: key, Version: next, Size: total, Chunks: chunks, Upload: set}
		copy(stub.ContentHash[:], hasher.Sum(nil))
		if l.m > 0 {
			stub.ECK, stub.ECM = int64(l.k), int64(l.m)
		}
		return c.commitStream(ctx, sessionKey, opts, stub, l)
	}
	if err := upload(); err != nil {
		// The request context may already be canceled (client disconnect
		// is a common way to get here); sweep on a detached context so
		// the orphaned records don't outlive the upload.
		c.sweepChunks(context.WithoutCancel(ctx), key, set, chunks, l)
		return 0, err
	}
	// commitStream counted the write (the stub's size is the object's);
	// what is left is what only a stream has.
	c.stats.Streams.Inc()
	if l.m > 0 {
		c.stats.ECObjects.Inc()
	}
	c.stats.ECParityBytes.Add(uint64(parityBytes))
	return next, nil
}

// sweepChunks best-effort deletes the chunk records of an aborted
// upload, its chunk set and no other upload's: data indices up to and
// including the possibly in-flight one (a fan-out that failed on one
// home has still landed on the others), plus every stripe's parity
// indices — parity whose data siblings never committed must not survive
// as dark capacity — on every window drive (a superset of the homes
// actually written; forced deletes of absent keys are no-ops), as one
// commit of forced deletes a drive.
func (c *Controller) sweepChunks(ctx context.Context, key string, set, chunks int64, l layout) {
	var ops []wire.BatchOp
	del := func(idx int64) {
		ops = append(ops, wire.BatchOp{Op: wire.BatchDelete, Key: store.ChunkKey(key, set, idx), Force: true})
	}
	for idx := int64(0); idx <= chunks; idx++ {
		del(idx)
	}
	for t := range chunks/int64(l.k) + 1 { // include the open stripe
		for j := range int64(l.m) {
			del(store.ParityIndex(t, int64(l.m), j))
		}
	}
	_ = records.Fanout(l.window, func(di int) error { return c.drives.Commit(ctx, di, ops, 1) })
}

// commitStream publishes a chunked upload's stub under the commits
// lock, unless the plan, re-run under the lock, no longer gives the
// stub's version: a writer that committed the key meanwhile — buffered
// or another upload — wins. The plan re-checks the current policy and
// the chunks are probed for survival because a delete+recreate during
// the upload (an ABA) would otherwise pass the version CAS, bypass the
// recreated object's update policy and publish a stub whose chunks the
// delete swept. The sealing batch — stub object record plus CAS-guarded
// metadata — is atomic on each placement replica whatever the layout.
func (c *Controller) commitStream(ctx context.Context, sessionKey string, opts PutOptions, stub store.Meta, l layout) error {
	key := stub.Key
	defer c.commits.lock([]string{key}, nil)()

	release, err := c.beginWrite(ctx, key)
	if err != nil {
		return err
	}
	defer release()

	meta2, err := c.loadHead(ctx, key).forWrite()
	if err != nil {
		return err
	}
	next2, err := c.planVersion(ctx, nil, sessionKey, key, meta2, opts)
	if err != nil {
		return err
	}
	if next2 != stub.Version {
		return fmt.Errorf("%w: concurrent update during streamed upload", ErrBadVersion)
	}
	if stub.PolicyID, stub.PolicyHash, err = c.resolvePolicy(ctx, meta2, opts.PolicyID); err != nil {
		return err
	}
	if err := c.chunksIntact(ctx, &stub, l); err != nil {
		return err
	}
	w, err := c.stage(meta2, stub, nil)
	if err != nil {
		return err
	}
	return c.commit(ctx, []*replicaWrite{w})
}

// chunksIntact is the commit-time survival probe: the stub's first and
// last data chunk, each on every one of its homes. A concurrent delete
// sweeps the whole chunk key range on every window drive, so a
// surviving pair means no delete committed during the upload. Caller
// holds the commits lock, so no new delete can race the probe.
func (c *Controller) chunksIntact(ctx context.Context, stub *store.Meta, l layout) error {
	probes := []int64{0}
	if stub.Chunks > 1 {
		probes = append(probes, stub.Chunks-1)
	}
	set := stub.ChunkSet()
	for _, idx := range probes {
		err := records.Fanout(l.homes(idx), func(di int) error {
			err := c.drives.HasChunk(ctx, di, stub.Key, set, idx)
			if errors.Is(err, ErrNotFound) {
				return fmt.Errorf("%w: object deleted during streamed upload", ErrBadVersion)
			}
			return err
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// streamChunks hands the chunks of a streamed version to sink in
// order and seals the transfer with the whole-object size check — the
// one reader behind GetStream and Verify, so verification exercises
// exactly the read path, failover and parity fallback included. It
// hashes nothing: every chunk it hands on was opened bound to its chunk
// id, and a caller that wants the whole-object hash computes it in its
// sink. Stripes are assembled by readStripe with one stripe of
// lookahead: while stripe t goes to the sink, stripe t+1's fetches are
// already in flight, so drive reads and the client-side transfer
// pipeline instead of alternating fetch/write bubbles. meta is a stub
// the bound opener returned, so its version is the one that was asked for.
func (c *Controller) streamChunks(ctx context.Context, l layout, meta *store.Meta, sink func([]byte) error) error {
	type fetched struct {
		data    [][]byte
		release func()
		err     error
	}
	fctx, cancel := context.WithCancel(ctx)
	defer cancel()
	// Unbuffered: the producer holds at most the one stripe it fetched
	// ahead while the consumer holds the one it is writing out.
	stripes := make(chan fetched)
	go func() {
		defer close(stripes)
		for t := int64(0); t*int64(l.k) < meta.Chunks; t++ {
			data, release, err := c.readStripe(fctx, l, meta, t)
			select {
			case stripes <- fetched{data, release, err}:
			case <-fctx.Done():
				if err == nil {
					release()
				}
				return
			}
			if err != nil {
				return
			}
		}
	}()
	var total int64
	for f := range stripes {
		if f.err != nil {
			return f.err
		}
		for _, p := range f.data {
			total += int64(len(p))
			if err := sink(p); err != nil {
				f.release()
				return err
			}
		}
		f.release()
	}
	if err := ctx.Err(); err != nil {
		return err // the producer stopped on the caller's cancellation, not at the last stripe
	}
	if total != meta.Size {
		// Bytes may already be on the wire; the error must abort the
		// connection so the client sees a truncated transfer, never a
		// silently wrong object.
		return fmt.Errorf("%w: streamed object %q v%d is %d bytes, its stub says %d", store.ErrCorrupt, meta.Key, meta.Version, total, meta.Size)
	}
	return nil
}

// streamHashed is streamChunks that also recomputes the whole-object
// hash over what it hands to sink: a digest other than the stub's fails
// the transfer like a size mismatch.
func (c *Controller) streamHashed(ctx context.Context, l layout, meta *store.Meta, sink func([]byte) error) error {
	hasher := sha256.New()
	if err := c.streamChunks(ctx, l, meta, func(p []byte) error {
		hasher.Write(p)
		return sink(p)
	}); err != nil {
		return err
	}
	if [32]byte(hasher.Sum(nil)) != meta.ContentHash {
		return fmt.Errorf("%w: streamed object %q v%d fails whole-object hash", store.ErrCorrupt, meta.Key, meta.Version)
	}
	return nil
}

// verifyContent recomputes a version's whole-object hash: over the
// inline payload, or for a streamed version from its chunk records.
func (c *Controller) verifyContent(ctx context.Context, rec *store.Record) error {
	m := &rec.Meta
	if m.Chunks == 0 {
		if sha256.Sum256(rec.Payload) != m.ContentHash {
			return store.ErrCorrupt
		}
		return nil
	}
	l, err := c.layoutOf(m.Key, m.ECK, m.ECM)
	if err != nil {
		return err
	}
	return c.streamHashed(ctx, l, m, func([]byte) error { return nil })
}
