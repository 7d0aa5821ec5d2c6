// Replication engine: atomic batched writes fanned out to every
// placement replica concurrently (§3.2 steps 4–7, §4.5).
//
// The write path commits an object record *and* its metadata record to
// every replica. Doing that as independent round trips has two costs:
// latency grows as replicas × 2 RTT, and a failure between the two
// puts strands an object version without its metadata (or worse, fresh
// metadata pointing at a missing record). Here each replica instead
// receives ONE atomic batch carrying both records — the drive applies
// all sub-operations or none — and all replicas are written
// concurrently, so write-through latency is the maximum replica RTT
// rather than the sum, and object/meta can never diverge on a drive.
// Reads go through the fetch engine (records/fetch.go).
package core

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"

	"repro/internal/core/records"
	"repro/internal/kinetic/wire"
	"repro/internal/obs"
	"repro/internal/store"
)

// forEach runs fn over items on at most 8 goroutines at a time — per-key
// work over a set too large to give Fanout's goroutine each — and
// returns the first error any call reported, after all of them ended.
func forEach[T any](items []T, fn func(T) error) error {
	sem := make(chan struct{}, 8)
	errc := make(chan error, 1)
	var wg sync.WaitGroup
	for _, it := range items {
		wg.Add(1)
		sem <- struct{}{}
		go func(it T) {
			defer wg.Done()
			defer func() { <-sem }()
			if err := fn(it); err != nil {
				select {
				case errc <- err:
				default:
				}
			}
		}(it)
	}
	wg.Wait()
	select {
	case err := <-errc:
		return err
	default:
		return nil
	}
}

// replicaWrite is one staged write: the new head of a key and the two
// drive records — object record and metadata record — that must commit
// together on every replica.
type replicaWrite struct {
	rec     *store.Record // new head (a chunk stub has no payload); published on commit
	prev    []byte        // meta CAS token; nil on creation
	blob    []byte        // encoded object record
	metaRec []byte        // encoded head record
}

// stage is the one place a write becomes drive records: the new head's
// metadata and payload are encoded into the object record and the
// metadata record, the latter guarded by compare-and-swap against the
// version prev holds (nil: creation). Planning — the next version, the
// policy checks, the policy the head carries — is the caller's: put,
// batch and transaction plan under their keys' commits locks, a
// streamed upload re-plans at commitStream.
func (c *Controller) stage(prev *store.Meta, m store.Meta, payload []byte) (*replicaWrite, error) {
	rec := &store.Record{Meta: m, Payload: payload}
	blob, err := c.codec.EncodeRecord(rec)
	if err != nil {
		return nil, err
	}
	c.cost.MoveBytes(len(payload)) // request payload crosses into the enclave
	w := &replicaWrite{rec: rec, blob: blob, metaRec: c.codec.EncodeMeta(&m)}
	if prev != nil {
		w.prev = encodeVer(prev.Version)
	}
	return w, nil
}

// appendBatchOps appends the write's atomic sub-operation pair — the
// group every replica receives — to dst: object record first
// (content-addressed by version, forced), then the metadata record
// guarded by compare-and-swap against concurrent controllers.
func (w *replicaWrite) appendBatchOps(dst []wire.BatchOp) []wire.BatchOp {
	key, next := w.rec.Meta.Key, encodeVer(w.rec.Meta.Version)
	return append(dst,
		wire.BatchOp{Op: wire.BatchPut, Key: store.ObjectKey(key, w.rec.Meta.Version), Value: w.blob,
			NewVersion: next, Force: true},
		wire.BatchOp{Op: wire.BatchPut, Key: store.MetaKey(key), Value: w.metaRec,
			DBVersion: w.prev, NewVersion: next})
}

// replicationFailed maps a replication error for the client and drops
// the affected keys' cached metadata: a partial failure may have
// advanced (or destroyed) state on some replicas past what the cache
// holds, so readers must re-read drive state; a metadata CAS conflict
// becomes the client-visible version error.
func (c *Controller) replicationFailed(err error, keys ...string) error {
	if err == nil {
		return nil
	}
	for _, k := range keys {
		c.metaCache.Remove(k)
	}
	if errors.Is(err, records.ErrVersionMismatch) {
		return fmt.Errorf("%w: concurrent update detected", ErrBadVersion)
	}
	return err
}

// commit is the write path's one way to the drives and back (§3.2 steps
// 6–7): it persists any n ≥ 1 staged writes on every replica and then
// publishes them. A single put is a batch of one; a transaction commit
// is a batch that planned itself.
//
// The writes are grouped by placement drive so each drive receives as
// few sub-operation groups as possible (an object+meta pair never splits
// across groups — the drive applies both or neither, so object and
// metadata cannot diverge on a replica), and the per-drive streams run
// concurrently: latency is the slowest replica's round trip, shared with
// whatever other clients' writes the drive's group scheduler merged
// alongside. Every group ships write-through, so a commit's reply means
// every replica holds its writes on the medium, whatever the caller.
//
// Callers hold the keys' commits locks and the shard gate across the
// call. The cache publish happens under them — a concurrent writer must
// not interleave a newer cache entry between the drive commit and the
// publish — and a failure invalidates every touched key's metadata
// before returning. The meta compare-and-swap tokens remain as the
// cross-controller backstop.
func (c *Controller) commit(ctx context.Context, writes []*replicaWrite) error {
	perDrive := make([][]wire.BatchOp, c.drives.Len())
	var drives []int
	keys := make([]string, len(writes))
	for i, w := range writes {
		keys[i] = w.rec.Meta.Key
		for _, di := range c.placement(keys[i]) {
			if perDrive[di] == nil {
				drives = append(drives, di)
			}
			perDrive[di] = w.appendBatchOps(perDrive[di])
		}
	}
	sctx, span := obs.StartSpan(ctx, "replicate")
	span.Attr("replicas", strconv.Itoa(len(drives)))
	err := records.Fanout(drives, func(di int) error {
		// Chunk on the batch-op cap and the frame size, keeping each
		// object+meta pair in one atomic group.
		for ops := perDrive[di]; len(ops) > 0; {
			n, bytes := 0, 0
			for n < len(ops) && n+2 <= wire.MaxBatchOps {
				sz := len(ops[n].Value) + len(ops[n+1].Value)
				if n > 0 && bytes+sz > store.MaxObjectSize {
					break
				}
				bytes += sz
				n += 2
			}
			if err := c.gcommit.enqueue(sctx, di, ops[:n], bytes); err != nil {
				return fmt.Errorf("core: write batch to drive %s: %w", c.drives.Name(di), err)
			}
			ops = ops[n:]
		}
		return nil
	})
	span.End()
	if err != nil {
		return c.replicationFailed(err, keys...)
	}
	var bytes uint64
	for _, w := range writes {
		m := w.rec.Meta // a copy: a cached meta must not pin the record's payload
		c.metaCache.Put(m.Key, &m)
		c.objectCache.Put(m.Key, w.rec)
		c.noteWrite(m.Key, int(m.Size))
		bytes += uint64(m.Size)
	}
	c.stats.Puts.Add(uint64(len(writes)))
	c.stats.WriteBytes.Add(bytes)
	return nil
}

// deleteReplica removes every stored version of key — object records
// and streamed chunk records — plus its metadata on one drive,
// batched: the metadata delete leads the first batch so its
// compare-and-swap guard rejects the whole destruction if a
// concurrent controller bumped the object — before any record is lost
// (the serial scheme only noticed after the records were gone). guard
// is the metadata version the delete must still find; nil forces it
// (release after a handoff: the range was frozen and ownership is gone,
// there is no concurrent writer to respect).
func (c *Controller) deleteReplica(ctx context.Context, di int, key string, guard []byte) error {
	keys, chunkKeys, err := c.drives.Keys(ctx, di, key)
	if err != nil {
		return err
	}
	keys = append(keys, chunkKeys...)
	ops := make([]wire.BatchOp, 0, len(keys)+1)
	ops = append(ops, wire.BatchOp{Op: wire.BatchDelete, Key: store.MetaKey(key), DBVersion: guard, Force: guard == nil})
	for _, k := range keys {
		ops = append(ops, wire.BatchOp{Op: wire.BatchDelete, Key: k, Force: true})
	}
	metaPending := true
	for len(ops) > 0 {
		n := min(len(ops), wire.MaxBatchOps)
		// Each chunk is one group: a released range's records are
		// durably gone before the handoff acknowledges, and the
		// CAS-guarded metadata delete leading the first chunk protects
		// the whole stream.
		err := c.gcommit.enqueue(ctx, di, ops[:n], 0)
		if metaPending && err != nil {
			if records.FirstOpAbsent(err) {
				// This replica already lost its metadata (degraded
				// pre-repair state): drop the guard and still collect
				// the version records.
				ops = ops[1:]
				metaPending = false
				continue
			}
		}
		if err != nil {
			return err
		}
		metaPending = false
		ops = ops[n:]
	}
	return nil
}
