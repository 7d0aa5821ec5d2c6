package core

import (
	"context"
	"errors"
	"fmt"
	"slices"

	"repro/internal/authority"
	"repro/internal/core/records"
)

// Tx executes one transaction (§4.4) with full isolation: an atomic
// batch of reads and writes declared up front, so the controller holds
// nothing between two transaction requests. The commits table locks the
// read set shared and the write set exclusive against every writer,
// every operation passes its policy check before any effect, then the
// reads are served and all writes go to the drives as one commit.
// Results come back in request order. A read key that does not exist
// fails alone, in its result; every other failure — a malformed or
// repeated key, a key both read and written, a denial, a version
// conflict, a key of another shard — aborts the whole transaction with
// no effect on any key.
//
// Atomicity note: the commit is write-through like a put — every
// replica holds the writes before the reply. All-or-nothing when a
// drive fails mid-commit is not yet promised (ROADMAP.md, item 3).
func (s *Session) Tx(ctx context.Context, reads []string, writes []BatchPutOp, certs []*authority.Certificate) ([]BatchGetResult, []OpResult, error) {
	s.touch()
	rr, wr, err := s.ctl.transact(ctx, s.clientKey, reads, writes, certs)
	if err != nil {
		s.ctl.stats.TxAborts.Inc()
		return nil, nil, err
	}
	s.ctl.stats.TxCommits.Inc()
	return rr, wr, nil
}

func (c *Controller) transact(ctx context.Context, sessionKey string, reads []string, writes []BatchPutOp, certs []*authority.Certificate) ([]BatchGetResult, []OpResult, error) {
	if n := len(reads) + len(writes); n > MaxBatchRequestOps {
		return nil, nil, fmt.Errorf("%w: transaction of %d exceeds %d ops", ErrInvalidArgument, n, MaxBatchRequestOps)
	}
	writeKeys := make([]string, len(writes))
	written := make(map[string]bool, len(writes))
	for i, op := range writes {
		key := string(op.Key)
		if err := validKey(key); err != nil {
			return nil, nil, err
		}
		if written[key] {
			// Two writes to one key have no defined order (see batchPut).
			return nil, nil, fmt.Errorf("%w: duplicate key %q in transaction", ErrInvalidArgument, key)
		}
		written[key] = true
		writeKeys[i] = key
	}
	for _, key := range reads {
		if err := validKey(key); err != nil {
			return nil, nil, err
		}
		if written[key] {
			// A written key is readable from the write itself.
			return nil, nil, fmt.Errorf("%w: key %q both read and written in transaction", ErrInvalidArgument, key)
		}
	}

	// The read set is held shared and the write set exclusive against
	// every writer; the sharding gate fails the whole transaction with
	// the redirect error on a single foreign key.
	defer c.commits.lock(writeKeys, reads)()
	release, err := c.beginWrite(ctx, writeKeys...)
	if err != nil {
		return nil, nil, err
	}
	defer release()

	// Every head the plan needs, in one wave (loadHeads): the write keys'
	// and the read keys' up to the first one this shard does not own,
	// where the read plan below aborts.
	heads := make(map[string]headLoad, len(reads)+len(writes))
	wave := slices.Clone(writeKeys)
	for _, key := range reads {
		if err := c.checkOwned(key); err != nil {
			heads[key] = headLoad{err: err}
			break
		}
		wave = append(wave, key)
	}
	c.loadHeads(ctx, heads, wave)

	// Plan every operation — its policy check included — before any
	// effect. One policyEval serves the transaction: operations sharing a
	// policy resolve its residual once.
	pe := &policyEval{}
	rr := make([]BatchGetResult, len(reads))
	for i, key := range reads {
		rr[i].Key = JSONKey(key)
		h := heads[key]
		if h.err == nil {
			rr[i].Version, h.err = c.planRead(ctx, pe, sessionKey, h.meta, GetOptions{Certs: certs})
		}
		if h.err != nil {
			if !errors.Is(h.err, ErrNotFound) {
				return nil, nil, h.err
			}
			rr[i].Err = wireError(h.err)
		}
	}
	staged := make([]*replicaWrite, len(writes))
	wr := make([]OpResult, len(writes))
	for i, op := range writes {
		opts := PutOptions{
			PolicyID: op.PolicyID, Version: op.Version, HasVersion: op.HasVersion, Certs: certs,
		}
		if staged[i], err = c.planPut(ctx, pe, sessionKey, writeKeys[i], heads[writeKeys[i]], op.Value, opts); err != nil {
			return nil, nil, fmt.Errorf("pesos: tx write %q: %w", writeKeys[i], err)
		}
		wr[i] = OpResult{Key: op.Key, Version: staged[i].rec.Meta.Version}
	}

	// Execute. Reads first, concurrently (a snapshot under the locks: the
	// record of the version that was planned), then the writes.
	records.InParallel(len(rr), func(i int) {
		r := &rr[i]
		if r.Err != nil {
			return
		}
		rec, err := c.openPlanned(ctx, heads[reads[i]].meta, r.Version, true)
		if err != nil {
			r.Version, r.Err = 0, wireError(err)
			return
		}
		r.Value, r.PolicyID = rec.Payload, rec.Meta.PolicyID
	})
	if len(staged) == 0 {
		return rr, wr, nil
	}
	// The keys are locked, so a failure here means replica failure or an
	// out-of-band writer.
	if err := c.commit(ctx, staged); err != nil {
		return nil, nil, fmt.Errorf("pesos: tx commit: %w", err)
	}
	return rr, wr, nil
}
