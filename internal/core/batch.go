// Multi-key operations of the v2 API. BatchPut rides the write path's
// one commit: the whole request's surviving writes are grouped into one
// batch stream per placement drive and fanned out to all drives
// concurrently (commit, replicate.go), so a request touching N keys
// pays max-of-replica latency instead of N sequential round trips.
// Results are per-operation: one OpResult per submitted op, in order.
package core

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/authority"
	"repro/internal/core/records"
)

// MaxBatchRequestOps caps the operations of one v2 batch request.
const MaxBatchRequestOps = 256

// BatchPutOp is one write of a v2 batch put. Keys ride as JSONKey so
// binary keys survive the JSON request body.
type BatchPutOp struct {
	Key   JSONKey `json:"key"`
	Value []byte  `json:"value"`
	// Version, when HasVersion, is the explicit next version (same
	// semantics as PutOptions).
	Version    int64 `json:"version,omitempty"`
	HasVersion bool  `json:"hasVersion,omitempty"`
	// PolicyID attaches (or changes to) a stored policy.
	PolicyID string `json:"policy,omitempty"`
}

// BatchGetResult is one read outcome of a v2 batch get.
type BatchGetResult struct {
	Key      JSONKey    `json:"key"`
	Value    []byte     `json:"value,omitempty"`
	Version  int64      `json:"version"`
	PolicyID string     `json:"policy,omitempty"`
	Err      *WireError `json:"error,omitempty"`
}

// BatchGet reads many objects, each under its own policy check, with
// per-op results in request order. Reads run concurrently (they share
// the caches and the parallel replica failover of point reads).
func (s *Session) BatchGet(ctx context.Context, keys []string, certs []*authority.Certificate) ([]BatchGetResult, error) {
	s.touch()
	if len(keys) > MaxBatchRequestOps {
		return nil, fmt.Errorf("%w: batch of %d exceeds %d ops", ErrInvalidArgument, len(keys), MaxBatchRequestOps)
	}
	results := make([]BatchGetResult, len(keys))
	records.InParallel(len(keys), func(i int) {
		key := keys[i]
		results[i].Key = JSONKey(key)
		if err := validKey(key); err != nil {
			results[i].Err = wireError(err)
			return
		}
		rec, err := s.ctl.readObject(ctx, s.clientKey, key, GetOptions{Certs: certs}, true)
		if err != nil {
			results[i].Err = wireError(err)
			return
		}
		results[i].Value = rec.Payload
		results[i].Version = rec.Meta.Version
		results[i].PolicyID = rec.Meta.PolicyID
	})
	s.ctl.stats.BatchOps.Add(uint64(len(keys)))
	return results, nil
}

// BatchPut writes many objects with per-op results in request order.
// Each op is planned independently — version rules and policy checks
// that fail mark only that op — and the surviving writes commit
// together through the per-drive atomic batch streams. A replication
// failure during commit fails every surviving op (the commit is one
// fan-out), never a silent subset.
func (s *Session) BatchPut(ctx context.Context, ops []BatchPutOp, certs []*authority.Certificate) ([]OpResult, error) {
	s.touch()
	return s.ctl.batchPut(ctx, s.clientKey, ops, certs)
}

func (c *Controller) batchPut(ctx context.Context, sessionKey string, ops []BatchPutOp, certs []*authority.Certificate) ([]OpResult, error) {
	if len(ops) > MaxBatchRequestOps {
		return nil, fmt.Errorf("%w: batch of %d exceeds %d ops", ErrInvalidArgument, len(ops), MaxBatchRequestOps)
	}
	results := make([]OpResult, len(ops))

	// Lock every touched key up front so the whole batch plans and
	// commits under a consistent view, serialized against every other
	// writer of its keys.
	keys := make([]string, 0, len(ops))
	seen := make(map[string]bool, len(ops))
	for i, op := range ops {
		key := string(op.Key)
		results[i].Key = op.Key
		if err := validKey(key); err != nil {
			results[i].Err = wireError(err)
			continue
		}
		if seen[key] {
			// Two writes to one key in a batch have no defined order;
			// reject the duplicate rather than guessing.
			results[i].Err = wireError(fmt.Errorf("%w: duplicate key %q in batch", ErrInvalidArgument, key))
			continue
		}
		seen[key] = true
		keys = append(keys, key)
	}
	defer c.commits.lock(keys, nil)()

	// Sharding gate: unowned keys fail per-op with the redirect code
	// (the router re-splits them), owned keys wait out any freeze.
	release, ownedMask, err := c.beginWriteFiltered(ctx, keys)
	if err != nil {
		return nil, err
	}
	defer release()
	// Every owned key's head, in one wave before the plan (loadHeads):
	// the planning loop below reads none.
	owned := make([]string, 0, len(keys))
	for i, k := range keys {
		if ownedMask[i] {
			owned = append(owned, k)
		}
	}
	heads := make(map[string]headLoad, len(owned))
	c.loadHeads(ctx, heads, owned)

	var staged []*replicaWrite
	var stagedIdx []int // staged[i] answers ops[stagedIdx[i]]
	// Batch ops run the staging loop on one goroutine, so a single
	// policyEval carries the resolved residual across every op that
	// shares a policy.
	pe := &policyEval{}
	for i, op := range ops {
		if results[i].Err != nil {
			continue
		}
		key := string(op.Key)
		head, ok := heads[key]
		if !ok {
			results[i].Err = wireError(c.wrongShard(key))
			continue
		}
		opts := PutOptions{
			PolicyID: op.PolicyID, Version: op.Version, HasVersion: op.HasVersion, Certs: certs,
		}
		w, err := c.planPut(ctx, pe, sessionKey, key, head, op.Value, opts)
		if err != nil {
			results[i].Err = wireError(err)
			continue
		}
		results[i].Version = w.rec.Meta.Version
		staged, stagedIdx = append(staged, w), append(stagedIdx, i)
	}

	if len(staged) > 0 {
		if err := c.commit(ctx, staged); err != nil {
			// One fan-out failed; every surviving op shares its fate
			// (commit already dropped the affected cache entries).
			for _, i := range stagedIdx {
				results[i].Version = 0
				results[i].Err = wireError(err)
			}
		}
	}
	c.stats.BatchOps.Add(uint64(len(ops)))
	return results, nil
}

// validKey is the one rule for an object key, applied where a request
// enters — a URL path, a batch body, a transaction body alike
// (docs/storage.md): not empty, and no NUL, which separates the fields of
// a drive key.
func validKey(key string) error {
	if key == "" {
		return fmt.Errorf("%w: empty object key", ErrInvalidArgument)
	}
	if strings.ContainsRune(key, 0) {
		return fmt.Errorf("%w: object keys must not contain NUL", ErrInvalidArgument)
	}
	return nil
}
