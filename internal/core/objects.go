package core

import (
	"context"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"slices"
	"time"

	"repro/internal/authority"
	"repro/internal/cache"
	"repro/internal/core/records"
	"repro/internal/kinetic/wire"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/policy/lang"
	"repro/internal/store"
)

// PutOptions modifies a put/update request.
type PutOptions struct {
	// PolicyID attaches (or changes to) the given stored policy.
	// Empty keeps the object's current policy.
	PolicyID string
	// Version, when HasVersion, is the client-supplied next version
	// (the nextVersion policy argument). It must be exactly
	// current+1, or 0 for creation.
	Version    int64
	HasVersion bool
	// Certs are certified external facts attached to the request.
	Certs []*authority.Certificate
	// Async defers execution: the unified call shape returns an
	// operation id to poll instead of blocking (v2; §4.1).
	Async bool
}

// GetOptions modifies a get request.
type GetOptions struct {
	// Version selects a historic version when HasVersion; otherwise
	// the latest version is returned.
	Version    int64
	HasVersion bool
	Certs      []*authority.Certificate
}

// DeleteOptions modifies a delete request.
type DeleteOptions struct {
	Certs []*authority.Certificate
	// Async defers execution, as in PutOptions.
	Async bool
}

// encodeVer renders a version as the Kinetic compare-and-swap token
// guarding the metadata record against concurrent controllers.
func encodeVer(v int64) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(v))
	return b[:]
}

// planVersion applies the write-path preamble shared by every mutation
// shape (single put, batch put, streamed put, transaction write) to the
// key's head meta (nil: no object yet): determine the next version,
// enforce the dense-monotonic version rule and the object's update
// policy. Callers load the head under the key's commits lock: one write
// through loadHead, a batch or transaction in one wave (loadHeads). pe
// may be nil; batched writes sharing one policy resolve its residual
// once through it.
func (c *Controller) planVersion(ctx context.Context, pe *policyEval, sessionKey, key string, meta *store.Meta, opts PutOptions) (next int64, err error) {
	// Determine the next version: explicit from the client, else
	// current+1 (0 for creation).
	switch {
	case opts.HasVersion:
		next = opts.Version
	case meta != nil:
		next = meta.Version + 1
	default:
		next = 0
	}
	// Base integrity rule, independent of policies: versions are
	// dense and monotonic.
	if meta != nil && next != meta.Version+1 {
		return 0, fmt.Errorf("%w: object at version %d, put requests %d",
			ErrBadVersion, meta.Version, next)
	}
	if meta == nil && next != 0 {
		return 0, fmt.Errorf("%w: creation must use version 0, got %d", ErrBadVersion, next)
	}

	// Policy check: an existing object's policy governs updates,
	// including policy changes (§3.1).
	if err := c.checkPolicy(ctx, pe, lang.PermUpdate, sessionKey, key, meta, &next, opts.Certs); err != nil {
		return 0, err
	}
	return next, nil
}

// resolvePolicy determines the policy (id and hash) the new version
// carries: the requested one, else the current version's.
func (c *Controller) resolvePolicy(ctx context.Context, meta *store.Meta, requested string) (string, [32]byte, error) {
	newPolicyID := requested
	if newPolicyID == "" && meta != nil {
		newPolicyID = meta.PolicyID
	}
	var policyHash [32]byte
	if newPolicyID != "" {
		// The id is the program's hash in hex (policyID), and a program
		// is loaded only when it hashes back to its id (openPolicy): the
		// load is the existence check, and the id is the hash.
		if _, err := c.loadPolicy(ctx, newPolicyID); err != nil {
			return "", policyHash, err
		}
		if _, err := hex.Decode(policyHash[:], []byte(newPolicyID)); err != nil {
			return "", policyHash, fmt.Errorf("core: policy id %q: %w", newPolicyID, err)
		}
	}
	return newPolicyID, policyHash, nil
}

// planPut runs the write plan for one buffered value against the key's
// loaded head — version planning, policy checks, the policy the new head
// carries — and stages it. Callers hold the key's commits lock and
// commit the stage.
func (c *Controller) planPut(ctx context.Context, pe *policyEval, sessionKey, key string, head headLoad, value []byte, opts PutOptions) (*replicaWrite, error) {
	if int64(len(value)) > store.MaxObjectSize {
		return nil, store.ErrTooLarge
	}
	meta, err := head.forWrite()
	if err != nil {
		return nil, err
	}
	next, err := c.planVersion(ctx, pe, sessionKey, key, meta, opts)
	if err != nil {
		return nil, err
	}
	newPolicyID, policyHash, err := c.resolvePolicy(ctx, meta, opts.PolicyID)
	if err != nil {
		return nil, err
	}
	return c.stage(meta, store.Meta{
		Key:         key,
		Version:     next,
		Size:        int64(len(value)),
		ContentHash: store.HashContent(value),
		PolicyID:    newPolicyID,
		PolicyHash:  policyHash,
	}, value)
}

// putObject is the write path (§3.2 steps 4–7): policy check, record
// encoding, write-through to every replica, cache update.
func (c *Controller) putObject(ctx context.Context, sessionKey, key string, value []byte, opts PutOptions) (int64, error) {
	// Serialize mutations of this key: concurrent version-less puts
	// become last-writer-wins instead of surfacing CAS conflicts, and
	// record/meta writes of different versions can never interleave.
	defer c.commits.lock([]string{key}, nil)()

	// Sharding gate: ownership check plus the freeze barrier; the
	// shard read lock is held across the drive commit (see shard.go).
	release, err := c.beginWrite(ctx, key)
	if err != nil {
		return 0, err
	}
	defer release()

	w, err := c.planPut(ctx, nil, sessionKey, key, c.loadHead(ctx, key), value, opts)
	if err != nil {
		return 0, err
	}
	// Write-through to every replica (§4.5), then the caches: a batch
	// of one. See commit in replicate.go.
	if err := c.commit(ctx, []*replicaWrite{w}); err != nil {
		return 0, err
	}
	return w.rec.Meta.Version, nil
}

// planRead is the read-side twin of planVersion, the preamble every
// read of an object runs — get, stream, batch, transaction read, version
// listing, verify — before any of its data is touched (§3.2 step 5:
// policy first, then data). Its caller took the head under the ownership
// gate (planReadKey, or a transaction's wave); the head names the governing
// policy, that policy must grant the session the read under the
// request's certificates, and only then is the version selected. pe may
// be nil (see policyEval).
func (c *Controller) planRead(ctx context.Context, pe *policyEval, sessionKey string, head *store.Meta, opts GetOptions) (version int64, err error) {
	if err := c.checkPolicy(ctx, pe, lang.PermRead, sessionKey, head.Key, head, nil, opts.Certs); err != nil {
		return 0, err
	}
	if opts.HasVersion {
		return opts.Version, nil
	}
	return head.Version, nil
}

// planReadKey plans a read of one key: this shard owns the key, its head
// (cache-first), then planRead.
func (c *Controller) planReadKey(ctx context.Context, sessionKey, key string, opts GetOptions) (head *store.Meta, version int64, err error) {
	if err := c.checkOwned(key); err != nil {
		return nil, 0, err
	}
	if head, err = c.loadMeta(ctx, key); err != nil {
		return nil, 0, err
	}
	version, err = c.planRead(ctx, nil, sessionKey, head, opts)
	return head, version, err
}

// readObject is the read path behind Get, GetStream and BatchGet: the
// plan, then the planned version's record.
func (c *Controller) readObject(ctx context.Context, sessionKey, key string, opts GetOptions, inline bool) (*store.Record, error) {
	head, version, err := c.planReadKey(ctx, sessionKey, key, opts)
	if err != nil {
		return nil, err
	}
	return c.openPlanned(ctx, head, version, inline)
}

// loadPlanned loads the record of a version planRead selected under
// head. The object cache holds each object's head record: a read of
// head's version uses the entry only when it holds that version, and the
// entry only moves forward — one behind the plan is replaced, a plan
// behind it reads around it. Other versions bypass the cache. The record
// of the head version was written with the head from one Meta, so one
// whose authenticated policy is not the head's is refused and the cached
// head dropped: that head chose the policy the read was judged by, and
// it is not the object's.
func (c *Controller) loadPlanned(ctx context.Context, head *store.Meta, version int64) (*store.Record, error) {
	fetch := func(ctx context.Context) (*store.Record, error) {
		return c.drives.ReadVersion(ctx, head.Key, version, c.placement(head.Key))
	}
	if version != head.Version {
		return fetch(ctx)
	}
	rec, shared, err := c.objectCache.Load(ctx, head.Key, fetch)
	if err == nil && rec.Meta.Version < version {
		c.objectCache.Remove(head.Key)
		rec, shared, err = c.objectCache.Load(ctx, head.Key, fetch)
	}
	if shared {
		c.stats.CoalescedReads.Inc()
	}
	if shared && err != nil || err == nil && rec.Meta.Version != version {
		rec, err = fetch(ctx) // a plan behind the entry, or a joined flight of another version
	}
	if err == nil && rec.Meta.PolicyID != head.PolicyID {
		c.metaCache.Remove(head.Key)
		return nil, fmt.Errorf("%w: %q v%d: the head names another policy than the version record", store.ErrCorrupt, head.Key, version)
	}
	return rec, err
}

// openPlanned loads the record of a version planRead selected
// (loadPlanned) and accounts the read. inline is the buffered shape —
// the payload leaves in the reply, so a chunked version is refused —
// and otherwise the caller streams what the record describes.
func (c *Controller) openPlanned(ctx context.Context, head *store.Meta, version int64, inline bool) (*store.Record, error) {
	key := head.Key
	rec, err := c.loadPlanned(ctx, head, version)
	if err != nil {
		return nil, err
	}
	n := len(rec.Payload)
	if rec.Meta.Chunks > 0 {
		if inline {
			// Streamed objects exceed the buffered message budget; the
			// caller must use the v2 streaming read path.
			return nil, fmt.Errorf("%w: %q v%d is %d bytes; use the streaming read API",
				ErrStreamedObject, key, version, rec.Meta.Size)
		}
		n = int(rec.Meta.Size) // a stub's payload is its chunk records
		c.stats.Streams.Inc()
	} else if inline {
		c.cost.MoveBytes(n) // response payload leaves the enclave
	}
	c.noteRead(key, n)
	c.stats.Gets.Inc()
	c.stats.ReadBytes.Add(uint64(n))
	return rec, nil
}

// deleteObject removes an object and its whole version history
// (including any streamed chunk records), returning the destroyed
// head version.
func (c *Controller) deleteObject(ctx context.Context, sessionKey, key string, opts DeleteOptions) (int64, error) {
	defer c.commits.lock([]string{key}, nil)()

	release, err := c.beginWrite(ctx, key)
	if err != nil {
		return 0, err
	}
	defer release()

	meta, err := c.loadMeta(ctx, key)
	if err != nil {
		return 0, err
	}
	if err := c.checkPolicy(ctx, nil, lang.PermDelete, sessionKey, key, meta, nil, opts.Certs); err != nil {
		return 0, err
	}
	// One batched delete stream per drive, all drives concurrently; on a
	// placement replica the stream's first batch leads with the
	// CAS-guarded metadata delete so a concurrent update rejects the
	// destruction before any version record is lost (see deleteReplica).
	// The other drives of an erasure-coded window hold no head for the
	// guard to find: theirs is forced.
	placement, guard := c.placement(key), encodeVer(meta.Version)
	err = records.Fanout(c.objectDrives(key), func(di int) error {
		if !slices.Contains(placement, di) {
			return c.deleteReplica(ctx, di, key, nil)
		}
		return c.deleteReplica(ctx, di, key, guard)
	})
	// Even a failed delete may have destroyed records: the cached head
	// goes, with any fill in flight, so readers observe drive state.
	c.objectCache.Remove(key)
	if err != nil {
		return 0, c.replicationFailed(err, key)
	}
	c.metaCache.Remove(key)
	c.noteWrite(key, 0)
	c.stats.Deletes.Inc()
	return meta.Version, nil
}

// listVersions enumerates an object's stored versions up to its head
// (privileged clients reading history, §5.3). Governed by the read
// permission. The enumeration is repair's: the union of the placement
// replicas' version records through the one range walk, so a drive
// withholding a record cannot hide its version, and it stands while one
// replica answers.
func (c *Controller) listVersions(ctx context.Context, sessionKey, key string, certs []*authority.Certificate) ([]int64, error) {
	_, version, err := c.planReadKey(ctx, sessionKey, key, GetOptions{Certs: certs})
	if err != nil {
		return nil, err
	}
	placement := c.placement(key)
	return c.drives.Versions(ctx, key, version, placement, len(placement)-1)
}

// cached serves k from ca, fetching it on a miss; concurrent misses on
// one key coalesce into a single drive round trip, and a fetch that
// raced a write or delete of k is never published (see cache.Load).
func cached[V any](ctx context.Context, c *Controller, ca *cache.Cache[string, V], k string, fetch func(context.Context) (V, error)) (V, error) {
	v, shared, err := ca.Load(ctx, k, fetch)
	if shared {
		c.stats.CoalescedReads.Inc()
	}
	return v, err
}

// loadMeta returns the newest metadata for key, cache-first with
// replica failover through the fetch engine.
func (c *Controller) loadMeta(ctx context.Context, key string) (*store.Meta, error) {
	return cached(ctx, c, c.metaCache, key, func(ctx context.Context) (*store.Meta, error) {
		return c.drives.ReadHead(ctx, key, c.placement(key))
	})
}

// headLoad is one key's head as a write or transaction loaded it: the
// head, or why it could not be had — ErrNotFound for a key with no
// object.
type headLoad struct {
	meta *store.Meta
	err  error
}

// loadHead loads key's head (loadMeta).
func (c *Controller) loadHead(ctx context.Context, key string) headLoad {
	meta, err := c.loadMeta(ctx, key)
	return headLoad{meta, err}
}

// forWrite is the head a write plans against: nil for a key with no
// object yet.
func (h headLoad) forWrite() (*store.Meta, error) {
	if errors.Is(h.err, ErrNotFound) {
		return nil, nil
	}
	return h.meta, h.err
}

// loadHeads is the head wave of a multi-key write (batchPut, transact):
// it fills heads with the head of every key in keys before any of them
// is planned. Cached heads come from the meta cache; two or more misses
// are one headWave, each drive asked at most twice — a new key's
// absence, three GETs under the fetch engine's unanimity rule, costs
// two rounds for the whole wave rather than two per key. A lone miss
// has nothing to share a request with and is loadHead's. The caller
// holds the keys' locks, so each head stays current until it commits.
func (c *Controller) loadHeads(ctx context.Context, heads map[string]headLoad, keys []string) {
	var misses []string
	for _, k := range keys {
		if c.metaCache.Contains(k) {
			heads[k] = c.loadHead(ctx, k)
		} else {
			misses = append(misses, k)
		}
	}
	switch len(misses) {
	case 0:
	case 1:
		heads[misses[0]] = c.loadHead(ctx, misses[0])
	default:
		for i, h := range c.headWave(ctx, misses, nil) {
			heads[misses[i]] = h
		}
	}
}

// headWave loads the heads of keys, none of them cached, in one wave of
// multi-key reads (records.Drives.HeadWave; wrap is its) and publishes
// the heads found to the meta cache, as loadHead would. Every key the
// wave leaves unsettled is loaded through loadHead.
func (c *Controller) headWave(ctx context.Context, keys []string, wrap func(di int, read func() error) error) []headLoad {
	out := make([]headLoad, len(keys))
	var rest []int
	for i, h := range c.drives.HeadWave(ctx, keys, c.placement, wrap) {
		switch {
		case h.Meta != nil:
			c.metaCache.Put(keys[i], h.Meta)
			out[i] = headLoad{meta: h.Meta}
		case h.Absent: // worded as ReadHead's
			out[i] = headLoad{err: fmt.Errorf("%w: meta %q", ErrNotFound, keys[i])}
		default:
			rest = append(rest, i)
		}
	}
	records.InParallel(len(rest), func(j int) { out[rest[j]] = c.loadHead(ctx, keys[rest[j]]) })
	return out
}

// policyEval carries one caller's policy-evaluation context across the
// keys of a scan page, batch or transaction commit: the residuals
// resolved so far and a reusable request, so a page of objects sharing
// a few policies (the 1:M case, §3) resolves each once — interleaved
// policies included. It belongs to a single session and a single
// goroutine; it is NOT safe for concurrent use.
type policyEval struct {
	resolved []resolvedResidual
	req      policy.Request // scratch, reused across keys
}

type resolvedResidual struct {
	op       lang.Perm
	policyID string
	res      *policy.Residual
}

// maxPageResiduals bounds the linear search of policyEval.resolved; a
// page with more distinct policies falls back to the residual cache.
const maxPageResiduals = 8

func (pe *policyEval) remember(op lang.Perm, policyID string, res *policy.Residual) {
	if pe != nil && len(pe.resolved) < maxPageResiduals {
		pe.resolved = append(pe.resolved, resolvedResidual{op, policyID, res})
	}
}

// checkPolicy enforces the object's associated policy for op. meta may
// be nil (object does not exist yet): creation is not governed by any
// object policy. nextVersion, when non-nil, fills the nextVersion
// predicate. pe, when non-nil, is the caller's page context (see
// policyEval); single-key callers pass nil.
//
// Every check evaluates the session residual: the policy's clauses for
// op specialized to the session key at bind time (policy.PartialEval)
// and cached per (policy, op, session). A policy whose verdict depends
// only on the session key — no object state, versions, certificates or
// time — is decided outright at bind time and never runs the clause
// machine again. The policy id is content-addressed, so a changed
// policy keys a fresh residual by construction, and PutPolicy still
// clears the cache as a defense-in-depth backstop.
func (c *Controller) checkPolicy(ctx context.Context, pe *policyEval, op lang.Perm, sessionKey, key string, meta *store.Meta, nextVersion *int64, certs []*authority.Certificate) error {
	if meta == nil || meta.PolicyID == "" {
		return nil
	}

	// Resolve the session residual — from the page context, the
	// residual cache, or freshly — and evaluate it.
	sctx, span := obs.StartSpan(ctx, "policy_eval")
	res, reused, err := c.residualFor(sctx, pe, op, sessionKey, meta.PolicyID)
	if err != nil {
		span.End()
		return err
	}
	req := buildPolicyRequest(pe, op, key, sessionKey, nextVersion, certs, c.clock())
	dec, evalErr := res.Eval(req, &objectSource{c: c, ctx: sctx})
	_, decided := res.Decided()
	c.stats.PolicyChecks.Inc()
	if reused {
		c.stats.ResidualHits.Inc()
		span.Attr("residual", "hit")
	}
	if !decided {
		c.stats.PolicyEvals.Inc()
	}
	c.stats.IndexSkippedClauses.Add(uint64(dec.Skipped))
	span.End()
	if evalErr != nil {
		return evalErr
	}
	if !dec.Allowed {
		c.stats.PolicyDenials.Inc()
		c.auditDecision(obs.TraceID(ctx), sessionKey, op.String(), key, "deny", dec.Reason, meta.PolicyID)
		return &DeniedError{Op: op.String(), Key: key, Reason: dec.Reason}
	}
	c.auditDecision(obs.TraceID(ctx), sessionKey, op.String(), key, "allow", "", meta.PolicyID)
	return nil
}

// residualFor resolves the partial evaluation of (policy, op, session).
// Resolution order: the caller's page context (earlier keys sharing the
// policy), the EPC-charged residual cache, then a fresh PartialEval of
// the loaded program. reused reports whether a pre-computed residual
// served the check.
func (c *Controller) residualFor(ctx context.Context, pe *policyEval, op lang.Perm, sessionKey, policyID string) (res *policy.Residual, reused bool, err error) {
	if pe != nil {
		for i := range pe.resolved {
			if r := &pe.resolved[i]; r.policyID == policyID && r.op == op {
				return r.res, true, nil
			}
		}
	}
	rkey := residualKey(policyID, op, sessionKey)
	if r, ok := c.residualCache.Get(rkey); ok {
		pe.remember(op, policyID, r)
		return r, true, nil
	}
	prog, err := c.loadPolicy(ctx, policyID)
	if err != nil {
		return nil, false, err
	}
	r := policy.PartialEval(prog, op, sessionKey)
	c.residualCache.Put(rkey, r)
	pe.remember(op, policyID, r)
	return r, false, nil
}

// buildPolicyRequest fills a policy request, reusing the page
// context's scratch request when one is supplied.
func buildPolicyRequest(pe *policyEval, op lang.Perm, key, sessionKey string, nextVersion *int64, certs []*authority.Certificate, now time.Time) *policy.Request {
	var req *policy.Request
	if pe != nil {
		pe.req = policy.Request{}
		req = &pe.req
	} else {
		req = &policy.Request{}
	}
	req.Op = op
	req.ObjectID = key
	req.LogID = LogKeyFor(key)
	req.SessionKey = sessionKey
	req.Certificates = certs
	req.Now = now
	if nextVersion != nil {
		req.NextVersion = *nextVersion
		req.HasNextVersion = true
	}
	return req
}

// residualKey builds the residual-cache key. The policy id is its
// content hash, so the triple fully determines the residual.
func residualKey(policyID string, op lang.Perm, sessionKey string) string {
	return policyID + "\x00" + string(rune(op)) + "\x00" + sessionKey
}

// objectSource adapts the controller's loaders to the interpreter's
// view of stored objects. Lookups go through the same caches as
// client requests, which is what makes content-based policies
// affordable (§4.2).
type objectSource struct {
	c   *Controller
	ctx context.Context
}

// record loads id's record at version as a read planned under id's head
// (loadPlanned).
func (o *objectSource) record(id string, version int64) (*store.Record, error) {
	head, err := o.c.loadMeta(o.ctx, id)
	if err != nil {
		return nil, err
	}
	return o.c.loadPlanned(o.ctx, head, version)
}

// Info implements policy.ObjectSource.
func (o *objectSource) Info(id string) (policy.ObjectInfo, bool, error) {
	meta, err := o.c.loadMeta(o.ctx, id)
	if errors.Is(err, ErrNotFound) {
		return policy.ObjectInfo{}, false, nil
	}
	if err != nil {
		return policy.ObjectInfo{}, false, err
	}
	return policy.ObjectInfo{
		ID:         id,
		Version:    meta.Version,
		Size:       meta.Size,
		Hash:       meta.ContentHash,
		PolicyHash: meta.PolicyHash,
	}, true, nil
}

// InfoAt implements policy.ObjectSource.
func (o *objectSource) InfoAt(id string, version int64) (policy.ObjectInfo, bool, error) {
	rec, err := o.record(id, version)
	if errors.Is(err, ErrNotFound) {
		return policy.ObjectInfo{}, false, nil
	}
	if err != nil {
		return policy.ObjectInfo{}, false, err
	}
	return policy.ObjectInfo{
		ID:         id,
		Version:    rec.Meta.Version,
		Size:       rec.Meta.Size,
		Hash:       rec.Meta.ContentHash,
		PolicyHash: rec.Meta.PolicyHash,
	}, true, nil
}

// Content implements policy.ObjectSource.
func (o *objectSource) Content(id string, version int64) ([]byte, bool, error) {
	rec, err := o.record(id, version)
	if errors.Is(err, ErrNotFound) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, err
	}
	return rec.Payload, true, nil
}

// PutPolicy compiles policy source, persists the compiled program on
// the drives and returns its content-addressed identifier (§3.1:
// compile, cache, persist).
func (c *Controller) PutPolicy(ctx context.Context, src string) (string, error) {
	prog, err := policy.CompileSource(src)
	if err != nil {
		// A policy that does not compile is the caller's mistake, not
		// the store's; both chains stay inspectable.
		return "", fmt.Errorf("%w: %w", ErrInvalidArgument, err)
	}
	id := records.PolicyID(prog)
	blob, err := prog.Marshal()
	if err != nil {
		return "", err
	}
	// Policies fan out to all placement replicas concurrently like any
	// other write-through operation; each replica's put is a one-op
	// group, so a policy store rides the same shared drive batches as
	// concurrent data writes.
	placement := c.placement(id)
	err = records.Fanout(placement, func(di int) error {
		// Content-addressed: rewriting the same id is idempotent.
		ops := []wire.BatchOp{{
			Op: wire.BatchPut, Key: store.PolicyKey(id), Value: blob,
			NewVersion: []byte{1}, Force: true,
		}}
		if err := c.drives.Commit(ctx, di, ops, 1); err != nil {
			return fmt.Errorf("core: store policy on drive %s: %w", c.drives.Name(di), err)
		}
		return nil
	})
	if err != nil {
		return "", err
	}
	c.policyCache.Put(id, prog)
	// Policy-change backstop: residuals key on the content-addressed
	// policy id, so this is redundant by construction — kept so a
	// future non-content-addressed policy root cannot silently serve
	// stale verdicts: a session that bound a residual against the old
	// program would otherwise keep enforcing replaced clauses for as
	// long as the entry stays cached.
	c.residualCache.Clear()
	return id, nil
}

// GetPolicySource returns the canonical text of a stored policy —
// clients auditing what a policy id means.
func (c *Controller) GetPolicySource(ctx context.Context, id string) (string, error) {
	prog, err := c.loadPolicy(ctx, id)
	if err != nil {
		return "", err
	}
	return prog.Source()
}

// loadPolicy returns a compiled policy by id, cache-first with replica
// failover. Coalescing matters most here: a hot policy serving many
// objects (1:M, §3) that falls out of cache is missed by all of them at
// once.
func (c *Controller) loadPolicy(ctx context.Context, id string) (*policy.Program, error) {
	if prog, ok := c.policyCache.Hit(id); ok {
		return prog, nil // without building the miss path's fetch
	}
	return cached(ctx, c, c.policyCache, id, func(ctx context.Context) (*policy.Program, error) {
		return c.drives.ReadPolicy(ctx, id, c.placement(id))
	})
}
