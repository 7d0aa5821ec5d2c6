package core

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"repro/internal/kinetic/kclient"
	"repro/internal/policy/lang"
	"repro/internal/store"
)

// RepairReport summarizes one object's replica repair.
type RepairReport struct {
	Key string
	// Versions is the number of object versions examined.
	Versions int
	// Restored counts records rewritten onto drives that were missing
	// them (or holding corrupt copies).
	Restored int
	// RestoredBytes totals the payload bytes of rewritten records —
	// the re-replication traffic this repair moved.
	RestoredBytes int64
}

// repairObject re-establishes the replication invariant for one key
// (§4.5): after a drive is replaced or lost writes are detected, every
// placement drive must hold every version record plus the metadata.
// Healthy copies are read (with integrity verification through the
// codec), missing or corrupt ones rewritten. Governed by the object's
// update permission, since repair rewrites records.
func (c *Controller) repairObject(ctx context.Context, sessionKey, key string) (*RepairReport, error) {
	lock := c.writeLock(key)
	lock.Lock()
	defer lock.Unlock()

	placement := c.placement(key)
	meta, err := c.loadMetaNewest(ctx, key, placement)
	if err != nil {
		return nil, err
	}
	if err := c.checkPolicy(ctx, lang.PermUpdate, sessionKey, key, meta, nil, nil); err != nil {
		return nil, err
	}
	return c.repairRecords(ctx, key, meta, placement)
}

// repairRecords converges one key's replicas to the newest surviving
// state. Callers hold the key's write lock and have settled the
// policy question (client repairs are permission-gated; the
// anti-entropy sweep is an internal maintenance path).
func (c *Controller) repairRecords(ctx context.Context, key string, meta *store.Meta, placement []int) (*RepairReport, error) {
	report := &RepairReport{Key: key}
	metaRec := meta.Marshal()

	// Enumerate the versions any replica still holds instead of
	// probing every historical version 0..meta.Version on every drive:
	// a long-lived hot key with thousands of superseded (and long
	// deleted) versions would otherwise make each repair
	// O(version-history × drives). Versions no replica holds are
	// unrepairable either way — reads of them report not-found, the
	// same before and after repair.
	for _, v := range c.replicaVersions(ctx, key, meta.Version, placement) {
		// Find one healthy copy of this version.
		blob, found := c.healthyRecord(ctx, key, v, placement)
		if !found {
			continue
		}
		report.Versions++
		for _, di := range placement {
			cl := c.drives[di].pick()
			c.chargeDriveIO(0)
			cur, _, err := cl.Get(ctx, store.ObjectKey(key, v))
			healthy := err == nil && c.recordHealthy(cur)
			if healthy {
				continue
			}
			c.chargeDriveIO(len(blob))
			if err := cl.Put(ctx, store.ObjectKey(key, v), blob, nil, encodeVer(v), true); err != nil {
				return report, fmt.Errorf("core: repair %q v%d on %s: %w", key, v, c.drives[di].name, err)
			}
			report.Restored++
			report.RestoredBytes += int64(len(blob))
		}
		// Streamed versions: the record is a chunk stub; its chunk
		// records need the same convergence. Erasure-coded versions
		// converge per shard home instead of per replica.
		if rec, err := c.codec.DecodeRecord(blob); err == nil && rec.Meta.Chunks > 0 {
			if rec.Meta.ECK > 0 {
				if err := c.repairStripes(ctx, key, &rec.Meta, report); err != nil {
					return report, err
				}
			} else if err := c.repairChunks(ctx, key, v, rec.Meta.Chunks, placement, report); err != nil {
				return report, err
			}
		}
	}
	// Restore metadata replicas.
	for _, di := range placement {
		cl := c.drives[di].pick()
		c.chargeDriveIO(0)
		cur, _, err := cl.Get(ctx, store.MetaKey(key))
		if err == nil {
			if m, merr := store.UnmarshalMeta(cur); merr == nil && m.Version == meta.Version {
				continue
			}
		}
		c.chargeDriveIO(len(metaRec))
		if err := cl.Put(ctx, store.MetaKey(key), metaRec, nil, encodeVer(meta.Version), true); err != nil {
			return report, fmt.Errorf("core: repair meta %q on %s: %w", key, c.drives[di].name, err)
		}
		report.Restored++
		report.RestoredBytes += int64(len(metaRec))
	}
	if report.Restored > 0 {
		c.stats.Repairs.Inc()
		c.stats.RepairBytes.Add(uint64(report.RestoredBytes))
	}
	return report, nil
}

// replicaVersions returns the sorted union of object-record versions
// (≤ maxVer — records beyond the newest committed metadata are
// uncommitted leftovers) still present on any placement replica, via
// paginated key-range enumeration: cost scales with surviving
// records, not version history. meta.Version is always included so
// the newest version is checked even when only the metadata survived.
func (c *Controller) replicaVersions(ctx context.Context, key string, maxVer int64, placement []int) []int64 {
	seen := map[int64]bool{maxVer: true}
	_, end := store.ObjectKeyRange(key)
	for _, di := range placement {
		cl := c.drives[di].pick()
		next := int64(0)
		for {
			c.chargeDriveIO(0)
			kr, err := cl.Range(ctx, store.ObjectKey(key, next), end, true, false, 0, false)
			if err != nil || len(kr.Keys) == 0 {
				break
			}
			last := int64(-1)
			for _, dk := range kr.Keys {
				if _, v, err := store.VersionFromObjectKey(dk); err == nil {
					if v <= maxVer {
						seen[v] = true
					}
					last = v
				}
			}
			if !kr.Truncated || last < 0 || last >= maxVer {
				break
			}
			next = last + 1
		}
	}
	out := make([]int64, 0, len(seen))
	for v := range seen {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// sweepKey repairs one key under its write lock (internal path, no
// policy check).
func (c *Controller) sweepKey(ctx context.Context, key string) (*RepairReport, error) {
	lock := c.writeLock(key)
	lock.Lock()
	defer lock.Unlock()
	placement := c.placement(key)
	meta, err := c.loadMetaNewest(ctx, key, placement)
	if err != nil {
		if errors.Is(err, ErrNotFound) {
			return &RepairReport{Key: key}, nil // deleted mid-sweep
		}
		return nil, err
	}
	return c.repairRecords(ctx, key, meta, placement)
}

// loadMetaNewest reads every replica's metadata record and returns the
// highest version found, updating the cache. Repair must converge to
// the newest surviving copy: trusting the cache or whichever replica
// answers first could elect a degraded replica's stale metadata and
// roll healthy replicas back.
func (c *Controller) loadMetaNewest(ctx context.Context, key string, placement []int) (*store.Meta, error) {
	var newest *store.Meta
	var sawNotFound bool
	var lastErr error
	for _, di := range placement {
		cl := c.drives[di].pick()
		c.chargeDriveIO(0)
		val, _, err := cl.Get(ctx, store.MetaKey(key))
		if errors.Is(err, kclient.ErrNotFound) {
			sawNotFound = true
			continue
		}
		if err != nil {
			lastErr = err
			continue
		}
		m, err := store.UnmarshalMeta(val)
		if err != nil {
			continue // corrupt copy; another replica may be healthy
		}
		if newest == nil || m.Version > newest.Version {
			newest = m
		}
	}
	if newest == nil {
		if sawNotFound {
			return nil, fmt.Errorf("%w: %q", ErrNotFound, key)
		}
		return nil, fmt.Errorf("core: all replicas failed reading meta %q: %w", key, lastErr)
	}
	c.metaCache.Put(key, newest)
	return newest, nil
}

// healthyRecord fetches one verifiable copy of a version record.
func (c *Controller) healthyRecord(ctx context.Context, key string, v int64, placement []int) ([]byte, bool) {
	for _, di := range placement {
		cl := c.drives[di].pick()
		c.chargeDriveIO(0)
		blob, _, err := cl.Get(ctx, store.ObjectKey(key, v))
		if err != nil {
			continue
		}
		if c.recordHealthy(blob) {
			return blob, true
		}
	}
	return nil, false
}

// recordHealthy reports whether a raw drive record is intact: the codec
// decodes and authenticates it. A chunk stub's content hash spans its
// chunk records, which converge separately.
func (c *Controller) recordHealthy(blob []byte) bool {
	_, err := c.codec.DecodeRecord(blob)
	return err == nil
}

// repairChunks re-establishes the replication invariant for the chunk
// records of one streamed version.
func (c *Controller) repairChunks(ctx context.Context, key string, v, chunks int64, placement []int, report *RepairReport) error {
	for idx := int64(0); idx < chunks; idx++ {
		dk := store.ChunkKey(key, v, idx)
		var blob []byte
		for _, di := range placement {
			cl := c.drives[di].pick()
			c.chargeDriveIO(0)
			cur, _, err := cl.Get(ctx, dk)
			if err == nil && c.chunkHealthy(cur, key, v, idx) {
				blob = cur
				break
			}
		}
		if blob == nil {
			continue // no surviving copy; reads of this version fail, as before repair
		}
		for _, di := range placement {
			cl := c.drives[di].pick()
			c.chargeDriveIO(0)
			cur, _, err := cl.Get(ctx, dk)
			if err == nil && c.chunkHealthy(cur, key, v, idx) {
				continue
			}
			c.chargeDriveIO(len(blob))
			if err := cl.Put(ctx, dk, blob, nil, encodeVer(v), true); err != nil {
				return fmt.Errorf("core: repair %q v%d chunk %d on %s: %w", key, v, idx, c.drives[di].name, err)
			}
			report.Restored++
			report.RestoredBytes += int64(len(blob))
		}
	}
	return nil
}

// repairStripes converges one erasure-coded version's shards onto
// their current homes (the group under today's dead mask). The policy
// is survival-first: a shard found healthy anywhere moves home by
// drive-to-drive P2P copy — the controller never carries the bytes —
// and the decoder runs only for shards with no surviving copy at all,
// rebuilding them from any k healthy shards of the stripe. Healthy
// at-home shards are never rewritten or moved.
func (c *Controller) repairStripes(ctx context.Context, key string, m *store.Meta, report *RepairReport) error {
	code, err := c.ecCodeFor(int(m.ECK), int(m.ECM))
	if err != nil {
		return err
	}
	k, mm := code.DataShards(), code.ParityShards()
	group := c.ecGroup(key, k+mm)
	base := store.Placement(key, len(c.drives), k+mm)
	v := m.Version
	stripes := (m.Chunks + int64(k) - 1) / int64(k)
	for t := int64(0); t < stripes; t++ {
		kt := k
		if rem := m.Chunks - t*int64(k); rem < int64(kt) {
			kt = int(rem)
		}
		type shardState struct {
			slot  int
			idx   int64
			home  int
			srcDi int    // drive holding a healthy copy; -1 = lost
			blob  []byte // the healthy raw record
		}
		states := make([]shardState, 0, kt+mm)
		for s := 0; s < kt; s++ {
			states = append(states, shardState{
				slot: s, idx: t*int64(k) + int64(s),
				home: ecShardDrive(group, s, t), srcDi: -1,
			})
		}
		for j := 0; j < mm; j++ {
			states = append(states, shardState{
				slot: k + j, idx: store.ParityIndex(t, int64(mm), int64(j)),
				home: ecShardDrive(group, k+j, t), srcDi: -1,
			})
		}
		missing := 0
		dead := c.deadMask.Load()
		for i := range states {
			st := &states[i]
			dk := store.ChunkKey(key, v, st.idx)
			// Sources, most likely first: the current home, the base
			// home (where the shard lived before a death or after a
			// revival), the rest of both windows, then every remaining
			// drive — a shard rebuilt onto a spare under a past dead
			// mask sits outside both windows once the drive revives.
			// Dead drives are skipped — probing them burns the repair
			// on timeouts. The healthy case exits on the first probe.
			all := make([]int, len(c.drives))
			for i := range all {
				all[i] = i
			}
			cands := unionDrives(unionDrives([]int{st.home, ecShardDrive(base, st.slot, t)}, unionDrives(group, base)), all)
			for _, di := range cands {
				if dead&(1<<uint(di)) != 0 {
					continue
				}
				cl := c.drives[di].pick()
				c.chargeDriveIO(0)
				cur, _, err := cl.Get(ctx, dk)
				if err != nil || !c.chunkHealthy(cur, key, v, st.idx) {
					continue
				}
				st.srcDi = di
				st.blob = cur
				break
			}
			if st.srcDi < 0 {
				missing++
			}
		}
		// Off-home survivors go home drive-to-drive.
		for i := range states {
			st := &states[i]
			if st.srcDi < 0 || st.srcDi == st.home {
				continue
			}
			dk := store.ChunkKey(key, v, st.idx)
			c.chargeDriveIO(0)
			if err := c.drives[st.srcDi].pick().P2PPush(ctx, dk, c.drives[st.home].name); err != nil {
				// P2P may be unconfigured between these drives; the
				// healthy record is already in hand — write it directly.
				c.chargeDriveIO(len(st.blob))
				if perr := c.drives[st.home].pick().Put(ctx, dk, st.blob, nil, encodeVer(v), true); perr != nil {
					return fmt.Errorf("core: ec repair %q v%d shard %d to %s: %w", key, v, st.idx, c.drives[st.home].name, perr)
				}
			}
			// The home copy is confirmed; the stray would otherwise
			// linger as dark capacity (no delete path enumerates an
			// off-window drive).
			c.chargeDriveIO(0)
			_ = c.drives[st.srcDi].pick().Delete(ctx, dk, nil, true)
			report.Restored++
			report.RestoredBytes += int64(len(st.blob))
			c.stats.ECShardRepairs.Inc()
		}
		if missing == 0 {
			continue
		}
		// Decode path: rebuild genuinely lost shards from any k
		// survivors. Past m losses the stripe is unreconstructable —
		// like a replicated version with no surviving chunk copy,
		// reads of it fail the same before and after repair, so skip
		// it rather than abort the key: an aborted upload's cleanup
		// can race a partially-successful commit and strand a
		// committed-on-one-replica version with zero shards, and
		// erroring out here would block the metadata convergence
		// every later version (and every new write's CAS) depends on.
		healthy := 0
		for i := range states {
			if states[i].srcDi >= 0 {
				healthy++
			}
		}
		if healthy+(k-kt) < k {
			continue
		}
		shardLen := ecChunkLen(m, t*int64(k))
		bufs := make([][]byte, k+mm)
		var zero []byte
		for s := kt; s < k; s++ {
			if zero == nil {
				zero = make([]byte, shardLen)
			}
			bufs[s] = zero // virtual zero shards of a short stripe
		}
		for i := range states {
			st := &states[i]
			if st.srcDi < 0 {
				continue
			}
			rec, err := c.codec.DecodeRecord(st.blob)
			if err != nil {
				continue
			}
			p := rec.Payload
			if len(p) < shardLen {
				pp := make([]byte, shardLen)
				copy(pp, p)
				p = pp
			}
			bufs[st.slot] = p
		}
		if err := code.Reconstruct(bufs); err != nil {
			return fmt.Errorf("core: ec repair %q v%d stripe %d: %w", key, v, t, err)
		}
		for i := range states {
			st := &states[i]
			if st.srcDi >= 0 {
				continue
			}
			p := bufs[st.slot]
			if st.slot < kt {
				p = p[:ecChunkLen(m, st.idx)]
			}
			blob, err := c.codec.EncodeChunkInto(nil, key, v, st.idx, p)
			if err != nil {
				return err
			}
			c.chargeDriveIO(len(blob))
			if err := c.drives[st.home].pick().Put(ctx, store.ChunkKey(key, v, st.idx), blob, nil, encodeVer(v), true); err != nil {
				return fmt.Errorf("core: ec rebuild %q v%d shard %d on %s: %w", key, v, st.idx, c.drives[st.home].name, err)
			}
			report.Restored++
			report.RestoredBytes += int64(len(blob))
			c.stats.ECShardRepairs.Inc()
		}
	}
	return nil
}

// chunkHealthy reports whether a raw chunk record is intact and is the
// chunk of (key, v, idx).
func (c *Controller) chunkHealthy(blob []byte, key string, v, idx int64) bool {
	_, err := c.codec.DecodeChunkInto(blob, nil, key, v, idx)
	return err == nil
}

// Repair re-replicates an object across its placement drives. See
// repairObject.
func (s *Session) Repair(ctx context.Context, key string) (*RepairReport, error) {
	s.touch()
	if err := s.ctl.checkOwned(key); err != nil {
		return nil, err
	}
	return s.ctl.repairObject(ctx, s.clientKey, key)
}
