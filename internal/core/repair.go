package core

import (
	"context"
	"errors"
	"fmt"
	"slices"

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
// Under the key's write lock it elects the newest surviving head
// (loadMetaNewest), lets authorize veto the repair on it — a client's
// repair needs the update permission, since repair rewrites records;
// the sweeper's passes none — and converges the replicas to it: healthy
// copies are read (verified by the codec), missing or corrupt ones
// rewritten.
func (c *Controller) repairObject(ctx context.Context, key string, authorize func(*store.Meta) error) (*RepairReport, error) {
	lock := c.writeLock(key)
	lock.Lock()
	defer lock.Unlock()
	placement := c.placement(key)
	meta, stale, err := c.loadMetaNewest(ctx, key, placement)
	if err != nil {
		return nil, err
	}
	if authorize != nil {
		if err := authorize(meta); err != nil {
			return nil, err
		}
	}
	report := &RepairReport{Key: key}

	// Enumerate the versions any replica still holds instead of
	// probing every historical version 0..meta.Version on every drive:
	// a long-lived hot key with thousands of superseded (and long
	// deleted) versions would otherwise make each repair
	// O(version-history × drives). Versions no replica holds are
	// unrepairable either way — reads of them report not-found, the
	// same before and after repair. The head is checked even when only
	// its metadata survived.
	versions, err := c.replicaVersions(ctx, key, meta.Version, placement)
	if err != nil {
		return report, err
	}
	if len(versions) == 0 || versions[len(versions)-1] != meta.Version {
		versions = append(versions, meta.Version)
	}
	// rewrite puts blob under dk on every drive the probe found without
	// a healthy copy.
	rewrite := func(missing []int, dk, blob []byte, v int64) error {
		for _, di := range missing {
			c.chargeDriveIO(len(blob))
			if err := c.drives[di].pick().Put(ctx, dk, blob, nil, encodeVer(v), true); err != nil {
				return fmt.Errorf("core: repair %q on %s: %w", dk, c.drives[di].name, err)
			}
			report.Restored++
			report.RestoredBytes += int64(len(blob))
		}
		return nil
	}
	for _, v := range versions {
		dk := store.ObjectKey(key, v)
		rec, blob, _, missing := probe(ctx, c, placement, dk, func(b []byte) (*store.Record, error) {
			return c.codec.DecodeVersion(b, key, v)
		})
		if rec == nil {
			continue
		}
		report.Versions++
		if err := rewrite(missing, dk, blob, v); err != nil {
			return report, err
		}
		// Streamed versions: the record is a chunk stub; its chunk
		// records need the same convergence, each onto its homes.
		if rec.Meta.Chunks > 0 {
			if err := c.repairStripes(ctx, key, &rec.Meta, report); err != nil {
				return report, err
			}
		}
	}
	if err := rewrite(stale, store.MetaKey(key), c.codec.EncodeMeta(meta), meta.Version); err != nil {
		return report, err
	}
	if report.Restored > 0 {
		c.stats.Repairs.Inc()
		c.stats.RepairBytes.Add(uint64(report.RestoredBytes))
	}
	return report, nil
}

// replicaVersions returns the ascending union of object-record versions
// (≤ maxVer — records beyond the newest committed metadata are
// uncommitted leftovers) still present on any placement replica, by
// walking the key's record range: cost scales with surviving records,
// not version history. The enumeration stands while one replica
// answers it: repair and the version listing both walk it.
func (c *Controller) replicaVersions(ctx context.Context, key string, maxVer int64, placement []int) ([]int64, error) {
	w := c.walk(ctx, &rangeWalk{drives: placement, cursor: store.ObjectKey(key, 0), inclusive: true,
		end: store.ObjectKey(key, maxVer), tolerate: len(placement) - 1})
	defer w.release()
	var out []int64
	for dk, _, _, ok := w.next(); ok; dk, _, _, ok = w.next() {
		if _, v, err := store.VersionFromObjectKey(dk); err == nil {
			out = append(out, v)
		}
	}
	return out, w.err
}

// loadMetaNewest reads every replica's head record at once and elects
// the newest copy that names key (newestMeta), updating the cache. The
// stale drives are those whose copy the election does not report at the
// elected version — absent, unreadable, older, or another object's,
// whatever version that object is at — which repair rewrites. Repair
// must converge to the newest surviving copy: trusting the cache or
// whichever replica answers first could elect a degraded replica's stale
// metadata and roll healthy replicas back.
func (c *Controller) loadMetaNewest(ctx context.Context, key string, placement []int) (*store.Meta, []int, error) {
	copies := make([][]byte, len(placement)) // by placement slot; nil: no copy read
	errs := make([]error, len(placement))
	_ = c.fanout(placement, func(di int) error { // failures are per slot, in errs
		i := slices.Index(placement, di)
		c.chargeDriveIO(0)
		copies[i], _, errs[i] = c.drives[di].pick().Get(ctx, store.MetaKey(key))
		return nil
	})
	var slots [2]store.Meta
	elected, current, err := c.newestMeta(key, copies, &slots)
	if err != nil {
		if slices.ContainsFunc(errs, func(err error) bool { return errors.Is(err, kclient.ErrNotFound) }) {
			err = fmt.Errorf("%w: %q", ErrNotFound, key)
		} else if failed := errors.Join(errs...); failed != nil {
			err = fmt.Errorf("core: all replicas failed reading meta %q: %w", key, failed)
		}
		return nil, nil, err
	}
	newest := *elected
	c.metaCache.Put(key, &newest)
	var stale []int
	for i, di := range placement {
		if current&(1<<uint(i)) == 0 {
			stale = append(stale, di)
		}
	}
	return &newest, stale, nil
}

// probe asks each of drives once for the record under dk and judges
// every answer with open, the bound decoder of dk — the judgement a read
// of dk makes. It returns the first healthy copy, opened and raw, with
// the drive it came from (-1: none), and the drives holding none:
// absent, unreadable and refused alike.
func probe[T any](ctx context.Context, c *Controller, drives []int, dk []byte, open func([]byte) (*T, error)) (v *T, blob []byte, src int, missing []int) {
	src = -1
	for _, di := range drives {
		c.chargeDriveIO(0)
		cur, _, err := c.drives[di].pick().Get(ctx, dk)
		var got *T
		if err == nil {
			got, err = open(cur)
		}
		if err != nil {
			missing = append(missing, di)
		} else if v == nil {
			v, blob, src = got, cur, di
		}
	}
	return v, blob, src, missing
}

// repairStripes converges one streamed version's chunk records onto
// their current homes (the layout under today's dead mask). The policy
// is survival-first: a record found healthy anywhere reaches the homes
// missing it by drive-to-drive P2P copy — the controller never carries
// or re-seals the bytes — and the decoder runs only for shards with no
// surviving copy at all, rebuilding them from any k healthy shards of
// the stripe. Healthy at-home records are never rewritten or moved.
func (c *Controller) repairStripes(ctx context.Context, key string, m *store.Meta, report *RepairReport) error {
	l, err := c.layoutOf(key, m.ECK, m.ECM)
	if err != nil {
		return err
	}
	v := m.Version
	restored := func(n int) {
		report.Restored++
		report.RestoredBytes += int64(n)
		if l.m > 0 {
			c.stats.ECShardRepairs.Inc()
		}
	}
	for t := int64(0); t*int64(l.k) < m.Chunks; t++ {
		shards := l.shards(t, m.Chunks)
		kt := len(shards) - l.m
		recs := make([]*store.Record, l.k+l.m) // by slot: every surviving shard, opened
		var lost []stripeShard
		for _, sh := range shards {
			rec, err := c.repairChunk(ctx, l, key, v, sh.idx, restored)
			if err != nil {
				return err
			}
			if recs[sh.slot] = rec; rec == nil {
				lost = append(lost, sh)
			}
		}
		// Decode path: rebuild genuinely lost shards from any k
		// survivors. Past m losses the stripe is unreconstructable —
		// reads of it fail the same before and after repair, so skip it
		// rather than abort the key: an aborted upload's cleanup can race
		// a partially-successful commit and strand a
		// committed-on-one-replica version with zero shards, and erroring
		// out here would block the metadata convergence every later
		// version (and every new write's CAS) depends on.
		if len(lost) == 0 || len(lost) > l.m {
			continue
		}
		shardLen := chunkLen(m, t*int64(l.k))
		bufs := make([][]byte, l.k+l.m)
		zeroTail(bufs[kt:l.k], shardLen)
		for slot, rec := range recs {
			if rec != nil {
				bufs[slot] = padShard(rec.Payload, shardLen)
			}
		}
		if err := l.code.Reconstruct(bufs); err != nil {
			return fmt.Errorf("core: repair %q v%d stripe %d: %w", key, v, t, err)
		}
		for _, sh := range lost {
			p := bufs[sh.slot]
			if sh.slot < kt {
				p = p[:chunkLen(m, sh.idx)]
			}
			blob, err := c.codec.EncodeChunkInto(nil, key, v, sh.idx, p)
			if err != nil {
				return err
			}
			for _, home := range l.homes(sh.idx) {
				c.chargeDriveIO(len(blob))
				if err := c.drives[home].pick().Put(ctx, store.ChunkKey(key, v, sh.idx), blob, nil, encodeVer(v), true); err != nil {
					return fmt.Errorf("core: rebuild %q v%d chunk %d on %s: %w", key, v, sh.idx, c.drives[home].name, err)
				}
				restored(len(blob))
			}
		}
	}
	return nil
}

// repairChunk converges chunk record idx of (key, v) onto its homes
// and returns a healthy copy of it, opened, nil when none survives
// anywhere. Each home is probed once; the healthy case moves nothing.
func (c *Controller) repairChunk(ctx context.Context, l layout, key string, v, idx int64, restored func(int)) (*store.Record, error) {
	dk := store.ChunkKey(key, v, idx)
	open := func(b []byte) (*store.Record, error) { return c.codec.DecodeChunkInto(b, nil, key, v, idx) }
	homes := l.homes(idx)
	rec, blob, src, missing := probe(ctx, c, homes, dk, open)
	if len(missing) == 0 {
		return rec, nil
	}
	stray := rec == nil
	if stray {
		// No home holds it. Look where it lived before a death or after
		// a revival (its home with no drive dead), then on every
		// remaining drive — a record rebuilt onto a spare under a past
		// dead mask sits outside both windows once the drive revives.
		// Dead drives are skipped — probing them burns the repair on
		// timeouts.
		base := l
		base.window = store.Placement(key, len(c.drives), len(l.window))
		dead := c.deadMask.Load()
		for _, di := range unionDrives(base.homes(idx), allDrives(len(c.drives))) {
			if dead&(1<<uint(di)) != 0 || slices.Contains(homes, di) {
				continue
			}
			if rec, blob, src, _ = probe(ctx, c, []int{di}, dk, open); rec != nil {
				break
			}
		}
		if rec == nil {
			return nil, nil
		}
	}
	for _, home := range missing {
		c.chargeDriveIO(0)
		if err := c.drives[src].pick().P2PPush(ctx, dk, c.drives[home].name); err != nil {
			// P2P may be unconfigured between these drives; the healthy
			// record is already in hand — write it directly.
			c.chargeDriveIO(len(blob))
			if perr := c.drives[home].pick().Put(ctx, dk, blob, nil, encodeVer(v), true); perr != nil {
				return nil, fmt.Errorf("core: repair %q v%d chunk %d to %s: %w", key, v, idx, c.drives[home].name, perr)
			}
		}
		restored(len(blob))
	}
	if stray {
		// The home copies are confirmed; the stray would otherwise
		// linger as dark capacity (no delete path enumerates an
		// off-window drive).
		c.chargeDriveIO(0)
		_ = c.drives[src].pick().Delete(ctx, dk, nil, true)
	}
	return rec, nil
}

// Repair re-replicates an object across its placement drives, if the
// object's policy grants the session its update. See repairObject.
func (s *Session) Repair(ctx context.Context, key string) (*RepairReport, error) {
	s.touch()
	if err := s.ctl.checkOwned(key); err != nil {
		return nil, err
	}
	return s.ctl.repairObject(ctx, key, func(meta *store.Meta) error {
		return s.ctl.checkPolicy(ctx, nil, lang.PermUpdate, s.clientKey, key, meta, nil, nil)
	})
}
