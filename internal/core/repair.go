package core

import (
	"context"
	"errors"
	"fmt"
	"slices"

	"repro/internal/core/records"
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
	head          *store.Meta // the elected head the replicas converged to
}

// repairObject re-establishes the replication invariant for one key
// (§4.5): after a drive is replaced or lost writes are detected, every
// placement drive must hold every version record plus the metadata.
// Under the key's commits lock it elects the newest surviving head
// (loadMetaNewest), lets authorize veto the repair on it — a client's
// repair needs the update permission, since repair rewrites records;
// the sweeper's passes none — and converges the replicas to it: healthy
// copies are read (verified by the codec), missing or corrupt ones
// rewritten.
//
// A handoff export is this repair with a second destination, to: each
// record it judges is pushed drive to drive from a copy the bound opener
// accepted to its homes in to's layout (settle); only a shard with no
// surviving copy is written on the source, and a copy it cannot read
// fails it (the records probes' strict mode). An export runs under its
// range's freeze instead of the commits lock, which the writers the
// freeze blocks hold.
func (c *Controller) repairObject(ctx context.Context, key string, authorize func(*store.Meta) error, to *MigrationTarget) (*RepairReport, error) {
	if to == nil {
		defer c.commits.lock([]string{key}, nil)()
	}
	placement := c.placement(key)
	meta, stale, err := c.loadMetaNewest(ctx, key, placement, to)
	if err != nil {
		return nil, err
	}
	if authorize != nil {
		if err := authorize(meta); err != nil {
			return nil, err
		}
	}
	report := &RepairReport{Key: key, head: meta}
	stubs, err := c.targetLayout(key, 0, 0, to) // the target's homes of the version records and the head
	if err != nil {
		return report, err
	}
	peers := to.peers(stubs.window)

	// The versions some replica holds, not 0..meta.Version — a hot key's
	// long-deleted history would make each repair O(history × drives) —
	// and the head, even when only its metadata survived. An export must
	// find what every replica holds, release destroying them all: when
	// one does not answer the listing, it probes every version instead.
	tolerate := len(placement) - 1
	if to != nil {
		tolerate = 0
	}
	versions, err := c.drives.Versions(ctx, key, meta.Version, placement, tolerate)
	if err != nil && to != nil {
		versions, err = nil, nil
		for v := range meta.Version {
			versions = append(versions, v)
		}
	}
	if err != nil {
		return report, err
	}
	if len(versions) == 0 || versions[len(versions)-1] != meta.Version {
		versions = append(versions, meta.Version)
	}
	for _, v := range versions {
		dk := store.ObjectKey(key, v)
		rec, blob, held, missing, err := c.drives.ProbeVersion(ctx, to != nil, placement, key, v)
		if err != nil {
			return report, err
		} else if rec == nil {
			continue
		}
		report.Versions++
		if err := c.settle(ctx, dk, held, missing, blob, encodeVer(v), false, peers, report); err != nil {
			return report, err
		}
		// Streamed versions: the record is a chunk stub; its chunk
		// records need the same convergence, each onto its homes.
		if rec.Meta.Chunks > 0 {
			if err := c.repairStripes(ctx, key, &rec.Meta, report, to); err != nil {
				return report, err
			}
		}
	}
	// The head goes last (a key whose export stopped half way is not an
	// object on the target), from current[0]: the elected copy's drive.
	current := slices.DeleteFunc(slices.Clone(placement), func(di int) bool { return slices.Contains(stale, di) })
	if err := c.settle(ctx, store.MetaKey(key), current, stale, c.codec.EncodeMeta(meta), encodeVer(meta.Version), false, peers, report); err != nil {
		return report, err
	}
	if report.Restored > 0 {
		c.stats.Repairs.Inc()
		c.stats.RepairBytes.Add(uint64(report.RestoredBytes))
	}
	return report, nil
}

// settle is the one place that decides which copy of a judged record
// may be copied: held are the drives whose copy of dk the bound opener
// accepted (blob, the first), missing the homes holding none. A repair
// writes blob, the bytes it opened, onto missing at drive version ver;
// a relayed record (a chunk) only where held[0] fails to push it there.
// An export pushes it onto peers from held, writing the source's homes
// only for a record no drive holds (a rebuilt shard, pushed from there):
// a source copy release fails to destroy must not be one it wrote.
func (c *Controller) settle(ctx context.Context, dk []byte, held, missing []int, blob, ver []byte, relay bool, peers []string, report *RepairReport) error {
	if len(peers) > 0 && len(held) > 0 {
		return c.push(ctx, dk, held, peers)
	}
	for _, di := range missing {
		if !relay || c.push(ctx, dk, held[:1], []string{c.drives.Name(di)}) != nil {
			if err := c.drives.Put(ctx, di, dk, blob, ver); err != nil {
				return fmt.Errorf("core: repair %q on %s: %w", dk, c.drives.Name(di), err)
			}
		}
		report.Restored++
		report.RestoredBytes += int64(len(blob))
	}
	return c.push(ctx, dk, missing, peers)
}

// push copies record dk drive to drive onto every named peer, each from
// the first of srcs — drives holding a copy repair opened or wrote —
// whose push succeeds.
func (c *Controller) push(ctx context.Context, dk []byte, srcs []int, peers []string) error {
	for _, peer := range peers {
		err := errors.New("no opened copy")
		for _, di := range srcs {
			if err = c.drives.Push(ctx, di, dk, peer); err == nil {
				break
			}
		}
		if err != nil {
			return fmt.Errorf("core: p2p copy %q to %s: %w", dk, peer, err)
		}
	}
	return nil
}

// loadMetaNewest reads every replica's head record at once and elects
// the newest copy that names key (records.Drives.ReadHeads), updating
// the cache. The
// stale drives are those whose copy the election does not report at the
// elected version — absent, unreadable, older, or another object's,
// whatever version that object is at — which repair rewrites. Repair
// must converge to the newest surviving copy: trusting the cache or
// whichever replica answers first could elect a degraded replica's stale
// metadata and roll healthy replicas back. An export (to) fails on a copy
// a drive could not read: release destroys the source's copies.
func (c *Controller) loadMetaNewest(ctx context.Context, key string, placement []int, to *MigrationTarget) (*store.Meta, []int, error) {
	newest, current, err := c.drives.ReadHeads(ctx, key, placement, to != nil)
	if err != nil {
		return nil, nil, err
	}
	c.metaCache.Put(key, newest)
	var stale []int
	for i, di := range placement {
		if current&(1<<uint(i)) == 0 {
			stale = append(stale, di)
		}
	}
	return newest, stale, nil
}

// repairStripes converges one streamed version's chunk records onto
// their homes under today's dead mask, or pushes them to to's homes
// (repairChunk). Survival first: a record healthy anywhere reaches the
// homes missing it by drive-to-drive P2P copy — the controller never
// carries or re-seals the bytes — and the decoder runs only for shards
// with no surviving copy, rebuilding them from any k healthy shards of
// the stripe. Healthy at-home records are never rewritten or moved.
func (c *Controller) repairStripes(ctx context.Context, key string, m *store.Meta, report *RepairReport, to *MigrationTarget) error {
	l, err := c.layoutOf(key, m.ECK, m.ECM)
	if err != nil {
		return err
	}
	tl, err := c.targetLayout(key, m.ECK, m.ECM, to)
	if err != nil {
		return err
	}
	set := m.ChunkSet()
	for t := int64(0); t*int64(l.k) < m.Chunks; t++ {
		shards := l.shards(t, m.Chunks)
		kt := len(shards) - l.m
		recs := make([]*store.Record, l.k+l.m) // by slot: every surviving shard, opened
		var lost []records.Shard
		for _, sh := range shards {
			rec, err := c.repairChunk(ctx, l, key, set, sh.Idx, to, tl, report)
			if err != nil {
				return err
			}
			if recs[sh.Slot] = rec; rec == nil {
				lost = append(lost, sh)
			}
		}
		// Decode path: rebuild genuinely lost shards from any k
		// survivors. Past m losses the stripe reads the same before and
		// after, so it is skipped, not the key aborted: an aborted upload
		// can strand a version with zero shards, and every later version's
		// convergence (and every new write's CAS) must not wait on it.
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
			return fmt.Errorf("core: repair %q v%d stripe %d: %w", key, m.Version, t, err)
		}
		for _, sh := range lost {
			p := bufs[sh.Slot]
			if sh.Slot < kt {
				p = p[:chunkLen(m, sh.Idx)]
			}
			blob, err := c.codec.EncodeChunkInto(nil, key, set, sh.Idx, p)
			if err != nil {
				return err
			}
			c.stats.ECShardRepairs.Inc()
			if err := c.settle(ctx, store.ChunkKey(key, set, sh.Idx), nil, l.homes(sh.Idx), blob, encodeVer(set), false, to.peers(tl.homes(sh.Idx)), report); err != nil {
				return err
			}
		}
	}
	return nil
}

// repairChunk converges chunk record idx of key's chunk set onto its
// homes, or pushes it to its homes in an export's target layout tl, and
// returns a healthy copy of it, opened, nil when none survives anywhere.
// Each home is probed once; the healthy case of a plain repair moves
// nothing.
func (c *Controller) repairChunk(ctx context.Context, l layout, key string, set, idx int64, to *MigrationTarget, tl layout, report *RepairReport) (*store.Record, error) {
	dk := store.ChunkKey(key, set, idx)
	homes := l.homes(idx)
	rec, blob, held, missing, err := c.drives.ProbeChunk(ctx, to != nil, homes, key, set, idx)
	stray := rec == nil
	if stray && err == nil {
		// No home holds it. Look where it lived before a death or after
		// a revival (its home with no drive dead), then on every
		// remaining drive — a record rebuilt onto a spare under a past
		// dead mask sits outside both windows once the drive revives.
		// Dead drives are skipped — probing them burns the repair on
		// timeouts.
		base := l
		base.window = store.Placement(key, c.drives.Len(), len(l.window))
		dead := c.deadMask.Load()
		for _, di := range unionDrives(base.homes(idx), allDrives(c.drives.Len())) {
			if dead&(1<<uint(di)) != 0 || slices.Contains(homes, di) {
				continue
			}
			if rec, blob, held, _, err = c.drives.ProbeChunk(ctx, to != nil, []int{di}, key, set, idx); rec != nil || err != nil {
				break
			}
		}
	}
	if rec == nil || err != nil {
		return nil, err
	}
	peers := to.peers(tl.homes(idx))
	if l.m > 0 && len(peers) == 0 {
		c.stats.ECShardRepairs.Add(uint64(len(missing)))
	}
	if err := c.settle(ctx, dk, held, missing, blob, encodeVer(set), true, peers, report); err != nil {
		return nil, err
	}
	if stray && len(peers) == 0 {
		// The home copies are confirmed; the stray would otherwise
		// linger as dark capacity (no delete path enumerates an
		// off-window drive).
		_ = c.drives.Delete(ctx, held[0], dk)
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
	}, nil)
}
