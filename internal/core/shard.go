// Cluster sharding support: a controller can be configured as one
// shard of a multi-controller cluster, owning a set of ranges of the
// keyspace-hash space (store.ShardHash). Ownership is enforced at the
// API entry points — operations on keys outside the owned ranges are
// answered with ErrWrongShard so a cluster router refreshes its shard
// map and redirects — and never inside the internal loaders, which a
// migration must be able to drive across ownership boundaries.
//
// Live shard handoff runs in four controller-level primitives the
// cluster coordinator composes (see internal/cluster):
//
//	FreezeRange    losing side: writes to the moving range block
//	ExportRange    losing side: P2P-push every record, opened, onto the
//	               gaining shard's layout, returning a version manifest
//	VerifyImport   gaining side: re-read and integrity-check the
//	               manifest off its own drives
//	AdoptRange /   gaining side takes the range at the new epoch;
//	ReleaseRange   losing side drops it, rotates its drives' HMAC
//	               credentials (locking out any stale owner) and
//	               destroys the migrated records
//
// Blocked writers wake from ReleaseRange into ErrWrongShard, so an
// in-flight client sees at most one retriable redirect and never a
// lost or duplicated write.
package core

import (
	"cmp"
	"context"
	"crypto/hmac"
	"crypto/sha256"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/kinetic/kclient"
	"repro/internal/kinetic/wire"
	"repro/internal/store"
)

// ErrWrongShard rejects an operation on a key this controller does not
// own under the current shard map epoch. It is retriable: the client
// refreshes its shard map and redirects to the owning controller.
var ErrWrongShard = errors.New("pesos: key not owned by this shard")

// HashRange is a half-open range [Start, End) of the keyspace-hash
// space [0, store.ShardSpace).
type HashRange struct {
	Start uint32 `json:"start"`
	End   uint32 `json:"end"`
}

// Contains reports whether the range covers hash point h.
func (r HashRange) Contains(h uint32) bool { return h >= r.Start && h < r.End }

// Empty reports whether the range covers nothing.
func (r HashRange) Empty() bool { return r.Start >= r.End }

// String implements fmt.Stringer.
func (r HashRange) String() string { return fmt.Sprintf("[%d,%d)", r.Start, r.End) }

// RangesContain reports whether any range covers hash point h.
func RangesContain(ranges []HashRange, h uint32) bool {
	for _, r := range ranges {
		if r.Contains(h) {
			return true
		}
	}
	return false
}

// NormalizeRanges sorts ranges, drops empty ones and merges adjacent
// or overlapping ones.
func NormalizeRanges(ranges []HashRange) []HashRange {
	out := make([]HashRange, 0, len(ranges))
	for _, r := range ranges {
		if !r.Empty() {
			out = append(out, r)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	merged := out[:0]
	for _, r := range out {
		if n := len(merged); n > 0 && r.Start <= merged[n-1].End {
			if r.End > merged[n-1].End {
				merged[n-1].End = r.End
			}
			continue
		}
		merged = append(merged, r)
	}
	return merged
}

// SubtractRanges removes r from ranges, splitting any range it cuts.
func SubtractRanges(ranges []HashRange, r HashRange) []HashRange {
	if r.Empty() {
		return NormalizeRanges(ranges)
	}
	var out []HashRange
	for _, cur := range NormalizeRanges(ranges) {
		if r.End <= cur.Start || r.Start >= cur.End {
			out = append(out, cur)
			continue
		}
		if cur.Start < r.Start {
			out = append(out, HashRange{Start: cur.Start, End: r.Start})
		}
		if r.End < cur.End {
			out = append(out, HashRange{Start: r.End, End: cur.End})
		}
	}
	return out
}

// rangesCover reports whether the (normalized) ranges fully cover r.
func rangesCover(ranges []HashRange, r HashRange) bool {
	if r.Empty() {
		return true
	}
	at := r.Start
	for _, cur := range NormalizeRanges(ranges) {
		if cur.Start > at {
			return false
		}
		if cur.End > at {
			at = cur.End
			if at >= r.End {
				return true
			}
		}
	}
	return false
}

// ShardInfo is one controller's slice of the cluster keyspace.
type ShardInfo struct {
	// ID is this controller's shard id in the cluster map.
	ID int `json:"id"`
	// Epoch is the shard map epoch the controller last adopted. Stale
	// routers are fenced by it: every redirect carries the epoch, and
	// the map a router refreshes to must be newer.
	Epoch uint64 `json:"epoch"`
	// Ranges are the owned hash ranges.
	Ranges []HashRange `json:"ranges"`
}

// shardView is one immutable snapshot of the sharding state. Read
// paths load it atomically and never touch the drain lock, so a
// pending freeze (waiting out in-flight writes) cannot stall reads —
// the "reads are never blocked by a freeze" contract.
type shardView struct {
	info   ShardInfo
	frozen []HashRange
	mapDoc []byte // signed cluster map document (opaque to core)
	// standby true means this controller holds the shard's drives and
	// configuration but is NOT the active owner: every client
	// operation answers ErrWrongShard (routers redirect to the active)
	// until Activate promotes it after a lease win.
	standby bool
}

// shardState is the controller's live sharding state. The RWMutex is
// the write drain barrier: every mutating operation holds the read
// side across its drive commit, so FreezeRange (which takes the write
// side) returns only once in-flight writes have drained. State
// changes happen under the write side and publish a fresh view.
type shardState struct {
	mu   sync.RWMutex
	view atomic.Pointer[shardView]
	// gate is closed when the frozen set empties; writers blocked on a
	// frozen range wait on it. Mutated under mu.
	gate chan struct{}
}

func newShardState(info ShardInfo, mapDoc []byte, standby bool) *shardState {
	s := &shardState{}
	s.view.Store(&shardView{info: info, mapDoc: append([]byte(nil), mapDoc...), standby: standby})
	return s
}

// update publishes a new view derived from the current one (deep
// copies, so loaded views stay immutable). Caller holds s.mu.
func (s *shardState) update(f func(v *shardView)) {
	cur := s.view.Load()
	next := &shardView{
		info: ShardInfo{
			ID:     cur.info.ID,
			Epoch:  cur.info.Epoch,
			Ranges: append([]HashRange(nil), cur.info.Ranges...),
		},
		frozen:  append([]HashRange(nil), cur.frozen...),
		mapDoc:  cur.mapDoc,
		standby: cur.standby,
	}
	f(next)
	s.view.Store(next)
}

// wrongShard builds the redirect error and counts it.
func (c *Controller) wrongShard(key string) error {
	c.stats.WrongShard.Inc()
	return fmt.Errorf("%w: %q", ErrWrongShard, key)
}

// owns reports ownership of key. Unsharded controllers own everything.
func (c *Controller) owns(key string) bool {
	s := c.shard
	if s == nil {
		return true
	}
	v := s.view.Load()
	return !v.standby && RangesContain(v.info.Ranges, store.ShardHash(key))
}

// checkOwned is the read-path ownership gate. Reads are never blocked
// by a freeze — not even by one waiting out the write drain — because
// they load the shard view atomically instead of taking the drain
// lock; the data stays readable on the losing side until ReleaseRange.
func (c *Controller) checkOwned(key string) error {
	if !c.owns(key) {
		return c.wrongShard(key)
	}
	return nil
}

// beginWrite is the write-path gate: it verifies ownership of every
// key and blocks while any of them lies in a frozen (migrating) range.
// On success the returned release function MUST be called after the
// drive commit — the caller holds the shard read lock in between,
// which is what lets FreezeRange drain in-flight writes. Lock order is
// strict: the keys' commits locks first, then the shard lock.
func (c *Controller) beginWrite(ctx context.Context, keys ...string) (release func(), err error) {
	release, owned, err := c.beginWriteFiltered(ctx, keys)
	if err != nil {
		return nil, err
	}
	for i, ok := range owned {
		if !ok {
			release()
			return nil, c.wrongShard(keys[i])
		}
	}
	return release, nil
}

// beginWriteFiltered is beginWrite for multi-key requests with per-op
// results: unowned keys are reported in the mask instead of failing
// the whole request, and the freeze wait applies only to owned keys.
func (c *Controller) beginWriteFiltered(ctx context.Context, keys []string) (release func(), owned []bool, err error) {
	s := c.shard
	owned = make([]bool, len(keys))
	if s == nil {
		for i := range owned {
			owned[i] = true
		}
		return func() {}, owned, nil
	}
	for {
		s.mu.RLock()
		v := s.view.Load()
		blocked := false
		for i, k := range keys {
			h := store.ShardHash(k)
			owned[i] = !v.standby && RangesContain(v.info.Ranges, h)
			if owned[i] && RangesContain(v.frozen, h) {
				blocked = true
			}
		}
		if !blocked {
			return s.mu.RUnlock, owned, nil
		}
		gate := s.gate
		s.mu.RUnlock()
		select {
		case <-gate:
		case <-ctx.Done():
			return nil, nil, ctx.Err()
		}
	}
}

// ShardStatus is the sharding section of /v2/status.
type ShardStatus struct {
	ID      int         `json:"id"`
	Epoch   uint64      `json:"epoch"`
	Ranges  []HashRange `json:"ranges"`
	Frozen  []HashRange `json:"frozen,omitempty"`
	Standby bool        `json:"standby,omitempty"`
}

// ShardStatus reports the controller's current shard state, nil when
// unsharded.
func (c *Controller) ShardStatus() *ShardStatus {
	s := c.shard
	if s == nil {
		return nil
	}
	v := s.view.Load()
	return &ShardStatus{
		ID:      v.info.ID,
		Epoch:   v.info.Epoch,
		Ranges:  v.info.Ranges,
		Frozen:  v.frozen,
		Standby: v.standby,
	}
}

// ClusterMapDoc returns the signed cluster map document the controller
// currently holds (nil when unsharded or never set). The document is
// opaque to core; internal/cluster defines and verifies its format.
func (c *Controller) ClusterMapDoc() []byte {
	s := c.shard
	if s == nil {
		return nil
	}
	return s.view.Load().mapDoc
}

// SetClusterMapDoc installs a new signed cluster map document for
// distribution via /v2/cluster/map. The caller (the cluster
// coordinator) has verified it.
func (c *Controller) SetClusterMapDoc(doc []byte) {
	s := c.shard
	if s == nil {
		return
	}
	copied := append([]byte(nil), doc...)
	s.mu.Lock()
	s.update(func(v *shardView) { v.mapDoc = copied })
	s.mu.Unlock()
}

// FreezeRange blocks writes to r (which must lie inside the owned
// ranges) until the range is released or unfrozen. Acquiring the shard
// write lock drains every in-flight write first, so when FreezeRange
// returns, the records under r are immutable and safe to copy.
func (c *Controller) FreezeRange(r HashRange) error {
	s := c.shard
	if s == nil {
		return errors.New("core: controller is not sharded")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	v := s.view.Load()
	if !rangesCover(v.info.Ranges, r) {
		return fmt.Errorf("core: freeze %v outside owned ranges %v", r, v.info.Ranges)
	}
	s.update(func(v *shardView) { v.frozen = append(v.frozen, r) })
	if s.gate == nil {
		s.gate = make(chan struct{})
	}
	return nil
}

// UnfreezeRange aborts a freeze without changing ownership (handoff
// rollback). Blocked writers resume normally.
func (c *Controller) UnfreezeRange(r HashRange) {
	s := c.shard
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.dropFrozenLocked(r)
}

func (s *shardState) dropFrozenLocked(r HashRange) {
	s.update(func(v *shardView) {
		kept := v.frozen[:0]
		for _, f := range v.frozen {
			if f != r {
				kept = append(kept, f)
			}
		}
		v.frozen = kept
	})
	// Wake every waiter on ANY frozen-set change: writers re-evaluate
	// against the new view, and those on a still-frozen range park on
	// a fresh gate. Waking only when the set empties would strand the
	// released range's writers behind an unrelated concurrent freeze.
	if s.gate != nil {
		close(s.gate)
		if len(s.view.Load().frozen) == 0 {
			s.gate = nil
		} else {
			s.gate = make(chan struct{})
		}
	}
}

// shardSnapshot returns an atomic view of the shard state for
// operations that must be consistent against one epoch (scans report
// the epoch of the view they were filtered under, so a router can
// reject pages torn across a concurrent handoff).
func (c *Controller) shardSnapshot() (epoch uint64, ranges []HashRange, sharded bool) {
	s := c.shard
	if s == nil {
		return 0, nil, false
	}
	v := s.view.Load()
	return v.info.Epoch, v.info.Ranges, true
}

// AdvanceEpoch raises the controller's shard map epoch without a
// range change — the cluster coordinator calls it on the controllers
// not participating in a handoff, so every shard answers scans under
// the same epoch again once the new map is published.
func (c *Controller) AdvanceEpoch(epoch uint64) {
	s := c.shard
	if s == nil {
		return
	}
	s.mu.Lock()
	if epoch > s.view.Load().info.Epoch {
		s.update(func(v *shardView) { v.info.Epoch = epoch })
	}
	s.mu.Unlock()
}

// AdoptRange extends the owned ranges by r at the given (newer) shard
// map epoch — the gaining side of a handoff, called after VerifyImport
// succeeded.
func (c *Controller) AdoptRange(epoch uint64, r HashRange) error {
	s := c.shard
	if s == nil {
		return errors.New("core: controller is not sharded")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if epoch <= s.view.Load().info.Epoch {
		return fmt.Errorf("core: adopt at epoch %d, already at %d", epoch, s.view.Load().info.Epoch)
	}
	s.update(func(v *shardView) {
		v.info.Epoch = epoch
		v.info.Ranges = NormalizeRanges(append(v.info.Ranges, r))
	})
	return nil
}

// MigrationTarget describes the gaining shard's drive layout, which
// determines the placement of migrated records.
type MigrationTarget struct {
	// Drives are the gaining controller's drive names, in its
	// configuration order (placement is positional).
	Drives []string
	// Replicas is the gaining controller's copy count per object.
	Replicas int
}

// ErrTargetTooNarrow refuses a handoff whose gaining shard has fewer
// drives than a moving object's layout spans.
var ErrTargetTooNarrow = errors.New("core: migration target has too few drives")

// peers names t's drives at homes, indices into t.Drives (a repair's nil
// t has the zero targetLayout, which homes nothing).
func (t *MigrationTarget) peers(homes []int) []string {
	out := make([]string, len(homes))
	for i, ti := range homes {
		out[i] = t.Drives[ti]
	}
	return out
}

// unread fails an export on a copy of dk it could not read (err, not
// not-found): release destroys the source's copies. A repair (nil t) skips it.
func (t *MigrationTarget) unread(dk []byte, err error) error {
	if t == nil || err == nil || errors.Is(err, kclient.ErrNotFound) {
		return nil
	}
	return fmt.Errorf("core: export cannot read every copy of %q: %w", dk, err)
}

// ManifestEntry records one migrated object's head version.
type ManifestEntry struct {
	Key     string `json:"key"`
	Version int64  `json:"version"`
}

// Manifest is the record of one range migration: what moved and at
// which versions, for the gaining side to verify and the losing side
// to destroy.
type Manifest struct {
	Range    HashRange       `json:"range"`
	Entries  []ManifestEntry `json:"entries"`
	Policies []string        `json:"policies"`
}

// ExportRange moves every object under the (frozen) range r, and the
// policies their heads name, to the target shard's drives by Kinetic P2P
// copy: each key is a repair with the target as a second destination
// (repairObject), every record pushed from a copy the bound opener
// accepted to its homes in the target's layout. Nothing moves when some
// head's layout is wider than the target (ErrTargetTooNarrow). Returns
// the manifest of migrated keys and head versions.
func (c *Controller) ExportRange(ctx context.Context, r HashRange, target MigrationTarget) (*Manifest, error) {
	if target.Replicas <= 0 {
		target.Replicas = 1
	}
	var keys []string
	var slots [2]store.Meta
	var narrow error
	err := c.walkKeys(ctx, 0, true, func(key string, copies [][]byte) bool {
		// Each head's layout must fit the target before anything moves;
		// a key whose walked copies elect none is left to its repair.
		if r.Contains(store.ShardHash(key)) {
			keys = append(keys, key)
			if head, _, err := c.newestMeta(key, copies, &slots); err == nil {
				_, narrow = c.targetLayout(key, head.ECK, head.ECM, &target)
			}
		}
		return narrow == nil
	})
	if err = cmp.Or(err, narrow); err != nil {
		return nil, fmt.Errorf("core: export: %w", err)
	}
	m := &Manifest{Range: r}
	policies := make(map[string]bool)
	var mu sync.Mutex
	err = forEach(keys, func(key string) error {
		rep, err := c.repairObject(ctx, key, nil, &target)
		if errors.Is(err, ErrNotFound) {
			return nil // vanished between enumeration and export
		}
		if err != nil {
			return fmt.Errorf("core: export %q: %w", key, err)
		}
		mu.Lock()
		m.Entries = append(m.Entries, ManifestEntry{Key: key, Version: rep.head.Version})
		if rep.head.PolicyID != "" {
			policies[rep.head.PolicyID] = true
		}
		mu.Unlock()
		return nil
	})
	if err != nil {
		return nil, err
	}
	for id := range policies {
		m.Policies = append(m.Policies, id)
		_, _, held, _, _ := probe(ctx, c, nil, c.placement(id), store.PolicyKey(id), c.openPolicy(id))
		if err := c.push(ctx, store.PolicyKey(id), held, target.peers(store.Placement(id, len(target.Drives), target.Replicas))); err != nil {
			return nil, fmt.Errorf("core: export policy %q: %w", id, err)
		}
	}
	sort.Slice(m.Entries, func(i, j int) bool { return m.Entries[i].Key < m.Entries[j].Key })
	sort.Strings(m.Policies)
	return m, nil
}

// walkKeys visits, in ascending order and until visit returns false,
// every object key some drive holds a metadata record of — with, when
// values are asked for, every drive's copy of it — asking each drive for
// page keys a round (0: the drive's cap). Every drive is consulted, so
// up to Replicas-1 degraded replicas cannot hide a key; one more and the
// enumeration fails.
func (c *Controller) walkKeys(ctx context.Context, page int, values bool, visit func(key string, copies [][]byte) bool) error {
	start, end := store.MetaKeyRange("")
	w := c.walk(ctx, &rangeWalk{drives: allDrives(len(c.drives)), cursor: start, inclusive: true, end: end,
		page: page, values: values, tolerate: c.cfg.Replicas - 1})
	defer w.release()
	for {
		dk, _, copies, ok := w.next()
		if !ok {
			return w.err
		}
		if !visit(string(dk[2:]), copies) { // strip the metadata namespace prefix
			return nil
		}
	}
}

// VerifyImport is the gaining side's acceptance check: every manifest
// entry must be readable off this controller's own drives at exactly
// the manifested version, with payload integrity intact, and every
// referenced policy must be present. Called before AdoptRange, so it
// deliberately bypasses the ownership gate (internal loaders never
// check ownership).
func (c *Controller) VerifyImport(ctx context.Context, m *Manifest) error {
	err := forEach(m.Entries, func(e ManifestEntry) error {
		meta, err := c.fetchMeta(ctx, e.Key)
		if err != nil {
			return fmt.Errorf("core: import verify %q: %w", e.Key, err)
		}
		if meta.Version != e.Version {
			return fmt.Errorf("core: import verify %q: version %d, manifest says %d",
				e.Key, meta.Version, e.Version)
		}
		rec, err := c.fetchRecord(ctx, e.Key, e.Version)
		if err != nil {
			return fmt.Errorf("core: import verify %q v%d: %w", e.Key, e.Version, err)
		}
		if err := c.verifyContent(ctx, rec); err != nil {
			return fmt.Errorf("core: import verify %q v%d content: %w", e.Key, e.Version, err)
		}
		return nil
	})
	if err != nil {
		return err
	}
	for _, id := range m.Policies {
		if _, err := c.fetchPolicy(ctx, id); err != nil {
			return fmt.Errorf("core: import verify policy %q: %w", id, err)
		}
	}
	return nil
}

// ReleaseRange completes the losing side of a handoff: ownership of r
// is dropped at the new epoch (waking blocked writers into
// ErrWrongShard redirects), the drives' admin HMAC credentials are
// rotated so any stale owner process is locked out at the drive layer,
// and the migrated records are destroyed and purged from the caches.
// The new shard map must already be published — redirected clients
// refresh it immediately.
//
// The call is retriable: re-invoking it at the same epoch (after a
// transient rotation or destruction failure) re-runs the idempotent
// fencing and destruction steps without touching ownership again.
func (c *Controller) ReleaseRange(ctx context.Context, epoch uint64, r HashRange, m *Manifest) error {
	s := c.shard
	if s == nil {
		return errors.New("core: controller is not sharded")
	}
	s.mu.Lock()
	cur := s.view.Load()
	switch {
	case epoch < cur.info.Epoch:
		s.mu.Unlock()
		return fmt.Errorf("core: release at epoch %d, already at %d", epoch, cur.info.Epoch)
	case epoch == cur.info.Epoch:
		// Retry of a partially-failed release: ownership must already
		// be gone, only the fencing/destruction below is re-run.
		if slices.ContainsFunc(cur.info.Ranges, func(o HashRange) bool { return r.Start < o.End && o.Start < r.End }) {
			s.mu.Unlock()
			return fmt.Errorf("core: release retry at epoch %d but %v still owned", epoch, r)
		}
		s.mu.Unlock()
	default:
		s.update(func(v *shardView) {
			v.info.Epoch = epoch
			v.info.Ranges = SubtractRanges(v.info.Ranges, r)
		})
		s.dropFrozenLocked(r)
		s.mu.Unlock()
	}

	// Fencing: rotate before destroying records, so a stale co-owner
	// cannot resurrect them afterwards. Both steps are idempotent —
	// rotation skips drives already on the epoch's account, and the
	// destruction force-deletes.
	if err := c.RotateDriveCredentials(ctx, epoch); err != nil {
		return err
	}
	return c.destroyMigrated(ctx, m)
}

// destroyMigrated force-deletes every migrated record from this
// controller's drives and purges the corresponding cache entries.
// Reads of these keys already redirect (ownership is gone), so the
// destruction only reclaims space and removes stale state.
func (c *Controller) destroyMigrated(ctx context.Context, m *Manifest) error {
	var firstErr error
	for _, e := range m.Entries {
		err := c.fanout(c.objectDrives(e.Key), func(di int) error {
			return c.deleteReplica(ctx, di, e.Key, nil)
		})
		if err != nil && firstErr == nil {
			firstErr = fmt.Errorf("core: destroy migrated %q: %w", e.Key, err)
		}
		c.metaCache.Remove(e.Key)
		c.objectCache.Remove(e.Key)
	}
	return firstErr
}

// adminKeyForEpoch derives the per-drive admin HMAC secret for a shard
// map epoch. Epoch 0 is the bootstrap key (adminKeyFor), so unsharded
// deployments and epoch-0 clusters share the derivation.
func (c *Controller) adminKeyForEpoch(driveName string, epoch uint64) []byte {
	if epoch == 0 {
		return c.adminKeyFor(driveName)
	}
	mac := hmac.New(sha256.New, c.secrets.AdminSeed[:])
	fmt.Fprintf(mac, "drive-admin:%s|epoch:%d", driveName, epoch)
	return mac.Sum(nil)
}

// adminIdentityForEpoch names the per-epoch admin account.
func adminIdentityForEpoch(epoch uint64) string {
	if epoch == 0 {
		return AdminIdentity
	}
	return fmt.Sprintf("%s-e%d", AdminIdentity, epoch)
}

// AdoptDriveCredentials switches the drive connection pools to the
// epoch's derived admin accounts WITHOUT touching the drives — the
// observer-side mirror of RotateDriveCredentials. A standby calls it
// when the cluster map shows a newer CredEpoch (the active rotated),
// so its pools keep authenticating; no drive state changes because
// the accounts were already installed by the rotating controller.
func (c *Controller) AdoptDriveCredentials(epoch uint64) {
	id := adminIdentityForEpoch(epoch)
	for i, p := range c.drives {
		if p.credentials().Identity == id {
			continue
		}
		p.setCredentials(kclient.Credentials{
			Identity: id,
			Key:      c.adminKeyForEpoch(c.cfg.Drives[i].Name, epoch),
		})
	}
}

// Activate promotes a standby to the shard's active controller at the
// given (newer) epoch. The caller must have won the shard's lease and
// completed the fencing credential rotation first, and must have
// stopped any cache-warming loop: activation drops the version-
// bearing caches (meta and object), because entries warmed while the
// old active was still committing may be stale — serving them would
// lose acknowledged writes from a reader's point of view. Clearing
// also detaches the fetches a warming pass still has in flight, so
// none of them lands in the emptied cache afterwards. The
// content-addressed policy caches survive, which is most of what
// warming buys.
func (c *Controller) Activate(epoch uint64) error {
	s := c.shard
	if s == nil {
		return errors.New("core: controller is not sharded")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	v := s.view.Load()
	if !v.standby {
		return errors.New("core: controller is not a standby")
	}
	if epoch < v.info.Epoch {
		return fmt.Errorf("core: activate at epoch %d, already at %d", epoch, v.info.Epoch)
	}
	c.metaCache.Clear()
	c.objectCache.Clear()
	s.update(func(v *shardView) {
		v.standby = false
		v.info.Epoch = epoch
	})
	// The promoted owner inherits maintenance duty: start the failure
	// detector and anti-entropy loops the standby held back.
	c.startMaintenance()
	return nil
}

// WarmRanges pre-faults the standby's caches: it enumerates the keys
// stored under the owned ranges with every drive's copy of their heads,
// and caches the head the election picks (where no entry or write beat
// it: cache.Load) and the policy it names, up to limit keys per call.
// No head is read twice, and a key none of whose copies opens is
// skipped. Ownership gates don't apply — internal loaders never check
// them — so this works in standby mode. Returns the number of keys
// warmed.
func (c *Controller) WarmRanges(ctx context.Context, limit int) (int, error) {
	s := c.shard
	if s == nil {
		return 0, errors.New("core: controller is not sharded")
	}
	if limit <= 0 {
		limit = 1024
	}
	// One pass serves every owned range: keys are filtered by hash as
	// they stream by, and the walk stops at the limit — a standby tick
	// never drains the keyspace.
	ranges := s.view.Load().info.Ranges
	warmed := 0
	var slots [2]store.Meta
	err := c.walkKeys(ctx, limit, true, func(key string, copies [][]byte) bool {
		if !RangesContain(ranges, store.ShardHash(key)) {
			return true
		}
		elected, _, err := c.newestMeta(key, copies, &slots)
		if err != nil {
			return true
		}
		head := *elected // best-effort: only a cancelled ctx fails the load
		_, _ = cached(ctx, c, c.metaCache, key, func(context.Context) (*store.Meta, error) { return &head, nil })
		if head.PolicyID != "" {
			_, _ = c.loadPolicy(ctx, head.PolicyID)
		}
		warmed++
		return warmed < limit && ctx.Err() == nil
	})
	if err == nil {
		err = ctx.Err()
	}
	return warmed, err
}

// RotateDriveCredentials installs fresh epoch-derived admin accounts
// on every drive and switches the connection pools to them, locking
// out any holder of the previous epoch's credentials. The rotation is
// two-phase per drive — install both accounts, switch the pool, drop
// the old account once every call signed under it has been answered —
// so concurrent requests never race an HMAC-key change.
func (c *Controller) RotateDriveCredentials(ctx context.Context, epoch uint64) error {
	nextID := adminIdentityForEpoch(epoch)
	for i, p := range c.drives {
		cur := p.credentials()
		if cur.Identity == nextID {
			continue
		}
		next := kclient.Credentials{Identity: nextID, Key: c.adminKeyForEpoch(c.cfg.Drives[i].Name, epoch)}
		both := []wire.ACL{
			{Identity: cur.Identity, Key: cur.Key, Perms: wire.PermAll},
			{Identity: next.Identity, Key: next.Key, Perms: wire.PermAll},
		}
		if err := p.pick().SetSecurity(ctx, both, nil); err != nil {
			return fmt.Errorf("core: rotate credentials on %s (install): %w", p.name, err)
		}
		for _, r := range p.setCredentials(next) {
			select {
			case <-r:
			case <-ctx.Done():
				return fmt.Errorf("core: rotate credentials on %s (retire old): %w", p.name, ctx.Err())
			}
		}
		drop := []wire.ACL{{Identity: next.Identity, Key: next.Key, Perms: wire.PermAll}}
		if err := p.pick().SetSecurity(ctx, drop, nil); err != nil {
			return fmt.Errorf("core: rotate credentials on %s (drop old): %w", p.name, err)
		}
	}
	return nil
}
