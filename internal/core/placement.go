package core

import (
	"slices"

	"repro/internal/store"
)

// placement returns the drive indices holding key's replicas: the
// Replicas-wide window of the placement ring.
func (c *Controller) placement(key string) []int {
	return c.ecGroup(key, c.cfg.Replicas)
}

// objectDrives is the drive set a destruction of key walks: its
// placement and, with erasure coding on, the EC group window holding the
// shards (deleteReplica tolerates a drive holding none of key's records).
func (c *Controller) objectDrives(key string) []int {
	if !c.cfg.EC {
		return c.placement(key)
	}
	return unionDrives(c.placement(key), c.ecGroup(key, c.cfg.ECDataShards+c.cfg.ECParityShards))
}

// ecGroup returns the size-wide placement window of key: the primary
// plus the next size-1 ring positions, with drives the failure detector
// has declared dead substituted slot-stably by the next live drives
// along the ring. With no dead drives this is exactly store.Placement
// — one atomic load of the dead mask on the hot path. Replica
// placement and an erasure-coding group are the same walk at different
// widths, so the stub records on placement(key) are a prefix of the
// group.
func (c *Controller) ecGroup(key string, size int) []int {
	base := store.Placement(key, c.drives.Len(), size)
	mask := c.deadMask.Load()
	if mask == 0 {
		return base
	}
	return substituteDead(base[0], c.drives.Len(), size, mask)
}

// substituteDead substitutes the dead members of the size-wide
// placement window starting at primary, slot by slot: a live member
// keeps its exact slot, a dead member is replaced by the next unused
// live drive beyond the window along the ring. Slot stability is what
// both consumers need — the anti-entropy sweeper re-replicates only
// the missing copy, and an erasure-coding group must never relocate a
// healthy shard just because an unrelated drive died (each slot is a
// shard home). If no live spare remains, the dead drive keeps its
// slot so the slice keeps its expected length (writes to it fail and
// surface as replication errors, exactly as before detection).
//
// For an unchanged mask the result is deterministic, so layouts are
// stable across calls with no bookkeeping; a revived drive re-derives
// the original window.
func substituteDead(primary, n, size int, mask uint64) []int {
	if size > n {
		size = n
	}
	out := make([]int, size)
	for i := range out {
		out[i] = (primary + i) % n
	}
	spare := size
	for s, di := range out {
		if mask&(1<<uint(di)) == 0 {
			continue
		}
		for ; spare < n; spare++ {
			cand := (primary + spare) % n
			if mask&(1<<uint(cand)) == 0 {
				out[s] = cand
				spare++
				break
			}
		}
	}
	return out
}

// listingCover orders an n-drive ring for a listing at r replicas: its
// first size drives are the cover — the fewest such that every r-wide
// placement window holds min(2, r) of them — and the rest follow. The
// cover is m = ⌈k·n/r⌉ drives spread evenly, drive ⌊i·n/m⌋ for i < m
// (k = min(2, r)): any k consecutive gaps between them sum to at most
// ⌈k·n/m⌉ ≤ r, so a window, which starts past some member p_i and
// reaches p_i + r, holds p_{i+1} … p_{i+k}. No fewer can do it: each
// drive lies in r of the n windows. At r ≤ 2 it is every drive.
func listingCover(n, r int) (order []int, size int) {
	r = min(r, n)
	k := min(2, r)
	size = (k*n + r - 1) / r
	order = make([]int, 0, n)
	in := make([]bool, n)
	for i := 0; i < size; i++ {
		order = append(order, i*n/size)
		in[i*n/size] = true
	}
	for di := range in {
		if !in[di] {
			order = append(order, di)
		}
	}
	return order, size
}

// listingDrives is the drive set a listing walks and how many of its
// leading drives, the cover, are asked first (0: all at once). The cover
// stands in for the whole set only while no drive is dead and every
// revival is behind a sweeper pass that started after it and completed:
// a revived drive is where a silent hole is expected, and a dead one
// has moved placement off the ring the cover was computed for. The mask
// is read first — a revival is counted before it clears its bit.
func (c *Controller) listingDrives() (drives []int, cover int) {
	if c.deadMask.Load() != 0 || c.revivals.Load() != c.sweptRevivals.Load() {
		return c.listOrder, 0
	}
	return c.listOrder, c.listCover
}

// unionDrives merges two drive index sets, preserving a's order and
// appending b's unseen members.
func unionDrives(a, b []int) []int {
	out := slices.Clone(a)
	for _, di := range b {
		if !slices.Contains(out, di) {
			out = append(out, di)
		}
	}
	return out
}
