package core

import "repro/internal/store"

// placement returns the drive indices holding key's replicas: the
// Replicas-wide window of the placement ring.
func (c *Controller) placement(key string) []int {
	return c.ecGroup(key, c.cfg.Replicas)
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
	base := store.Placement(key, len(c.drives), size)
	mask := c.deadMask.Load()
	if mask == 0 {
		return base
	}
	return substituteDead(base[0], len(c.drives), size, mask)
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

// unionDrives merges two drive index sets, preserving a's order and
// appending b's unseen members.
func unionDrives(a, b []int) []int {
	out := append([]int(nil), a...)
	for _, di := range b {
		seen := false
		for _, x := range out {
			if x == di {
				seen = true
				break
			}
		}
		if !seen {
			out = append(out, di)
		}
	}
	return out
}
