// Storage classes as layouts. A streamed object is a sequence of chunk
// records; its storage class only decides which drives hold which
// record, and one engine (stream.go, repair.go) runs every class
// through the layout type below.
//
//	class        k  m  window              homes(idx)
//	replicated   1  0  placement(key)      every window drive
//	ec:k+m       k  m  ecGroup(key, k+m)   window[(slot+stripe) % len(window)]
//
// A stripe is k consecutive data chunks plus m Reed-Solomon parity
// shards over them. Replication is the degenerate stripe: one chunk,
// no parity, redundancy from the chunk's several homes instead. The
// erasure-coded class spends (k+m)/k× raw capacity instead of
// Replicas× while any m simultaneous drive losses stay survivable;
// reads fetch the data chunks in parallel and fall back to parity (any
// k of k+m shards win) only when a shard is slow or gone, so the
// decoder stays off the healthy path entirely.
//
// Parity shards are ordinary chunk records at the reserved index range
// store.ParityIndexBase+…, so they sort inside store.ChunkKeyRange —
// delete and orphan sweeps collect them with no extra bookkeeping —
// and carry the same authenticated chunk id binding (object, chunk set,
// index) as data chunks. The stripe rotation in homes spreads parity
// writes across the whole group. Only (k, m) persist in the metadata —
// the window derives from the key and the current dead mask, and the
// stub + metadata records stay fully replicated on the ordinary
// placement drives, so version visibility and CAS semantics are the
// same for every class.
package core

import (
	"cmp"
	"context"
	"fmt"

	"repro/internal/core/records"
	"repro/internal/ec"
	"repro/internal/store"
)

// layout is a storage class as the stream engine sees it.
type layout struct {
	k, m   int      // data chunks and parity shards per stripe
	window []int    // the drives the class spreads this key over, dead members substituted
	code   *ec.Code // nil when m == 0
}

// layoutOf builds key's layout for the class a version's metadata
// records (eck == 0: replicated). A parity class other than the
// configured one builds its code on the fly — objects written under an
// older (k, m) stay readable after a reconfiguration.
func (c *Controller) layoutOf(key string, eck, ecm int64) (layout, error) {
	if eck == 0 {
		return layout{k: 1, window: c.placement(key)}, nil
	}
	code := c.ecCode
	if code == nil || int64(code.DataShards()) != eck || int64(code.ParityShards()) != ecm {
		var err error
		if code, err = ec.New(int(eck), int(ecm)); err != nil {
			return layout{}, err
		}
	}
	return layout{k: int(eck), m: int(ecm), window: c.ecGroup(key, int(eck+ecm)), code: code}, nil
}

// targetLayout is layoutOf aimed at a handoff's gaining shard t, its
// window indexing t.Drives (no dead mask: the source knows none of t's).
// A nil t, a plain repair, has the zero layout, which homes nothing.
func (c *Controller) targetLayout(key string, eck, ecm int64, t *MigrationTarget) (layout, error) {
	if t == nil {
		return layout{}, nil
	}
	width := cmp.Or(int(eck+ecm), t.Replicas)
	if n := len(t.Drives); n < max(t.Replicas, width) {
		return layout{}, fmt.Errorf("%w: %q spans %d drives, the target has %d", ErrTargetTooNarrow, key, max(t.Replicas, width), n)
	}
	l, err := c.layoutOf(key, eck, ecm)
	l.window = store.Placement(key, len(t.Drives), width)
	return l, err
}

// ecShardDrive returns the group member homing shard slot s of stripe
// t (slots 0..k-1 are data, k..k+m-1 parity).
func ecShardDrive(group []int, slot int, stripe int64) int {
	g := int64(len(group))
	return group[(int64(slot)+stripe)%g]
}

// homes returns the drives that must hold chunk record idx (a data
// chunk or, at a store.ParityIndex, a parity shard).
func (l layout) homes(idx int64) []int {
	if l.m == 0 {
		return l.window
	}
	slot, stripe := idx%int64(l.k), idx/int64(l.k)
	if p := idx - store.ParityIndexBase; p >= 0 {
		slot, stripe = int64(l.k)+p%int64(l.m), p/int64(l.m)
	}
	return []int{ecShardDrive(l.window, int(slot), stripe)}
}

// shards lists the records of stripe t of an object of chunks data
// chunks: the data chunks the stripe actually has (the final stripe
// may hold fewer than k), then its m parity shards.
func (l layout) shards(t, chunks int64) []records.Shard {
	kt := int(min(int64(l.k), chunks-t*int64(l.k)))
	out := make([]records.Shard, 0, kt+l.m)
	for s := 0; s < kt; s++ {
		out = append(out, records.Shard{Slot: s, Idx: t*int64(l.k) + int64(s)})
	}
	for j := 0; j < l.m; j++ {
		out = append(out, records.Shard{Slot: l.k + j, Idx: store.ParityIndex(t, int64(l.m), int64(j))})
	}
	return out
}

// chunkLen returns the true byte length of data chunk gi: every chunk
// is full except the object's final one.
func chunkLen(m *store.Meta, gi int64) int {
	if gi == m.Chunks-1 {
		if r := m.Size - (m.Chunks-1)*streamChunkSize; r > 0 {
			return int(r)
		}
	}
	return streamChunkSize
}

// readStripe returns the data chunks of stripe t, fetched by the one
// engine with the stripe's data chunks as its k slots and its parity
// shards as the rest. Reconstruction runs only when a parity shard
// actually displaced a data chunk, so a layout without parity never
// decodes.
//
// The returned release hands the fetched shards' pooled buffers back;
// the data slices are invalid after it runs.
func (c *Controller) readStripe(ctx context.Context, l layout, meta *store.Meta, t int64) ([][]byte, func(), error) {
	shards := l.shards(t, meta.Chunks)
	kt := len(shards) - l.m
	shardLen := chunkLen(meta, t*int64(l.k)) // the stripe's first chunk sizes its shards
	key, version, set := meta.Key, meta.Version, meta.ChunkSet()
	got, err := c.drives.ReadStripe(ctx, key, set, kt, shards, l.homes, shardLen)
	if err != nil {
		return nil, nil, fmt.Errorf("core: stripe %d of %q v%d: fewer than %d of %d chunk records readable: %w",
			t, key, version, kt, kt+l.m, err)
	}
	release := func() {
		for _, ch := range got {
			ch.Release()
		}
	}

	data := make([][]byte, kt)
	decode := false
	for s := range data {
		if got[s].Rec == nil {
			decode = true
			break
		}
		data[s] = got[s].Rec.Payload
	}
	if !decode {
		return data, release, nil
	}

	buf := make([][]byte, l.k+l.m)
	for s := range got {
		if got[s].Rec != nil {
			buf[s] = padShard(got[s].Rec.Payload, shardLen)
		}
	}
	zeroTail(buf[kt:l.k], shardLen)
	if err := l.code.ReconstructData(buf); err != nil {
		release()
		return nil, nil, fmt.Errorf("core: stripe %d of %q v%d: %w", t, key, version, err)
	}
	c.stats.ECDecodes.Inc()
	for s := range data {
		data[s] = buf[s][:chunkLen(meta, t*int64(l.k)+int64(s))]
	}
	return data, release, nil
}

// zeroTail fills the data slots past a short final stripe's actual
// chunks: they were never written, the encoder modeled them as zero
// shards, so the decoder sees them as present zeros (one shared buffer:
// the decoder only reads present shards).
func zeroTail(slots [][]byte, shardLen int) {
	if len(slots) == 0 {
		return
	}
	zero := make([]byte, shardLen)
	for s := range slots {
		slots[s] = zero
	}
}

// padShard zero-pads the object's short final chunk to the stripe's
// shard length for the decoder.
func padShard(p []byte, shardLen int) []byte {
	if len(p) >= shardLen {
		return p
	}
	return append(make([]byte, 0, shardLen), p...)[:shardLen]
}
