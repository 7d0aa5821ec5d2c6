// Per-range load accounting: every data operation is charged to a
// fixed-width bucket of the keyspace-hash space, giving operators and
// the cluster autobalancer a histogram of where the shard's load
// lands. Buckets are coarse (1/64 of the hash space) so the whole
// histogram is a few hundred bytes of atomics on the hot path — two
// atomic adds per operation, no locks.
package core

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/store"
)

// LoadBuckets is the number of fixed-width load-accounting buckets
// over the hash space [0, store.ShardSpace).
const LoadBuckets = 64

// loadBucketShift converts a shard hash to its bucket index:
// ShardSpace (65536) / LoadBuckets (64) = 1024 = 2^10.
const loadBucketShift = 10

// bucketLoad is one bucket's cumulative counters.
type bucketLoad struct {
	reads, writes         atomic.Uint64
	readBytes, writeBytes atomic.Uint64
}

// loadState is the controller's load histogram plus the lazily
// maintained rate window /v2/status reports ops/s figures from.
type loadState struct {
	buckets [LoadBuckets]bucketLoad

	mu       sync.Mutex
	lastAt   time.Time
	lastOps  uint64
	lastRead uint64 // bytes
	lastWrit uint64 // bytes
	opsRate  float64
	readBps  float64
	writeBps float64
}

// noteRead charges one read of n payload bytes against key's bucket.
func (c *Controller) noteRead(key string, n int) {
	b := &c.load.buckets[store.ShardHash(key)>>loadBucketShift]
	b.reads.Add(1)
	b.readBytes.Add(uint64(n))
}

// noteWrite charges one write of n payload bytes against key's bucket.
func (c *Controller) noteWrite(key string, n int) {
	b := &c.load.buckets[store.ShardHash(key)>>loadBucketShift]
	b.writes.Add(1)
	b.writeBytes.Add(uint64(n))
}

// BucketLoad is one load bucket's cumulative counters.
type BucketLoad struct {
	Reads      uint64 `json:"reads"`
	Writes     uint64 `json:"writes"`
	ReadBytes  uint64 `json:"read_bytes"`
	WriteBytes uint64 `json:"write_bytes"`
}

// Ops returns the bucket's total operation count.
func (b BucketLoad) Ops() uint64 { return b.Reads + b.Writes }

// RangeLoad aggregates the buckets of one owned hash range.
type RangeLoad struct {
	Range HashRange `json:"range"`
	BucketLoad
}

// LoadStatus is the load section of /v2/status: the raw bucket
// histogram (the autobalancer's input), the same counters aggregated
// per owned range (the operator view), and smoothed rates over the
// recent polling window.
type LoadStatus struct {
	// BucketWidth is the hash-space width of one histogram bucket.
	BucketWidth uint32 `json:"bucket_width"`
	// Buckets is the cumulative histogram, index i covering
	// [i*BucketWidth, (i+1)*BucketWidth).
	Buckets []BucketLoad `json:"buckets"`
	// Ranges aggregates Buckets over the shard's owned ranges (the
	// whole space when unsharded).
	Ranges []RangeLoad `json:"ranges"`
	// OpsPerSec / ReadBytesPerSec / WriteBytesPerSec are rates over
	// the window since the previous status poll (≥ 1s apart).
	OpsPerSec        float64 `json:"ops_per_sec"`
	ReadBytesPerSec  float64 `json:"read_bytes_per_sec"`
	WriteBytesPerSec float64 `json:"write_bytes_per_sec"`
}

// loadBuckets snapshots the histogram.
func (c *Controller) loadBuckets() []BucketLoad {
	out := make([]BucketLoad, LoadBuckets)
	for i := range c.load.buckets {
		b := &c.load.buckets[i]
		out[i] = BucketLoad{
			Reads:      b.reads.Load(),
			Writes:     b.writes.Load(),
			ReadBytes:  b.readBytes.Load(),
			WriteBytes: b.writeBytes.Load(),
		}
	}
	return out
}

// LoadStatus reports the controller's load histogram. Rates refresh at
// most once per second: concurrent pollers share one window instead of
// tearing each other's baselines.
func (c *Controller) LoadStatus() *LoadStatus {
	buckets := c.loadBuckets()
	ranges := c.ownedRangesForLoad()
	st := &LoadStatus{
		BucketWidth: store.ShardSpace / LoadBuckets,
		Buckets:     buckets,
		Ranges:      aggregateLoad(buckets, ranges),
	}

	var ops, rb, wb uint64
	for _, b := range buckets {
		ops += b.Ops()
		rb += b.ReadBytes
		wb += b.WriteBytes
	}
	l := &c.load
	l.mu.Lock()
	now := c.clock()
	if l.lastAt.IsZero() {
		l.lastAt, l.lastOps, l.lastRead, l.lastWrit = now, ops, rb, wb
	} else if dt := now.Sub(l.lastAt).Seconds(); dt >= 1 {
		l.opsRate = float64(ops-l.lastOps) / dt
		l.readBps = float64(rb-l.lastRead) / dt
		l.writeBps = float64(wb-l.lastWrit) / dt
		l.lastAt, l.lastOps, l.lastRead, l.lastWrit = now, ops, rb, wb
	}
	st.OpsPerSec, st.ReadBytesPerSec, st.WriteBytesPerSec = l.opsRate, l.readBps, l.writeBps
	l.mu.Unlock()
	return st
}

// ownedRangesForLoad returns the ranges to aggregate over: the owned
// shard ranges, or the whole space when unsharded.
func (c *Controller) ownedRangesForLoad() []HashRange {
	if _, ranges, sharded := c.shardSnapshot(); sharded {
		return ranges
	}
	return []HashRange{{Start: 0, End: store.ShardSpace}}
}

// aggregateLoad sums the histogram buckets intersecting each range.
// Buckets straddling a range boundary are charged to every range they
// touch — the histogram is coarser than range boundaries, and for
// balancing purposes over-attribution beats dropping load on the
// floor.
func aggregateLoad(buckets []BucketLoad, ranges []HashRange) []RangeLoad {
	width := uint32(store.ShardSpace / LoadBuckets)
	out := make([]RangeLoad, len(ranges))
	for i, r := range ranges {
		out[i].Range = r
		for bi, b := range buckets {
			bStart := uint32(bi) * width
			if bStart < r.End && r.Start < bStart+width {
				out[i].Reads += b.Reads
				out[i].Writes += b.Writes
				out[i].ReadBytes += b.ReadBytes
				out[i].WriteBytes += b.WriteBytes
			}
		}
	}
	return out
}
