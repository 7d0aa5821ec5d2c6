// Load-driven shard autobalancing.
//
// Every controller keeps a per-bucket load histogram (64 buckets over
// the hash space, exported through Stats and /v2/status). The
// balancer polls those histograms, diffs consecutive polls into
// per-bucket rates, and when one shard runs sufficiently hotter than
// another, plans bucket-aligned range moves executed through the
// existing six-step Handoff machinery.
//
// Stability over speed: a move is planned only when it strictly
// narrows the gap between the two shards it touches (so the plan can
// never invert an imbalance and oscillate), shards involved in a move
// sit out a cooldown before being touched again, and each cycle is
// capped at MaxMoves concurrent handoffs.
package cluster

import (
	"context"
	"fmt"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/store"
)

// balanceBucketWidth is the hash-space width of one load bucket.
const balanceBucketWidth = store.ShardSpace / core.LoadBuckets

// ShardLoad is one shard's cumulative load histogram, as polled from
// its controller.
type ShardLoad struct {
	ShardID int
	Buckets []core.BucketLoad
}

// Move is one planned range migration.
type Move struct {
	SrcID int
	DstID int
	Range core.HashRange
	// Ops is the per-interval operation rate the range carried when
	// the move was planned.
	Ops float64
}

func (mv Move) String() string {
	return fmt.Sprintf("shard %d -> %d [%d,%d) (%.0f ops)", mv.SrcID, mv.DstID, mv.Range.Start, mv.Range.End, mv.Ops)
}

// BalancerConfig tunes the autobalancer.
type BalancerConfig struct {
	// Interval is the poll-and-plan cadence (default 10s).
	Interval time.Duration
	// Threshold is the hot/cold rate ratio that triggers a move
	// (default 2.0; must be > 1).
	Threshold float64
	// MinOps is the per-interval operation floor below which a shard
	// is never considered hot (default 64) — idle clusters don't
	// shuffle ranges over noise.
	MinOps float64
	// Cooldown is how many intervals a shard sits out after being the
	// source or destination of a move (default 3).
	Cooldown int
	// MaxMoves caps the moves planned (and executed) per cycle
	// (default 1).
	MaxMoves int
}

func (c *BalancerConfig) defaults() {
	if c.Interval <= 0 {
		c.Interval = 10 * time.Second
	}
	if c.Threshold <= 1 {
		c.Threshold = 2.0
	}
	if c.MinOps <= 0 {
		c.MinOps = 64
	}
	if c.Cooldown <= 0 {
		c.Cooldown = 3
	}
	if c.MaxMoves <= 0 {
		c.MaxMoves = 1
	}
}

// planMoves is the pure planning core: given the current map,
// per-shard per-bucket operation rates (one interval's deltas), and
// the set of shards excluded by cooldown, it returns up to
// cfg.MaxMoves range migrations. Exported behavior:
//
//   - a move is only planned from the hottest eligible shard to the
//     coldest when hot > max(MinOps, Threshold×cold)
//   - every move strictly narrows the pairwise gap (|hot'−cold'| <
//     |hot−cold|), which rules out oscillation by construction
//   - moved ranges are bucket-aligned and lie inside a single owned
//     range of the source
func planMoves(m *ShardMap, rates map[int][]float64, excluded map[int]bool, cfg BalancerConfig) []Move {
	cfg.defaults()

	// Working per-shard totals, updated hypothetically as moves are
	// planned so one cycle's moves compose.
	totals := make(map[int]float64, len(m.Shards))
	buckets := make(map[int][]float64, len(m.Shards))
	for i := range m.Shards {
		id := m.Shards[i].ID
		bs := rates[id]
		if len(bs) != core.LoadBuckets {
			bs = make([]float64, core.LoadBuckets)
		}
		cp := make([]float64, core.LoadBuckets)
		copy(cp, bs)
		buckets[id] = cp
		var t float64
		for _, v := range cp {
			t += v
		}
		totals[id] = t
	}

	var moves []Move
	for len(moves) < cfg.MaxMoves {
		hotID, coldID := -1, -1
		for i := range m.Shards {
			id := m.Shards[i].ID
			if excluded[id] {
				continue
			}
			if hotID < 0 || totals[id] > totals[hotID] {
				hotID = id
			}
			if coldID < 0 || totals[id] < totals[coldID] {
				coldID = id
			}
		}
		if hotID < 0 || coldID < 0 || hotID == coldID {
			break
		}
		hot, cold := totals[hotID], totals[coldID]
		if hot < cfg.MinOps || hot <= cold*cfg.Threshold {
			break // balanced enough (hysteresis) or too idle to matter
		}
		mv, ok := pickMove(m, buckets[hotID], hotID, coldID, hot, cold)
		if !ok {
			break // no strictly-improving bucket run exists
		}
		moves = append(moves, mv)
		totals[hotID] -= mv.Ops
		totals[coldID] += mv.Ops
		zeroBuckets(buckets[hotID], mv.Range)
	}
	return moves
}

// pickMove selects a bucket-aligned subrange of the hot shard whose
// rate is as large as possible without exceeding half the hot/cold
// gap. The half-gap cap preserves the pair's ordering (the source
// stays at least as hot as the destination), so the gap shrinks
// monotonically and a move can never be profitably reversed — the
// no-thrash guarantee. A hotspot concentrated in a single bucket
// hotter than half the gap is deliberately left alone: relocating it
// would only move the hotspot, not spread it.
func pickMove(m *ShardMap, hotBuckets []float64, hotID, coldID int, hot, cold float64) (Move, bool) {
	shard := m.ShardByID(hotID)
	if shard == nil {
		return Move{}, false
	}
	limit := (hot - cold) / 2
	best := Move{}
	bestLoad := 0.0
	for _, r := range shard.Ranges {
		// Bucket-aligned interior of this owned range.
		lo := (int(r.Start) + balanceBucketWidth - 1) / balanceBucketWidth
		hi := int(r.End) / balanceBucketWidth
		// Grow a run from each aligned start, keeping the hottest run
		// still under the half-gap cap.
		for s := lo; s < hi; s++ {
			var load float64
			for e := s + 1; e <= hi; e++ {
				load += hotBuckets[e-1]
				if load > limit {
					break // moving this much would invert the pair
				}
				if load > bestLoad {
					bestLoad = load
					best = Move{
						SrcID: hotID,
						DstID: coldID,
						Range: core.HashRange{
							Start: uint32(s * balanceBucketWidth),
							End:   uint32(e * balanceBucketWidth),
						},
						Ops: load,
					}
				}
			}
		}
	}
	if bestLoad <= 0 {
		return Move{}, false
	}
	return best, true
}

// zeroBuckets clears the bucket rates covered by a planned move so
// subsequent picks in the same cycle don't double-count them.
func zeroBuckets(buckets []float64, r core.HashRange) {
	for b := int(r.Start) / balanceBucketWidth; b < int(r.End)/balanceBucketWidth && b < len(buckets); b++ {
		buckets[b] = 0
	}
}

// Balancer is the autobalancing daemon: poll load, plan, execute.
type Balancer struct {
	cfg BalancerConfig
	// Poll returns the current verified map and every shard's
	// cumulative load histogram.
	Poll func(ctx context.Context) (*ShardMap, []ShardLoad, error)
	// Execute performs one planned move (testbed: MultiCluster.Handoff;
	// daemons: the operator handoff path).
	Execute func(ctx context.Context, mv Move) error
	// Logf receives progress lines (nil discards them).
	Logf func(format string, args ...any)

	last     map[int][]core.BucketLoad // previous cumulative poll
	cooldown map[int]int               // shard id -> intervals remaining
	moved    uint64
}

// NewBalancer builds a balancing daemon around poll and execute hooks.
func NewBalancer(cfg BalancerConfig, poll func(ctx context.Context) (*ShardMap, []ShardLoad, error), execute func(ctx context.Context, mv Move) error) *Balancer {
	cfg.defaults()
	return &Balancer{
		cfg:      cfg,
		Poll:     poll,
		Execute:  execute,
		Logf:     func(string, ...any) {},
		last:     make(map[int][]core.BucketLoad),
		cooldown: make(map[int]int),
	}
}

// Moved returns the number of moves executed so far.
func (b *Balancer) Moved() uint64 { return b.moved }

// Run polls on the configured interval until ctx is done.
func (b *Balancer) Run(ctx context.Context) {
	t := time.NewTicker(b.cfg.Interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
		if _, err := b.Step(ctx); err != nil && ctx.Err() == nil {
			b.Logf("balancer: %v", err)
		}
	}
}

// Step runs one poll-plan-execute cycle and returns how many moves it
// executed. The first cycle only seeds the rate baseline.
func (b *Balancer) Step(ctx context.Context) (int, error) {
	m, loads, err := b.Poll(ctx)
	if err != nil {
		return 0, err
	}
	rates, seeded := b.diffRates(loads)
	for id, left := range b.cooldown {
		if left <= 1 {
			delete(b.cooldown, id)
		} else {
			b.cooldown[id] = left - 1
		}
	}
	if !seeded {
		return 0, nil
	}
	excluded := make(map[int]bool, len(b.cooldown))
	for id := range b.cooldown {
		excluded[id] = true
	}
	moves := planMoves(m, rates, excluded, b.cfg)
	done := 0
	for _, mv := range moves {
		if err := b.Execute(ctx, mv); err != nil {
			return done, fmt.Errorf("cluster: balancer move %s: %w", mv, err)
		}
		b.Logf("balancer: moved %s", mv)
		b.moved++
		done++
		b.cooldown[mv.SrcID] = b.cfg.Cooldown
		b.cooldown[mv.DstID] = b.cfg.Cooldown
	}
	return done, nil
}

// diffRates converts cumulative histograms into per-interval deltas
// against the previous poll. seeded is false until a shard has two
// polls to diff; counter resets (controller restarts, failovers) clamp
// to zero instead of going negative.
func (b *Balancer) diffRates(loads []ShardLoad) (map[int][]float64, bool) {
	rates := make(map[int][]float64, len(loads))
	seeded := false
	for _, sl := range loads {
		prev, ok := b.last[sl.ShardID]
		cur := make([]core.BucketLoad, len(sl.Buckets))
		copy(cur, sl.Buckets)
		b.last[sl.ShardID] = cur
		if !ok || len(prev) != len(sl.Buckets) {
			continue
		}
		seeded = true
		rs := make([]float64, len(sl.Buckets))
		for i := range sl.Buckets {
			d := int64(sl.Buckets[i].Ops()) - int64(prev[i].Ops())
			if d < 0 {
				d = 0
			}
			rs[i] = float64(d)
		}
		rates[sl.ShardID] = rs
	}
	return rates, seeded
}

// sortMoves orders moves deterministically (tests).
func sortMoves(moves []Move) {
	sort.Slice(moves, func(i, j int) bool {
		if moves[i].SrcID != moves[j].SrcID {
			return moves[i].SrcID < moves[j].SrcID
		}
		return moves[i].Range.Start < moves[j].Range.Start
	})
}
