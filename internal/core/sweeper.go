package core

import (
	"context"
	"errors"
	"fmt"

	"sync"
	"time"

	"repro/internal/core/records"
	"repro/internal/store"
)

// sweepDeepEvery makes every Nth full keyspace pass a deep pass:
// every key goes through full record-level repair instead of the
// cheap agreement fast path. Deep passes are what catch a lost or
// corrupt chunk record hiding behind an intact stub and an agreeing
// head.
const sweepDeepEvery = 4

// sweepBytesPerTick bounds the record bytes one sweeper tick rewrites:
// a tick stops early once it has restored this much.
const sweepBytesPerTick = 4 << 20

// SweepTickReport summarizes one incremental sweeper tick.
type SweepTickReport struct {
	// Scanned is the number of keys examined this tick.
	Scanned int
	// Repaired counts keys that needed records rewritten.
	Repaired int
	// Failed counts keys whose repair errored (retried next pass).
	Failed int
	// RestoredRecords / RestoredBytes total the rewritten records.
	RestoredRecords int
	RestoredBytes   int64
	// Cursor is the resume position after this tick.
	Cursor string
	// Wrapped reports that the tick finished a full keyspace pass.
	Wrapped bool
	// Deep reports that this tick belonged to a deep pass.
	Deep bool
}

// SweeperStatus is the sweeper's cumulative state for /v2/status.
type SweeperStatus struct {
	Enabled    bool      `json:"enabled"`
	Cursor     string    `json:"cursor"`
	Generation uint64    `json:"generation"`
	Ticks      uint64    `json:"ticks"`
	Scanned    uint64    `json:"keys_scanned"`
	Repaired   uint64    `json:"keys_repaired"`
	Restored   uint64    `json:"records_restored"`
	Bytes      uint64    `json:"bytes_restored"`
	Failures   uint64    `json:"failures"`
	LastTick   time.Time `json:"last_tick"`
}

// sweeperState is the continuous anti-entropy sweeper's resumable
// position plus lifetime counters. One tick runs at a time (runMu);
// the cursor is the last client key processed, so a controller can
// sweep an arbitrarily large keyspace in bounded per-tick increments.
type sweeperState struct {
	runMu sync.Mutex // serializes ticks

	mu         sync.Mutex
	cursor     string
	generation uint64
	ticks      uint64
	scanned    uint64
	repaired   uint64
	restored   uint64
	bytes      uint64
	failures   uint64
	lastTick   time.Time

	// passRevivals is the controller's revival count when the current
	// pass started (under runMu); a completed pass publishes it as
	// sweptRevivals, which is what lets a listing's cover back in.
	passRevivals uint64

	kick chan struct{}
}

func newSweeperState() *sweeperState {
	return &sweeperState{kick: make(chan struct{}, 1)}
}

// kickSweeper wakes the background sweep loop out of its interval
// wait (detector transitions call this so re-replication starts
// immediately rather than a tick later). Harmless without a loop.
func (c *Controller) kickSweeper() {
	if sw := c.sweeper; sw != nil {
		select {
		case sw.kick <- struct{}{}:
		default:
		}
	}
}

// SweeperStatus reports the sweeper's cursor and lifetime counters.
func (c *Controller) SweeperStatus() SweeperStatus {
	sw := c.sweeper
	if sw == nil {
		return SweeperStatus{}
	}
	sw.mu.Lock()
	defer sw.mu.Unlock()
	return SweeperStatus{
		Enabled:    c.cfg.SweepInterval > 0,
		Cursor:     sw.cursor,
		Generation: sw.generation,
		Ticks:      sw.ticks,
		Scanned:    sw.scanned,
		Repaired:   sw.repaired,
		Restored:   sw.restored,
		Bytes:      sw.bytes,
		Failures:   sw.failures,
		LastTick:   sw.lastTick,
	}
}

// SweepTick runs one bounded increment of the continuous anti-entropy
// sweep: it enumerates at most SweepKeysPerTick keys after the
// resumable cursor, each with every drive's copy of its head, verifies
// each with the cheap agreement fast path (full record repair only
// where replicas diverge, or on every sweepDeepEvery'th generation),
// and stops early once sweepBytesPerTick of records have been
// rewritten. Neither the enumeration nor the verification reads the
// whole keyspace — per tick cost is the walk's pages plus
// O(keys-per-tick × replicas) version reads.
func (c *Controller) SweepTick(ctx context.Context) (*SweepTickReport, error) {
	sw := c.sweeper
	if sw == nil {
		return nil, fmt.Errorf("core: controller has no sweeper")
	}
	sw.runMu.Lock()
	defer sw.runMu.Unlock()

	maxKeys := c.cfg.SweepKeysPerTick
	if maxKeys <= 0 {
		maxKeys = 256
	}

	sw.mu.Lock()
	cursor, gen := sw.cursor, sw.generation
	sw.mu.Unlock()
	if cursor == "" {
		sw.passRevivals = c.revivals.Load()
	}

	report := &SweepTickReport{Deep: gen%sweepDeepEvery == 0, Cursor: cursor}
	// Every live drive is asked (dead ones cannot extend coverage), so a
	// degraded replica cannot hide a key; the enumeration stands while
	// any of them answers.
	var live []int
	for di, dead := 0, c.deadMask.Load(); di < c.drives.Len(); di++ {
		if dead&(1<<uint(di)) == 0 {
			live = append(live, di)
		}
	}
	w := c.drives.Heads(ctx, records.HeadScan{Drives: live, From: cursor, Inclusive: cursor == "",
		Page: maxKeys + 1, Tolerate: len(live) - 1})
	defer w.Close()
	for {
		key, _, ok := w.Next()
		if !ok {
			if w.Err == nil {
				report.Cursor, report.Wrapped = "", true
			}
			break
		}
		if c.owns(key) {
			// The tick yields at its key budget, its byte budget or a
			// cancellation; the cursor resumes after the last key examined.
			if report.Scanned == maxKeys || report.RestoredBytes >= sweepBytesPerTick || ctx.Err() != nil {
				break
			}
			report.Scanned++
			if report.Deep || !c.replicasConverged(ctx, key, w) {
				switch rep, err := c.repairObject(ctx, key, nil, nil); {
				case errors.Is(err, ErrNotFound): // deleted mid-sweep: done
				case err != nil:
					report.Failed++
				case rep.Restored > 0:
					report.Repaired++
					report.RestoredRecords += rep.Restored
					report.RestoredBytes += rep.RestoredBytes
				}
			}
		}
		report.Cursor = key
	}

	sw.mu.Lock()
	sw.cursor = report.Cursor
	if report.Wrapped {
		sw.generation++
	}
	sw.ticks++
	sw.scanned += uint64(report.Scanned)
	sw.repaired += uint64(report.Repaired)
	sw.restored += uint64(report.RestoredRecords)
	sw.bytes += uint64(report.RestoredBytes)
	sw.failures += uint64(report.Failed)
	sw.lastTick = c.clock()
	sw.mu.Unlock()

	c.stats.SweepTicks.Inc()
	if report.Wrapped {
		c.stats.RepairSweeps.Inc()
		c.sweptRevivals.Store(sw.passRevivals)
	}
	if w.Err != nil {
		return report, fmt.Errorf("core: sweep enumeration: %w", w.Err)
	}
	return report, nil
}

// replicasConverged is the sweeper's fast path. The walk's copies of
// key's head, by placement slot, go through repair's election
// (records.Heads.Elect), which establishes that every placement
// replica holds key's head at the elected version — a drive past the
// 64th has no bit, so its copy never does; one version probe per
// replica then establishes that each holds that version's record. No
// payload moves and no head is read again: a healthy key costs Replicas
// version probes.
func (c *Controller) replicasConverged(ctx context.Context, key string, w *records.Heads) bool {
	placement := c.placement(key)
	var slots [2]store.Meta
	head, current, err := w.Elect(key, placement, &slots)
	if err != nil || current != 1<<len(placement)-1 {
		return false
	}
	// The probes below attest the replicated records only. An
	// erasure-coded head's shards live across its wider EC group, so
	// while any drive of that window is dead the fast path cannot vouch
	// for the shards — fall through to the full repair, which probes
	// every shard home. (Shard loss with no dead drive, e.g. an
	// erased-and-revived drive, is caught by the periodic deep pass, like
	// replicated chunk records.)
	if dead := c.deadMask.Load(); head.ECK > 0 && dead != 0 {
		for _, di := range store.Placement(key, c.drives.Len(), int(head.ECK+head.ECM)) {
			if dead&(1<<uint(di)) != 0 {
				return false
			}
		}
	}
	for _, di := range placement {
		if c.drives.HasVersion(ctx, di, key, head.Version) != nil {
			return false
		}
	}
	return true
}

// startMaintenance launches the background detector and sweeper loops
// when their intervals are configured. Standby controllers defer this
// until Activate promotes them — a standby must not write to drives
// it does not own.
func (c *Controller) startMaintenance() {
	c.bgMu.Lock()
	defer c.bgMu.Unlock()
	if c.bgCancel != nil {
		return
	}
	detEvery, sweepEvery := c.cfg.DetectorInterval, c.cfg.SweepInterval
	if detEvery <= 0 && sweepEvery <= 0 {
		return
	}
	ctx, cancel := context.WithCancel(context.Background())
	c.bgCancel = cancel
	if detEvery > 0 {
		c.bgWG.Add(1)
		go func() {
			defer c.bgWG.Done()
			t := time.NewTicker(detEvery)
			defer t.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-t.C:
					c.DetectorTick(ctx)
				}
			}
		}()
	}
	if sweepEvery > 0 {
		c.bgWG.Add(1)
		go func() {
			defer c.bgWG.Done()
			t := time.NewTicker(sweepEvery)
			defer t.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-t.C:
				case <-c.sweeper.kick:
				}
				if _, err := c.SweepTick(ctx); err != nil && ctx.Err() != nil {
					return
				}
			}
		}()
	}
}

// stopMaintenance cancels the background loops and waits them out.
func (c *Controller) stopMaintenance() {
	c.bgMu.Lock()
	cancel := c.bgCancel
	c.bgCancel = nil
	c.bgMu.Unlock()
	if cancel != nil {
		cancel()
		c.bgWG.Wait()
	}
}
