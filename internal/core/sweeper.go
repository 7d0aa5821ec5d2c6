package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/store"
)

// sweepDeepEvery makes every Nth full keyspace pass a deep pass:
// every key goes through full record-level repair instead of the
// cheap version-agreement fast path. Deep passes are what catch a
// lost or corrupt chunk record hiding behind an intact stub and an
// agreeing metadata version.
const sweepDeepEvery = 4

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

// SweeperStatus is the sweeper's cumulative state for /v1/status.
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
// resumable cursor, verifies each with the cheap version-agreement
// fast path (full record repair only where replicas diverge, or on
// every sweepDeepEvery'th generation), and stops early once
// SweepBytesPerTick of records have been rewritten. Neither the
// enumeration nor the verification reads the whole keyspace — per
// tick cost is O(keys-per-tick × replicas) version reads.
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
	maxBytes := c.cfg.SweepBytesPerTick
	if maxBytes <= 0 {
		maxBytes = 4 << 20
	}

	sw.mu.Lock()
	cursor, gen := sw.cursor, sw.generation
	sw.mu.Unlock()

	report := &SweepTickReport{Deep: gen%sweepDeepEvery == 0}
	keys, windowEnd, wrapped, err := c.sweepKeysAfter(ctx, cursor, maxKeys)
	if err != nil {
		return report, err
	}
	if len(keys) > maxKeys {
		// The union across drives can exceed one drive's window when
		// replicas hold disjoint keys. Hard-cap the tick at its key
		// budget and resume right after the last key processed; the
		// overflow re-enumerates next tick.
		keys = keys[:maxKeys]
		windowEnd = ""
		wrapped = false
	}
	last := cursor
	for _, key := range keys {
		if err := ctx.Err(); err != nil {
			wrapped = false
			break
		}
		report.Scanned++
		last = key
		if !report.Deep && c.replicasConverged(ctx, key) {
			continue
		}
		rep, err := c.sweepKey(ctx, key)
		if err != nil {
			report.Failed++
			continue
		}
		if rep.Restored > 0 {
			report.Repaired++
			report.RestoredRecords += rep.Restored
			report.RestoredBytes += rep.RestoredBytes
		}
		if report.RestoredBytes >= maxBytes {
			// Byte budget exhausted: yield; the cursor resumes here.
			wrapped = false
			break
		}
	}
	if wrapped {
		report.Cursor = ""
	} else if report.Scanned < len(keys) || windowEnd == "" {
		// Stopped early (budget or cancellation): resume after the
		// last key actually processed.
		report.Cursor = last
	} else {
		report.Cursor = windowEnd
	}
	report.Wrapped = wrapped

	sw.mu.Lock()
	sw.cursor = report.Cursor
	if wrapped {
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
	if wrapped {
		c.stats.RepairSweeps.Inc()
	}
	return report, nil
}

// sweepKeysAfter enumerates the next window of stored client keys
// strictly after cursor, consulting every live drive so a degraded
// replica cannot hide a key. It returns the window's keys (sorted,
// owned ranges only), the highest key the window is guaranteed to
// cover (the resume cursor), and whether the enumeration reached the
// end of the keyspace.
func (c *Controller) sweepKeysAfter(ctx context.Context, cursor string, limit int) (keys []string, windowEnd string, wrapped bool, err error) {
	start, end := store.MetaKeyRange("")
	if cursor != "" {
		// Client keys exclude NUL, so appending one yields the least
		// drive key strictly greater than MetaKey(cursor).
		start = append(store.MetaKey(cursor), 0)
	}
	mask := c.deadMask.Load()
	seen := make(map[string]bool)
	consulted, failures := 0, 0
	var lastErr error
	full := false
	for i, p := range c.drives {
		if mask&(1<<uint(i)) != 0 {
			continue // dead drives cannot extend coverage
		}
		consulted++
		c.chargeDriveIO(0)
		kr, err := p.pick().Range(ctx, start, end, true, false, limit, false)
		if err != nil {
			failures++
			lastErr = err
			continue
		}
		dks := kr.Keys
		for _, dk := range dks {
			if len(dk) >= 2 {
				seen[string(dk[2:])] = true
			}
		}
		if kr.Truncated && len(dks) > 0 {
			// This drive has more keys beyond the window; the
			// guaranteed-covered prefix ends at the smallest such
			// boundary across drives.
			boundary := string(dks[len(dks)-1][2:])
			if !full || boundary < windowEnd {
				windowEnd = boundary
			}
			full = true
		}
	}
	if consulted == 0 || failures == consulted {
		return nil, "", false, fmt.Errorf("core: sweep enumeration failed on all %d live drives: %w", consulted, lastErr)
	}
	for k := range seen {
		if full && k > windowEnd {
			continue // beyond the guaranteed window; next tick re-enumerates
		}
		if !c.owns(k) {
			continue
		}
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys, windowEnd, !full, nil
}

// replicasConverged is the sweeper's fast path: version-only reads
// establishing that every placement replica agrees on the metadata
// version and holds the newest object record. No payload moves; a
// healthy key costs 2×replicas version probes.
func (c *Controller) replicasConverged(ctx context.Context, key string) bool {
	// The probes below attest the replicated records only. An
	// erasure-coded object's shards live across the wider EC group, so
	// while any drive of the key's group window is dead the fast path
	// cannot vouch for the shards — fall through to the full repair,
	// which probes every shard home. (Shard loss with no dead drive,
	// e.g. an erased-and-revived drive, is caught by the periodic deep
	// pass, like replicated chunk records.)
	if c.cfg.EC {
		if mask := c.deadMask.Load(); mask != 0 {
			window := c.cfg.ECDataShards + c.cfg.ECParityShards
			for _, di := range store.Placement(key, len(c.drives), window) {
				if mask&(1<<uint(di)) != 0 {
					return false
				}
			}
		}
	}
	placement := c.placement(key)
	var ver []byte
	for _, di := range placement {
		c.chargeDriveIO(0)
		v, err := c.drives[di].pick().GetVersion(ctx, store.MetaKey(key))
		if err != nil {
			return false
		}
		if ver == nil {
			ver = v
		} else if !bytes.Equal(ver, v) {
			return false
		}
	}
	if len(ver) != 8 {
		return false
	}
	objKey := store.ObjectKey(key, int64(binary.BigEndian.Uint64(ver)))
	for _, di := range placement {
		c.chargeDriveIO(0)
		if _, err := c.drives[di].pick().GetVersion(ctx, objKey); err != nil {
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
