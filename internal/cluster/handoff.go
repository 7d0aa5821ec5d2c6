// Live shard handoff: the coordinator-side composition of the
// controller primitives (core/shard.go) that moves one hash range
// between two controllers while clients stay live.
//
//  1. freeze    src blocks writes to the range (reads keep serving)
//  2. export    src P2P-copies every record to dst's drives
//  3. verify    dst re-reads and integrity-checks the manifest
//  4. adopt     dst owns the range at epoch+1
//  5. publish   the new signed map goes out (attestd + controllers)
//  6. release   src drops the range, rotates its drive credentials,
//     destroys the migrated records; blocked writers wake
//     into one wrong_shard redirect
//
// Publishing before release is what bounds client impact: a writer
// that blocked on the freeze is released straight into a redirect
// whose map refresh already finds the new epoch, so it retries
// exactly once and lands on the new owner.
package cluster

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/core"
)

// HandoffPlan parameterizes one range move.
type HandoffPlan struct {
	// Map is the current cluster map (the one being superseded).
	Map *ShardMap
	// Key signs the successor map.
	Key [32]byte
	// SrcID and DstID are the losing and gaining shard ids.
	SrcID, DstID int
	// Range is the hash range to move; must lie inside the source's
	// owned ranges.
	Range core.HashRange
	// Src and Dst are the participating controllers.
	Src, Dst *core.Controller
	// Others are the non-participating controllers, advanced to the
	// new epoch at publish time so cluster-wide scans stay
	// epoch-consistent.
	Others []*core.Controller
	// Publish distributes the new signed map document (attestation
	// service, operator store, ...). The participating controllers'
	// own /v2/cluster/map documents are updated by Handoff itself.
	Publish func(doc []byte) error
}

// Handoff executes one live range move and returns the successor map
// and the migration manifest. On an error before the point of no
// return (adopt), the freeze is rolled back and the old map stays
// authoritative; copied records on the target are unreachable residue
// a future handoff overwrites.
func Handoff(ctx context.Context, p HandoffPlan) (*ShardMap, *core.Manifest, error) {
	src := p.Map.ShardByID(p.SrcID)
	dst := p.Map.ShardByID(p.DstID)
	if src == nil || dst == nil {
		return nil, nil, fmt.Errorf("cluster: handoff between unknown shards %d -> %d", p.SrcID, p.DstID)
	}
	next, err := p.Map.MoveRange(p.SrcID, p.DstID, p.Range)
	if err != nil {
		return nil, nil, err
	}
	doc, err := SignMap(p.Key, next)
	if err != nil {
		return nil, nil, err
	}

	// 1. Freeze: returns once in-flight writes drained; the range is
	// immutable from here until release.
	if err := p.Src.FreezeRange(p.Range); err != nil {
		return nil, nil, err
	}
	rollback := func(cause error) (*ShardMap, *core.Manifest, error) {
		p.Src.UnfreezeRange(p.Range)
		return nil, nil, cause
	}

	// 2. Export: drive-to-drive copy onto the gaining shard's layout.
	manifest, err := p.Src.ExportRange(ctx, p.Range, core.MigrationTarget{
		Drives:   dst.Drives,
		Replicas: dst.Replicas,
	})
	if err != nil {
		return rollback(fmt.Errorf("cluster: export: %w", err))
	}

	// 3. Verify: the gaining controller accepts only what it can read
	// back intact from its own drives.
	if err := p.Dst.VerifyImport(ctx, manifest); err != nil {
		return rollback(fmt.Errorf("cluster: import verification: %w", err))
	}

	// 4. Adopt: point of no return — the range now has its new owner.
	if err := p.Dst.AdoptRange(next.Epoch, p.Range); err != nil {
		return rollback(fmt.Errorf("cluster: adopt: %w", err))
	}

	// 5. Publish the successor map everywhere before waking writers.
	// Past the adopt there is no rollback: a publish failure must NOT
	// leave the source frozen (writes would hang forever) — release
	// proceeds regardless, every controller already serves the new map
	// from /v2/cluster/map, and the error is surfaced alongside the
	// completed handoff so the coordinator re-publishes.
	p.Dst.SetClusterMapDoc(doc)
	p.Src.SetClusterMapDoc(doc)
	for _, c := range p.Others {
		c.SetClusterMapDoc(doc)
		c.AdvanceEpoch(next.Epoch)
	}
	var publishErr error
	if p.Publish != nil {
		if err := p.Publish(doc); err != nil {
			publishErr = fmt.Errorf("cluster: publish map epoch %d (handoff completed, re-publish required): %w", next.Epoch, err)
		}
	}

	// 6. Release: drop ownership (waking blocked writers into their
	// single redirect), fence stale owners via credential rotation,
	// destroy the migrated records.
	if err := p.Src.ReleaseRange(ctx, next.Epoch, p.Range, manifest); err != nil {
		return next, manifest, errors.Join(fmt.Errorf("cluster: release: %w", err), publishErr)
	}
	return next, manifest, publishErr
}
