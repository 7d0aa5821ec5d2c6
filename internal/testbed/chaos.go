// Chaos engine controls: every testbed deployment carries per-drive
// network links and per-drive fault hooks that each test scripts step
// by step. Faults are counter-driven (never random at injection time),
// so a test that scripts the same steps observes the same failures.

package testbed

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/enclave/attest"
	"repro/internal/kinetic"
	"repro/internal/netx"
)

// CutDrive severs this node's path to drive i (the drive itself stays
// healthy; other nodes still reach it).
func (c *Cluster) CutDrive(i int) { c.driveLinks[i].Cut() }

// HealDrive restores a cut path to drive i.
func (c *Cluster) HealDrive(i int) { c.driveLinks[i].Heal() }

// SetDriveFaults installs a fault configuration on drive i itself
// (blackhole, slow-by-factor, error-rate, corrupt-on-read). Unlike
// link faults these affect every node talking to the drive.
func (c *Cluster) SetDriveFaults(i int, f kinetic.Faults) { c.Drives[i].SetFaults(f) }

// ClearDriveFaults removes drive i's fault configuration.
func (c *Cluster) ClearDriveFaults(i int) { c.Drives[i].ClearFaults() }

// DriveFaultStats reports how many requests drive i's faults have
// affected so far.
func (c *Cluster) DriveFaultStats(i int) kinetic.FaultStats { return c.Drives[i].FaultStats() }

// attestGate is one node's chaos switch on the attestation service:
// while closed, lease and map traffic from that node fails — the
// controller is partitioned from attestd while still reaching its
// drives and clients.
type attestGate struct{ cut atomic.Bool }

func (g *attestGate) check() error {
	if g.cut.Load() {
		return fmt.Errorf("testbed: attestation service unreachable: %w", netx.ErrLinkCut)
	}
	return nil
}

// attestGateFor returns (creating on demand) the named node's gate.
func (mc *MultiCluster) attestGateFor(name string) *attestGate {
	mc.attestMu.Lock()
	defer mc.attestMu.Unlock()
	if mc.attestGates == nil {
		mc.attestGates = make(map[string]*attestGate)
	}
	g, ok := mc.attestGates[name]
	if !ok {
		g = &attestGate{}
		mc.attestGates[name] = g
	}
	return g
}

// PartitionAttest cuts the named node off from the attestation
// service: its lease renewals and map fetches fail until HealAttest.
// An active node partitioned this way loses its lease after the TTL
// and a standby takes over — the classic "wedged but alive" failure.
func (mc *MultiCluster) PartitionAttest(name string) { mc.attestGateFor(name).cut.Store(true) }

// HealAttest restores the named node's attestation connectivity.
func (mc *MultiCluster) HealAttest(name string) { mc.attestGateFor(name).cut.Store(false) }

// gatedLeases runs a LeaseClient through an attestGate.
type gatedLeases struct {
	gate  *attestGate
	inner cluster.LeaseClient
}

func (g gatedLeases) Acquire(ctx context.Context, shard int, holder, endpoint string, ttl time.Duration) (*attest.Lease, error) {
	if err := g.gate.check(); err != nil {
		return nil, err
	}
	return g.inner.Acquire(ctx, shard, holder, endpoint, ttl)
}

func (g gatedLeases) Renew(ctx context.Context, shard int, holder string, gen uint64, ttl time.Duration) (*attest.Lease, error) {
	if err := g.gate.check(); err != nil {
		return nil, err
	}
	return g.inner.Renew(ctx, shard, holder, gen, ttl)
}

func (g gatedLeases) Standby(ctx context.Context, shard int, name, endpoint string, ttl time.Duration) error {
	if err := g.gate.check(); err != nil {
		return err
	}
	return g.inner.Standby(ctx, shard, name, endpoint, ttl)
}

// gatedSource runs a MapSource through an attestGate.
type gatedSource struct {
	gate  *attestGate
	inner cluster.MapSource
}

func (g gatedSource) FetchMap(ctx context.Context) ([]byte, error) {
	if err := g.gate.check(); err != nil {
		return nil, err
	}
	return g.inner.FetchMap(ctx)
}
