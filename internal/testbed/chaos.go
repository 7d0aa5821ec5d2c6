// Chaos engine controls: every testbed deployment carries per-drive
// network links and per-drive fault hooks that tests and the chaos
// bench drive deterministically. Faults are counter-driven (never
// random at injection time) so a schedule replays identically; the
// only randomness is the seeded plan generator, which is pure — the
// same seed always yields the same schedule.

package testbed

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
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

// PartitionDrives cuts this node's paths to every listed drive in one
// step — "the controller lost a rack".
func (c *Cluster) PartitionDrives(idx ...int) {
	for _, i := range idx {
		c.CutDrive(i)
	}
}

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

// Chaos action kinds understood by ChaosPlan.Apply.
const (
	// ChaosBlackhole makes the drive drop every request (crash-stop).
	ChaosBlackhole = "blackhole"
	// ChaosClearFaults removes the drive's fault configuration.
	ChaosClearFaults = "clear-faults"
	// ChaosCutLink partitions this node from the drive.
	ChaosCutLink = "cut-link"
	// ChaosHealLink restores the partitioned path.
	ChaosHealLink = "heal-link"
	// ChaosSlow multiplies the drive's media latency by Factor.
	ChaosSlow = "slow"
)

// ChaosAction is one scheduled fault transition.
type ChaosAction struct {
	// At is the offset from the start of the plan's run.
	At time.Duration
	// Kind is one of the Chaos* constants.
	Kind string
	// Drive indexes the target drive.
	Drive int
	// Factor parameterizes ChaosSlow (media latency multiplier).
	Factor int
}

// ChaosPlan is a deterministic fault schedule: the same seed, drive
// count, span and event count always produce the identical action
// list, and every action it emits is itself deterministic (blackholes
// and cuts, never probabilistic drops), so two runs of the same plan
// against the same workload observe the same failure sequence.
type ChaosPlan struct {
	Seed    int64
	Actions []ChaosAction
}

// NewChaosPlan generates events fault/heal pairs across drives within
// span. Faults start in the first half of the span and heal in the
// second, so every injected fault also exercises recovery.
func NewChaosPlan(seed int64, drives int, span time.Duration, events int) *ChaosPlan {
	if drives <= 0 || events <= 0 || span <= 0 {
		return &ChaosPlan{Seed: seed}
	}
	rng := rand.New(rand.NewSource(seed))
	p := &ChaosPlan{Seed: seed}
	half := int64(span) / 2
	for e := 0; e < events; e++ {
		d := rng.Intn(drives)
		at := time.Duration(rng.Int63n(half))
		heal := time.Duration(half + rng.Int63n(half))
		switch rng.Intn(3) {
		case 0:
			p.Actions = append(p.Actions,
				ChaosAction{At: at, Kind: ChaosBlackhole, Drive: d},
				ChaosAction{At: heal, Kind: ChaosClearFaults, Drive: d})
		case 1:
			p.Actions = append(p.Actions,
				ChaosAction{At: at, Kind: ChaosCutLink, Drive: d},
				ChaosAction{At: heal, Kind: ChaosHealLink, Drive: d})
		default:
			p.Actions = append(p.Actions,
				ChaosAction{At: at, Kind: ChaosSlow, Drive: d, Factor: 2 + rng.Intn(3)},
				ChaosAction{At: heal, Kind: ChaosClearFaults, Drive: d})
		}
	}
	sort.SliceStable(p.Actions, func(i, j int) bool { return p.Actions[i].At < p.Actions[j].At })
	return p
}

// Apply executes one action against the cluster.
func (p *ChaosPlan) Apply(c *Cluster, a ChaosAction) error {
	if a.Drive < 0 || a.Drive >= len(c.Drives) {
		return fmt.Errorf("testbed: chaos action targets unknown drive %d", a.Drive)
	}
	switch a.Kind {
	case ChaosBlackhole:
		c.SetDriveFaults(a.Drive, kinetic.Faults{Blackhole: true})
	case ChaosClearFaults:
		c.ClearDriveFaults(a.Drive)
	case ChaosCutLink:
		c.CutDrive(a.Drive)
	case ChaosHealLink:
		c.HealDrive(a.Drive)
	case ChaosSlow:
		c.SetDriveFaults(a.Drive, kinetic.Faults{SlowFactor: a.Factor})
	default:
		return fmt.Errorf("testbed: unknown chaos action %q", a.Kind)
	}
	return nil
}

// Run plays the plan against the cluster in real time, returning when
// every action has fired or the context ends. Actions keep their
// scheduled order even when the clock has already passed their
// offset.
func (p *ChaosPlan) Run(ctx context.Context, c *Cluster) error {
	start := time.Now()
	for _, a := range p.Actions {
		if wait := a.At - time.Since(start); wait > 0 {
			select {
			case <-time.After(wait):
			case <-ctx.Done():
				return ctx.Err()
			}
		}
		if err := p.Apply(c, a); err != nil {
			return err
		}
	}
	return nil
}
