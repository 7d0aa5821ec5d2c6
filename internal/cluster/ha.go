// Controller high availability: lease-based standby failover.
//
// Each shard runs one active controller plus N hot standbys. The
// active refreshes a TTL lease against the attestation service
// (attest.Service doubles as the lease authority); standbys heartbeat
// their presence, keep their drive pools dialed and their caches
// warm, and race to acquire the lease the moment it expires. The
// winner performs an epoch-bumped takeover:
//
//  1. adopt   switch drive pools to the map's current CredEpoch
//     accounts (the active may have rotated since boot)
//  2. rotate  RotateDriveCredentials(epoch+1) — from here the old
//     active's per-message HMACs are rejected by the drives
//     themselves, so no split brain regardless of what the
//     lease authority believes
//  3. activate  promote the standby (drop version-bearing caches,
//     serve the owned ranges)
//  4. publish   sign the successor map (same ranges, new endpoint,
//     CredEpoch = new epoch) and push it to the attestation
//     service; routers ride through via wrong_shard redirects
//     and connection-failure retargets
//
// Safety does not depend on lease timing: an acknowledged write is
// durable on the shared drives before the ack, the takeover's cache
// drop forces the new active to read drive state, and any write the
// fenced-out old active still tries dies at the drive HMAC layer.
// The lease only bounds UNavailability: a dead active is replaced
// within one TTL plus the takeover cost.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/enclave/attest"
)

// LeaseClient is the HA node's view of the lease authority. The
// testbed binds it to an in-process attest.Service; daemons bind it
// to attestd's /v1/lease endpoints.
type LeaseClient interface {
	Acquire(ctx context.Context, shard int, holder, endpoint string, ttl time.Duration) (*attest.Lease, error)
	Renew(ctx context.Context, shard int, holder string, gen uint64, ttl time.Duration) (*attest.Lease, error)
	Standby(ctx context.Context, shard int, name, endpoint string, ttl time.Duration) error
}

// ServiceLeases adapts an in-process attest.Service to LeaseClient.
type ServiceLeases struct{ S *attest.Service }

// Acquire implements LeaseClient.
func (a ServiceLeases) Acquire(_ context.Context, shard int, holder, endpoint string, ttl time.Duration) (*attest.Lease, error) {
	return a.S.AcquireLease(shard, holder, endpoint, ttl)
}

// Renew implements LeaseClient.
func (a ServiceLeases) Renew(_ context.Context, shard int, holder string, gen uint64, ttl time.Duration) (*attest.Lease, error) {
	return a.S.RenewLease(shard, holder, gen, ttl)
}

// Standby implements LeaseClient.
func (a ServiceLeases) Standby(_ context.Context, shard int, name, endpoint string, ttl time.Duration) error {
	return a.S.StandbyHeartbeat(shard, name, endpoint, ttl)
}

// HA node states.
const (
	// StateStandby: holding warm drives and caches, racing for the lease.
	StateStandby = "standby"
	// StateActive: holding the lease, serving the shard.
	StateActive = "active"
	// StateFenced: lost the lease while active; a successor has rotated
	// the drive credentials. The process must restart in standby mode
	// to rejoin (its pools and caches are no longer trustworthy).
	StateFenced = "fenced"
)

// HAConfig configures one controller's HA supervisor.
type HAConfig struct {
	// ShardID is the shard this node serves (or stands by for).
	ShardID int
	// Name uniquely identifies this node to the lease authority.
	Name string
	// Endpoint is this node's client-facing address, published in the
	// shard map when it takes over.
	Endpoint string
	// Controller is the supervised controller (standby or active).
	Controller *core.Controller
	// Leases is the lease authority.
	Leases LeaseClient
	// Source supplies the current signed shard map.
	Source MapSource
	// Key signs (and verifies) shard maps.
	Key [32]byte
	// Publish distributes a newly signed map after takeover.
	Publish func(doc []byte) error
	// TTL is the lease duration (default 3s). Renewals and standby
	// probes run at TTL/3.
	TTL time.Duration
	// Active starts the node as the shard's initial lease holder
	// instead of a standby.
	Active bool
	// WarmLimit caps the keys warmed per standby probe (default 256;
	// negative disables warming).
	WarmLimit int
	// Probe, when set, is called on each standby tick with the
	// active's endpoint from the current map — the /v2/status tail
	// that keeps a standby observing the active it may replace.
	Probe func(ctx context.Context, endpoint string)
	// OnTakeover, when set, observes a completed takeover (test and
	// metrics hook). Called after the new map is published.
	OnTakeover func(epoch uint64)
	// Logf receives progress lines (nil discards them).
	Logf func(format string, args ...any)
}

// HANode is the per-controller HA supervisor loop.
type HANode struct {
	cfg   HAConfig
	state atomic.Value // string

	gen       uint64 // lease generation while active
	takeovers atomic.Uint64
}

// NewHANode builds an HA supervisor. Run drives it.
func NewHANode(cfg HAConfig) (*HANode, error) {
	if cfg.Controller == nil || cfg.Leases == nil || cfg.Source == nil {
		return nil, errors.New("cluster: HA node needs a controller, a lease client and a map source")
	}
	if cfg.Name == "" || cfg.Endpoint == "" {
		return nil, errors.New("cluster: HA node needs a name and an endpoint")
	}
	if cfg.TTL <= 0 {
		cfg.TTL = 3 * time.Second
	}
	if cfg.WarmLimit == 0 {
		cfg.WarmLimit = 256
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	n := &HANode{cfg: cfg}
	if cfg.Active {
		n.state.Store(StateActive)
	} else {
		n.state.Store(StateStandby)
	}
	return n, nil
}

// State returns the node's current state string.
func (n *HANode) State() string { return n.state.Load().(string) }

// Takeovers returns how many takeovers this node completed.
func (n *HANode) Takeovers() uint64 { return n.takeovers.Load() }

// Run drives the supervisor until ctx is done (normal shutdown) or
// the node is fenced (returns an error; the process should restart in
// standby mode). An initially-active node acquires the lease first so
// standbys cannot steal the shard from a healthy owner at boot.
func (n *HANode) Run(ctx context.Context) error {
	tick := n.cfg.TTL / 3
	if tick <= 0 {
		tick = time.Second
	}
	if n.State() == StateActive {
		l, err := n.cfg.Leases.Acquire(ctx, n.cfg.ShardID, n.cfg.Name, n.cfg.Endpoint, n.cfg.TTL)
		if err != nil {
			return fmt.Errorf("cluster: initial lease acquire: %w", err)
		}
		n.gen = l.Gen
	}
	for {
		select {
		case <-ctx.Done():
			return nil
		case <-time.After(tick):
		}
		switch n.State() {
		case StateActive:
			// Track the published map: another shard's handoff or
			// takeover bumps the epoch, and listings stall until every
			// shard answers under it. Both calls are monotonic no-ops
			// when nothing changed.
			if m, doc := n.refreshMap(ctx); m != nil {
				n.cfg.Controller.SetClusterMapDoc(doc)
				n.cfg.Controller.AdvanceEpoch(m.Epoch)
			}
			if _, err := n.cfg.Leases.Renew(ctx, n.cfg.ShardID, n.cfg.Name, n.gen, n.cfg.TTL); err != nil {
				if errors.Is(err, attest.ErrLeaseLost) {
					// A successor holds (or is taking) the shard; its
					// credential rotation fences this node at the drives.
					n.state.Store(StateFenced)
					n.cfg.Logf("ha %s: lease lost, fenced: %v", n.cfg.Name, err)
					return fmt.Errorf("cluster: node %s fenced: %w", n.cfg.Name, err)
				}
				// Transient lease-authority failure: keep serving — safety
				// never depended on the lease — and retry next tick.
				n.cfg.Logf("ha %s: lease renew error: %v", n.cfg.Name, err)
			}
		case StateStandby:
			n.standbyTick(ctx)
		}
	}
}

// standbyTick is one probe of the standby loop: heartbeat, follow the
// map (adopting credential rotations), warm caches, try the lease.
func (n *HANode) standbyTick(ctx context.Context) {
	if err := n.cfg.Leases.Standby(ctx, n.cfg.ShardID, n.cfg.Name, n.cfg.Endpoint, 2*n.cfg.TTL); err != nil {
		n.cfg.Logf("ha %s: standby heartbeat: %v", n.cfg.Name, err)
	}

	m, doc := n.refreshMap(ctx)
	if m != nil {
		n.cfg.Controller.SetClusterMapDoc(doc)
		n.cfg.Controller.AdvanceEpoch(m.Epoch)
		if s := m.ShardByID(n.cfg.ShardID); s != nil {
			// Follow credential rotations (handoffs on this shard bump
			// CredEpoch) so the pools keep authenticating.
			n.cfg.Controller.AdoptDriveCredentials(s.CredEpoch)
			if n.cfg.Probe != nil && s.Endpoint != n.cfg.Endpoint {
				n.cfg.Probe(ctx, s.Endpoint)
			}
		}
	}
	if n.cfg.WarmLimit > 0 {
		if _, err := n.cfg.Controller.WarmRanges(ctx, n.cfg.WarmLimit); err != nil && ctx.Err() == nil {
			n.cfg.Logf("ha %s: warm: %v", n.cfg.Name, err)
		}
	}

	l, err := n.cfg.Leases.Acquire(ctx, n.cfg.ShardID, n.cfg.Name, n.cfg.Endpoint, n.cfg.TTL)
	if err != nil {
		if !errors.Is(err, attest.ErrLeaseHeld) && ctx.Err() == nil {
			n.cfg.Logf("ha %s: lease acquire: %v", n.cfg.Name, err)
		}
		return // the active is healthy (or the authority unreachable)
	}
	// Lease won: the previous active is expired or revoked. Take over.
	if err := n.takeover(ctx, m); err != nil {
		n.cfg.Logf("ha %s: takeover failed (will retry): %v", n.cfg.Name, err)
		return // still holds the lease; next tick re-enters via re-acquire
	}
	n.gen = l.Gen
	n.state.Store(StateActive)
	n.takeovers.Add(1)
}

// refreshMap fetches and verifies the current shard map, nil on any
// failure (supervisor ticks are best-effort).
func (n *HANode) refreshMap(ctx context.Context) (*ShardMap, []byte) {
	doc, err := n.cfg.Source.FetchMap(ctx)
	if err != nil {
		return nil, nil
	}
	m, err := VerifyMap(n.cfg.Key, doc)
	if err != nil {
		return nil, nil
	}
	return m, doc
}

// takeover promotes this standby to the shard's active controller:
// fence the old owner by credential rotation, activate, publish the
// successor map. Idempotent enough to retry: rotation skips drives
// already on the new epoch's accounts, and the epoch is re-derived
// from the freshest map on every attempt.
func (n *HANode) takeover(ctx context.Context, m *ShardMap) error {
	if m == nil {
		m, _ = n.refreshMap(ctx)
	}
	if m == nil {
		return errors.New("cluster: takeover without a current shard map")
	}
	shard := m.ShardByID(n.cfg.ShardID)
	if shard == nil {
		return fmt.Errorf("cluster: shard %d not in map epoch %d", n.cfg.ShardID, m.Epoch)
	}
	ctl := n.cfg.Controller

	// 1. Make sure the pools authenticate under the pre-takeover
	// accounts, then 2. rotate to the new epoch's accounts — the
	// fencing step: the old active's HMACs die here.
	ctl.AdoptDriveCredentials(shard.CredEpoch)
	next, err := m.WithEndpoint(n.cfg.ShardID, n.cfg.Endpoint)
	if err != nil {
		return err
	}
	if err := ctl.RotateDriveCredentials(ctx, next.Epoch); err != nil {
		return fmt.Errorf("cluster: takeover fence rotation: %w", err)
	}

	// 3. Serve: drop version-bearing caches, own the ranges at the new
	// epoch.
	if err := ctl.Activate(next.Epoch); err != nil {
		return err
	}

	// 4. Publish the successor map; routers redirect to us.
	doc, err := SignMap(n.cfg.Key, next)
	if err != nil {
		return err
	}
	ctl.SetClusterMapDoc(doc)
	if n.cfg.Publish != nil {
		if err := n.cfg.Publish(doc); err != nil {
			// The takeover is complete (we serve, old owner is fenced);
			// surface for re-publish but do not unwind.
			n.cfg.Logf("ha %s: publish map epoch %d: %v", n.cfg.Name, next.Epoch, err)
		}
	}
	n.cfg.Logf("ha %s: took over shard %d at epoch %d", n.cfg.Name, n.cfg.ShardID, next.Epoch)
	if n.cfg.OnTakeover != nil {
		n.cfg.OnTakeover(next.Epoch)
	}
	return nil
}
