// Package core implements the Pesos controller (§3): the single
// trusted layer that terminates client connections, compiles and
// enforces per-object policies, caches hot state inside the enclave,
// and persists objects on Kinetic drives with write-through
// replication. Everything security-relevant funnels through this
// package — the unified enforcement layer the paper argues reduces
// the TCB to one place.
package core

import (
	"context"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/sha256"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cache"
	"repro/internal/core/records"
	"repro/internal/ec"
	"repro/internal/enclave"
	"repro/internal/enclave/attest"
	"repro/internal/kinetic/wire"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/store"
)

// Errors surfaced to clients.
var (
	ErrDenied       = errors.New("pesos: request denied by policy")
	ErrNotFound     = records.ErrNotFound
	ErrNoSuchPolicy = records.ErrNoSuchPolicy
	ErrBadVersion   = errors.New("pesos: version conflict")
	ErrClosed       = errors.New("pesos: controller closed")
)

// DeniedError wraps ErrDenied with the interpreter's explanation.
type DeniedError struct {
	Op     string
	Key    string
	Reason string
}

// Error implements error.
func (e *DeniedError) Error() string {
	return fmt.Sprintf("pesos: %s %q denied by policy: %s", e.Op, e.Key, e.Reason)
}

// Unwrap lets errors.Is match ErrDenied.
func (e *DeniedError) Unwrap() error { return ErrDenied }

// AdminIdentity is the account the controller installs on its drives
// during takeover.
const AdminIdentity = "pesos-admin"

// LogKeyFor derives the mandatory-access-log object key paired with
// an object (§5.4). The log is an ordinary client-visible object —
// clients append intent entries to it before touching the protected
// object — so the derived name stays inside the client key space.
func LogKeyFor(key string) string { return key + ".log" }

// DriveEndpoint names one Kinetic drive and how to reach it.
type DriveEndpoint = records.Endpoint

// Config configures a controller.
type Config struct {
	// Drives lists the Kinetic drives this controller owns.
	Drives []DriveEndpoint
	// Replicas is the total number of copies per object (1 = no
	// replication, §4.5).
	Replicas int
	// Encrypt enables payload encryption (on by default in the paper;
	// the §6.2 encryption experiment turns it off).
	Encrypt bool
	// hedgeDelay fixes the read engine's delay before a further copy is
	// consulted (see records/fetch.go). 0, which every deployment runs, selects
	// the adaptive delay: ~1.25× the outstanding drive's observed p95
	// read latency. Only this package's tests pin it.
	hedgeDelay time.Duration

	// Enclave is the trusted execution environment; nil runs the
	// controller "native" (no attestation, no overhead model).
	Enclave *enclave.Enclave

	// Attestation, when set, is used with Enclave to obtain Secrets
	// via remote attestation. Otherwise Secrets must be set directly.
	Attestation *attest.Service
	// Secrets provides runtime credentials when Attestation is nil.
	Secrets *attest.Secrets

	// ObjectCacheBytes budgets the object cache; zero selects the
	// default, sized to fit EPC (§4.2).
	ObjectCacheBytes int64

	// maxStreamBytes caps the total size of one streamed (chunked)
	// object; 0, which every deployment runs, selects
	// DefaultMaxStreamBytes. Only this package's tests lower it. Inline
	// objects stay bounded by the Kinetic value limit
	// (store.MaxObjectSize).
	maxStreamBytes int64

	// EC enables the erasure-coded storage class: streamed objects of
	// at least ECMinBytes are striped k chunks at a time into k+m
	// shards (k data + m Reed-Solomon parity), each shard on its own
	// drive, instead of writing every chunk to every replica. Raw
	// capacity per object drops from Replicas× to (k+m)/k× while any
	// m drive losses remain survivable. Requires ECDataShards +
	// ECParityShards ≤ len(Drives).
	EC bool
	// ECDataShards (k) and ECParityShards (m) shape the Reed-Solomon
	// code; 0 selects 4 and 2.
	ECDataShards   int
	ECParityShards int
	// ECMinBytes is the streamed-object size at which the EC class
	// takes over. Smaller objects stay fully replicated — striping a
	// small hot object across k+m drives buys little capacity and
	// costs k drive round trips per read. 0 selects 4 MB.
	ECMinBytes int64

	// DetectorInterval runs the drive-failure detector on a ticker:
	// each tick probes every drive and advances its
	// healthy → suspect → dead state machine (see detector.go). 0
	// disables the background loop; DetectorTick remains callable.
	DetectorInterval time.Duration
	// DetectorProbeTimeout bounds one detector probe; 0 selects 1s.
	DetectorProbeTimeout time.Duration
	// DetectorDeadAfter is the consecutive failed-probe count that
	// declares a drive dead (default 4; at least one more than
	// detectorSuspectAfter).
	DetectorDeadAfter int

	// SweepInterval runs the continuous anti-entropy sweeper on a
	// ticker (see sweeper.go); each tick converges a bounded window of
	// the keyspace and resumes from a cursor. 0 disables the loop;
	// SweepTick remains callable.
	SweepInterval time.Duration
	// SweepKeysPerTick bounds the keys examined per tick (default 256).
	SweepKeysPerTick int

	// Shard, when set, runs the controller as one shard of a multi-
	// controller cluster: it owns only the given hash ranges of the
	// keyspace and answers operations on foreign keys with
	// ErrWrongShard (see shard.go). Nil runs the controller unsharded.
	Shard *ShardInfo
	// ClusterMapDoc is the signed cluster shard map document served at
	// /v2/cluster/map for routers; opaque to core, verified and
	// updated by the cluster coordinator (internal/cluster).
	ClusterMapDoc []byte

	// Standby boots the controller as a hot standby for its shard: it
	// dials the shard's drives with the CredentialEpoch-derived admin
	// accounts (never the factory credentials, and never taking over),
	// answers every client operation with ErrWrongShard, and waits for
	// Activate to promote it after it wins the shard's lease
	// (internal/cluster/ha.go). Requires Shard.
	Standby bool
	// CredentialEpoch is the epoch whose derived admin accounts are
	// current on the drives (the cluster map's CredEpoch) — the
	// accounts a standby bootstrap authenticates with. 0 means the
	// factory bootstrap accounts are still installed.
	CredentialEpoch uint64

	// Clock supplies trusted time for policy freshness (§5.2); nil
	// uses the SGX-SDK-equivalent monotonic system time.
	Clock func() time.Time

	// DisableObs is the observability kill switch: no metrics registry,
	// no tracer, no audit log — the overhead baseline the obs benchmark
	// measures against. Instrumented code is nil-safe throughout, so
	// the switch costs no branches at the call sites.
	DisableObs bool
	// SlowOpThreshold dumps the span tree of requests at or over this
	// duration to the log; 0 selects 250ms, negative disables.
	SlowOpThreshold time.Duration
	// TraceSample head-samples self-initiated traces: 1-in-N requests
	// arriving without an X-Pesos-Trace id get one (0 or 1 = all).
	// Requests carrying an explicit id are always traced.
	TraceSample int
	// AuditDir enables the sealed audit decision log in this directory
	// (empty disables). Records every policy DENY plus sampled ALLOWs,
	// AEAD-sealed and hash-chained; see internal/obs/audit.go.
	AuditDir string
	// AuditSampleAllow seals one in N ALLOW decisions (0 = denies only).
	AuditSampleAllow int
}

// Controller is one Pesos instance.
type Controller struct {
	cfg     Config
	cost    *enclave.CostModel
	epc     *enclave.EPC
	codec   *store.Codec
	secrets *attest.Secrets
	clock   func() time.Time

	drives *records.Drives
	// gcommit is the group-commit scheduler every drive write goes
	// through (one queue and one commit loop per drive; see
	// gcommit.go).
	gcommit *groupScheduler

	// detector is the drive-failure detector; deadMask is its
	// published verdict (bit i set = drive i dead), the single atomic
	// word placement() consults on every operation.
	detector *driveDetector
	deadMask atomic.Uint64
	// sweeper is the continuous anti-entropy sweeper's resumable state.
	sweeper *sweeperState
	// listOrder is every drive index, a listing's cover first, and
	// listCover the cover's size (listingCover). revivals counts drives
	// come back from dead, by the detector or MarkDriveLive;
	// sweptRevivals is its value when the last completed sweeper pass
	// started. See listingDrives.
	listOrder     []int
	listCover     int
	revivals      atomic.Uint64
	sweptRevivals atomic.Uint64

	// Background maintenance loop lifecycle (see startMaintenance).
	bgMu     sync.Mutex
	bgCancel context.CancelFunc
	bgWG     sync.WaitGroup

	policyCache *cache.Cache[string, *policy.Program]
	objectCache *cache.Cache[string, *store.Record]
	metaCache   *cache.Cache[string, *store.Meta]
	// residualCache memoizes session-bound partial evaluations per
	// (policy, op, session); PutPolicy clears it. See checkPolicy.
	residualCache *cache.Cache[string, *policy.Residual]

	// scanTokens seals v2 pagination tokens (see scan.go).
	scanTokens cipher.AEAD

	// ecCode is the Reed-Solomon code for the configured
	// (ECDataShards, ECParityShards) pair; nil when EC is off. Reads
	// of objects written under a different historical (k, m) build a
	// code on the fly (see layoutOf).
	ecCode *ec.Code

	// shard is the cluster sharding state; nil when unsharded.
	shard *shardState

	async *asyncState

	// commits serializes every mutation of a key, and holds a
	// transaction's read set shared against them (see keylock.go). It is
	// the one lock table: a streamed upload holds nothing while its body
	// arrives and takes commits only to plan and to commit.
	commits keyLocks

	mu       sync.Mutex
	sessions map[string]*Session
	closed   bool
	// sessionsSwept is when Session last dropped the idle sessions.
	sessionsSwept time.Time

	stats Stats
	// load is the per-range load histogram (see load.go).
	load loadState

	// Observability state (nil across the board under DisableObs; all
	// uses are nil-safe).
	registry   *obs.Registry
	tracer     *obs.Tracer
	traceStore *obs.TraceStore
	audit      *obs.AuditLog
	// opHist records per-operation request latency for /metrics.
	opHist map[string]*obs.Histogram
}

// Stats aggregates controller activity counters. Every field is a
// lock-free obs.Counter — one atomic word — so the hot paths pay a
// single uncontended atomic add instead of the former shared mutex,
// and the same words back both /v2/status and the Prometheus scrape
// (no dual counting).
type Stats struct {
	Puts                obs.Counter
	Gets                obs.Counter
	Deletes             obs.Counter
	Scans               obs.Counter // v2 scan pages served
	ScanFiltered        obs.Counter // scan entries suppressed by policy
	BatchOps            obs.Counter // operations carried by v2 batch requests
	Streams             obs.Counter // chunked streamed reads + writes
	PolicyChecks        obs.Counter
	PolicyDenials       obs.Counter
	TxCommits           obs.Counter
	TxAborts            obs.Counter
	ReadHedges          obs.Counter // hedge requests fired by the read engine
	CoalescedReads      obs.Counter // cache misses served by another miss's flight
	DecisionHits        obs.Counter // always 0 (no decision cache); kept because benchmark/counters.go reads it
	PolicyEvals         obs.Counter // clause-machine runs (checks not decided statically)
	ResidualHits        obs.Counter // checks served by a cached or page-reused residual
	IndexSkippedClauses obs.Counter // clauses pruned by session residuals (bind-time kills + object guards)
	WrongShard          obs.Counter // operations redirected to another shard
	GroupBatches        obs.Counter // drive batches shipped by the group scheduler (merged or not)
	GroupedWrites       obs.Counter // write groups that shared a merged drive batch
	TrailingFlushes     obs.Counter // always 0 (every commit ships write-through); kept because benchmark/counters.go reads it
	ReadBytes           obs.Counter // payload bytes served to readers
	WriteBytes          obs.Counter // payload bytes accepted from writers
	Repairs             obs.Counter // objects re-replicated by repair (on-demand or sweep)
	RepairSweeps        obs.Counter // full anti-entropy keyspace passes completed
	RepairBytes         obs.Counter // record bytes rewritten by repair / re-replication
	SweepTicks          obs.Counter // incremental sweeper ticks executed
	DriveDeaths         obs.Counter // detector transitions into the dead state
	DriveRevives        obs.Counter // dead drives revived by the detector
	AuditDropped        obs.Counter // audit records lost to a saturated queue
	ECObjects           obs.Counter // streamed objects stored erasure-coded
	ECParityBytes       obs.Counter // parity shard bytes written (the EC capacity overhead)
	ECDecodes           obs.Counter // stripes served through a parity reconstruction
	ECShardRepairs      obs.Counter // shards restored by repair (P2P copy or decode)
	RangeRejects        obs.Counter // drive range replies refused by checkRange
	ScanWidened         obs.Counter // listing rounds that asked past the cover
}

// StatsSnapshot is a point-in-time copy of the counters, field for
// field. Reading is not atomic across fields (each word individually
// exact) — the standard monitoring trade.
type StatsSnapshot struct {
	Puts                uint64
	Gets                uint64
	Deletes             uint64
	Scans               uint64
	ScanFiltered        uint64
	BatchOps            uint64
	Streams             uint64
	PolicyChecks        uint64
	PolicyDenials       uint64
	TxCommits           uint64
	TxAborts            uint64
	ReadHedges          uint64
	CoalescedReads      uint64
	DecisionHits        uint64
	PolicyEvals         uint64
	ResidualHits        uint64
	IndexSkippedClauses uint64
	WrongShard          uint64
	GroupBatches        uint64
	GroupedWrites       uint64
	TrailingFlushes     uint64
	ReadBytes           uint64
	WriteBytes          uint64
	Repairs             uint64
	RepairSweeps        uint64
	RepairBytes         uint64
	SweepTicks          uint64
	DriveDeaths         uint64
	DriveRevives        uint64
	AuditDropped        uint64
	ECObjects           uint64
	ECParityBytes       uint64
	ECDecodes           uint64
	ECShardRepairs      uint64
	RangeRejects        uint64
	ScanWidened         uint64
}

// Snapshot returns a copy of the counters.
func (s *Stats) Snapshot() StatsSnapshot {
	return StatsSnapshot{
		Puts: s.Puts.Load(), Gets: s.Gets.Load(), Deletes: s.Deletes.Load(),
		Scans: s.Scans.Load(), ScanFiltered: s.ScanFiltered.Load(),
		BatchOps: s.BatchOps.Load(), Streams: s.Streams.Load(),
		PolicyChecks: s.PolicyChecks.Load(), PolicyDenials: s.PolicyDenials.Load(),
		TxCommits: s.TxCommits.Load(), TxAborts: s.TxAborts.Load(),
		ReadHedges: s.ReadHedges.Load(), CoalescedReads: s.CoalescedReads.Load(),
		DecisionHits: s.DecisionHits.Load(), PolicyEvals: s.PolicyEvals.Load(),
		ResidualHits: s.ResidualHits.Load(), IndexSkippedClauses: s.IndexSkippedClauses.Load(),
		WrongShard:   s.WrongShard.Load(),
		GroupBatches: s.GroupBatches.Load(), GroupedWrites: s.GroupedWrites.Load(),
		TrailingFlushes: s.TrailingFlushes.Load(),
		ReadBytes:       s.ReadBytes.Load(), WriteBytes: s.WriteBytes.Load(),
		Repairs: s.Repairs.Load(), RepairSweeps: s.RepairSweeps.Load(),
		RepairBytes: s.RepairBytes.Load(), SweepTicks: s.SweepTicks.Load(),
		DriveDeaths: s.DriveDeaths.Load(), DriveRevives: s.DriveRevives.Load(),
		AuditDropped: s.AuditDropped.Load(),
		ECObjects:    s.ECObjects.Load(), ECParityBytes: s.ECParityBytes.Load(),
		ECDecodes: s.ECDecodes.Load(), ECShardRepairs: s.ECShardRepairs.Load(),
		RangeRejects: s.RangeRejects.Load(), ScanWidened: s.ScanWidened.Load(),
	}
}

// New bootstraps a controller: attest (when configured), connect to
// every drive, take exclusive control, and initialize caches sized
// against the EPC budget.
func New(ctx context.Context, cfg Config) (*Controller, error) {
	if len(cfg.Drives) == 0 {
		return nil, errors.New("core: no drives configured")
	}
	if cfg.Replicas <= 0 {
		cfg.Replicas = 1
	}
	if cfg.Replicas > len(cfg.Drives) {
		return nil, fmt.Errorf("core: %d replicas need at least that many drives, have %d",
			cfg.Replicas, len(cfg.Drives))
	}
	if cfg.EC {
		if cfg.ECDataShards == 0 {
			cfg.ECDataShards = 4
		}
		if cfg.ECParityShards == 0 {
			cfg.ECParityShards = 2
		}
		if cfg.ECMinBytes == 0 {
			cfg.ECMinBytes = 4 << 20
		}
		if cfg.ECDataShards+cfg.ECParityShards > len(cfg.Drives) {
			return nil, fmt.Errorf("core: ec %d+%d needs %d drives, have %d",
				cfg.ECDataShards, cfg.ECParityShards,
				cfg.ECDataShards+cfg.ECParityShards, len(cfg.Drives))
		}
	}

	if cfg.Standby && cfg.Shard == nil {
		return nil, errors.New("core: standby mode requires a shard configuration")
	}

	c := &Controller{cfg: cfg, sessions: make(map[string]*Session)}
	c.listOrder, c.listCover = listingCover(len(cfg.Drives), cfg.Replicas)
	if cfg.Shard != nil {
		info := *cfg.Shard
		info.Ranges = NormalizeRanges(info.Ranges)
		c.shard = newShardState(info, cfg.ClusterMapDoc, cfg.Standby)
	}

	c.clock = cfg.Clock
	if c.clock == nil {
		c.clock = time.Now
	}

	// Step 1: obtain runtime secrets — via remote attestation when an
	// attestation service is configured (§3.1 bootstrap), directly
	// otherwise.
	switch {
	case cfg.Attestation != nil && cfg.Enclave != nil:
		secrets, err := cfg.Attestation.AttestEnclave(cfg.Enclave)
		if err != nil {
			return nil, fmt.Errorf("core: attestation failed: %w", err)
		}
		c.secrets = secrets
	case cfg.Secrets != nil:
		c.secrets = cfg.Secrets
	default:
		return nil, errors.New("core: need either Attestation+Enclave or Secrets")
	}

	// Step 2: overhead model and EPC accounting.
	if cfg.Enclave != nil {
		c.epc = cfg.Enclave.EPC()
	} else {
		c.epc = enclave.NewEPC(0)
	}
	c.cost = enclave.DefaultCostModel(cfg.Enclave != nil, c.epc)

	var err error
	if c.codec, err = store.NewCodec(c.secrets.ObjectKey, cfg.Encrypt); err != nil {
		return nil, err
	}
	if cfg.EC {
		if c.ecCode, err = ec.New(cfg.ECDataShards, cfg.ECParityShards); err != nil {
			return nil, err
		}
	}
	if err := c.initScanTokens(); err != nil {
		return nil, err
	}

	// Step 3: connect to the drives with the provisioned factory
	// credentials and take exclusive control.
	if err := c.connectDrives(ctx); err != nil {
		return nil, err
	}
	c.gcommit = newGroupScheduler(c)

	// Step 4: caches, sized to the paper's defaults within the EPC.
	ocBytes := cfg.ObjectCacheBytes
	if ocBytes == 0 {
		ocBytes = 48 << 20
	}
	c.policyCache = cache.New[string, *policy.Program](cache.Config[*policy.Program]{
		BudgetBytes: policyCacheBytes,
		SizeOf:      func(p *policy.Program) int64 { return programSize(p) },
		EPC:         c.epc, Label: "policy-cache",
	})
	c.objectCache = cache.New[string, *store.Record](cache.Config[*store.Record]{
		BudgetBytes: ocBytes,
		SizeOf:      func(r *store.Record) int64 { return int64(len(r.Payload)) + 128 },
		EPC:         c.epc, Label: "object-cache",
	})
	c.metaCache = cache.New[string, *store.Meta](cache.Config[*store.Meta]{
		BudgetBytes: keyCacheBytes,
		SizeOf:      func(m *store.Meta) int64 { return int64(len(m.Key)+len(m.PolicyID)) + 96 },
		EPC:         c.epc, Label: "key-cache",
	})
	c.residualCache = cache.New[string, *policy.Residual](cache.Config[*policy.Residual]{
		BudgetBytes: residualCacheBytes,
		// Charge the residual's own estimate plus the key (policy
		// id + client fingerprint), which the sizer cannot see.
		SizeOf: func(r *policy.Residual) int64 { return r.SizeEstimate() + 160 },
		EPC:    c.epc, Label: "residual-cache",
	})

	// Step 5: failure detection and anti-entropy. The state always
	// exists (DetectorTick / SweepTick are callable on demand); the
	// background loops start only with intervals configured, and for a
	// standby only once Activate promotes it — a standby must not
	// write to drives it does not own.
	c.detector = newDriveDetector(c)
	c.sweeper = newSweeperState()
	if !cfg.Standby {
		c.startMaintenance()
	}

	// Step 6: observability — metrics registry, tracer and the sealed
	// audit decision log (all skipped under the DisableObs kill switch).
	if err := c.initObs(); err != nil {
		c.Close()
		return nil, err
	}
	return c, nil
}

// policyCacheBytes budgets the policy cache: the paper's 5 MB (§4.2),
// with no cap on the entry count.
const policyCacheBytes = 5 << 20

// keyCacheBytes budgets the key (metadata) cache: the paper's 600 KB
// (§4.2).
const keyCacheBytes = 600 << 10

// residualCacheBytes budgets the residual cache.
const residualCacheBytes = 1 << 20

// connectDrives dials every drive and, unless a standby, performs the
// exclusive takeover: replace all accounts with a single Pesos admin
// account derived from the attested admin seed (§3.1).
func (c *Controller) connectDrives(ctx context.Context) (err error) {
	if len(c.secrets.Drives) != len(c.cfg.Drives) {
		return fmt.Errorf("core: secrets cover %d drives, config has %d",
			len(c.secrets.Drives), len(c.cfg.Drives))
	}
	creds := make([]records.Credentials, len(c.cfg.Drives))
	for i, ep := range c.cfg.Drives {
		creds[i] = records.Credentials{Identity: c.secrets.Drives[i].Identity, Key: c.secrets.Drives[i].Key}
		if c.cfg.Standby {
			// A standby never holds factory credentials and never takes
			// over: it authenticates with the epoch-derived admin account
			// the active owner installed. Dialing does not authenticate
			// (HMACs are per-message), so bootstrap succeeds even if the
			// epoch advances before the first request.
			creds[i] = records.Credentials{
				Identity: adminIdentityForEpoch(c.cfg.CredentialEpoch),
				Key:      c.adminKeyForEpoch(ep.Name, c.cfg.CredentialEpoch),
			}
		}
	}
	cfg := records.Config{Codec: c.codec, Cost: c.cost, HedgeDelay: c.cfg.hedgeDelay,
		Hedges: &c.stats.ReadHedges, RangeRejects: &c.stats.RangeRejects, Widened: &c.stats.ScanWidened}
	if c.drives, err = records.Dial(ctx, cfg, c.cfg.Drives, creds); err != nil || c.cfg.Standby {
		return err
	}
	for i, ep := range c.cfg.Drives {
		adminKey := c.adminKeyFor(ep.Name)
		acl := wire.ACL{Identity: AdminIdentity, Key: adminKey, Perms: wire.PermAll}
		if err := c.drives.SetSecurity(ctx, i, []wire.ACL{acl}); err != nil {
			c.drives.Close()
			return fmt.Errorf("core: takeover of drive %s: %w", ep.Name, err)
		}
		c.drives.SetCredentials(i, records.Credentials{Identity: AdminIdentity, Key: adminKey})
	}
	return nil
}

// adminKeyFor derives the per-drive admin HMAC secret from the
// attestation-provisioned seed, so no long-term drive secret ever
// exists outside the enclave.
func (c *Controller) adminKeyFor(driveName string) []byte {
	mac := hmac.New(sha256.New, c.secrets.AdminSeed[:])
	mac.Write([]byte("drive-admin:"))
	mac.Write([]byte(driveName))
	return mac.Sum(nil)
}

// Stats returns the controller's counters.
func (c *Controller) Stats() *Stats { return &c.stats }

// EPC exposes the enclave memory accountant (for tests and GETLOG-
// style introspection).
func (c *Controller) EPC() *enclave.EPC { return c.epc }

// Cost exposes the overhead model.
func (c *Controller) Cost() *enclave.CostModel { return c.cost }

// CacheStats reports hit/miss/eviction counters of the controller
// caches.
func (c *Controller) CacheStats() map[string][3]uint64 {
	out := make(map[string][3]uint64, 4)
	h, m, e := c.policyCache.Stats()
	out["policy"] = [3]uint64{h, m, e}
	h, m, e = c.objectCache.Stats()
	out["object"] = [3]uint64{h, m, e}
	h, m, e = c.metaCache.Stats()
	out["meta"] = [3]uint64{h, m, e}
	h, m, e = c.residualCache.Stats()
	out["residual"] = [3]uint64{h, m, e}
	return out
}

// DriveLatency is one drive pool's observed read-latency estimate,
// the signal the hedged read engine orders replicas by.
type DriveLatency struct {
	Name    string
	EWMA    time.Duration
	P95     time.Duration
	Samples uint64
}

// DriveLatencies reports the per-drive read-latency estimates.
func (c *Controller) DriveLatencies() []DriveLatency {
	out := make([]DriveLatency, c.drives.Len())
	for i := range out {
		e, p95, n := c.drives.Latency(i)
		out[i] = DriveLatency{Name: c.drives.Name(i), EWMA: e, P95: p95, Samples: n}
	}
	return out
}

// DropCaches empties the meta, object, policy and residual caches.
// Benchmarks and tests use it to force cache-miss reads; it is safe
// (though pointless) on a live controller — drive state is untouched.
func (c *Controller) DropCaches() {
	c.metaCache.Clear()
	c.objectCache.Clear()
	c.policyCache.Clear()
	c.residualCache.Clear()
}

// Close shuts the controller down: the asynchronous workers drain,
// drive connections close.
func (c *Controller) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	c.stopMaintenance()
	c.mu.Lock()
	async := c.async
	c.async = nil
	c.mu.Unlock()
	if async != nil {
		close(async.queue)
		async.wg.Wait()
	}
	// Committer shutdown is two-phase: reject queued groups first,
	// close the drive connections (which unblocks any in-flight merged
	// batch), then wait for the drives' commit loops to exit.
	c.gcommit.shutdown()
	c.mu.Lock()
	c.drives.Close()
	c.mu.Unlock()
	c.gcommit.wait()
	c.audit.Close()
	return nil
}

// programSize estimates a compiled policy's resident footprint.
func programSize(p *policy.Program) int64 {
	data, err := p.Marshal()
	if err != nil {
		return 256
	}
	return int64(len(data)) + 64
}
