// Package testbed assembles complete in-process Pesos deployments:
// Kinetic drives served over TLS, an attestation service, one or more
// controllers bootstrapped through remote attestation, and REST
// clients with their own certificates. Integration tests, the
// examples and the benchmark harness all build on it; the networking
// runs over in-memory pipes by default so the full stack — TLS
// handshakes included — exercises exactly the deployed code paths
// without touching the host network.
//
// Two deployment shapes: Start boots the classic single controller;
// StartMulti boots an M-controller sharded cluster — one shared
// attestation service and CA, a uniform signed shard map, a common
// drive P2P namespace (so live handoff can device-to-device copy
// across controllers) — reached through cluster.Router clients.
package testbed

import (
	"context"
	"crypto/rand"
	"crypto/tls"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/enclave"
	"repro/internal/enclave/attest"
	"repro/internal/kinetic"
	"repro/internal/netx"
	"repro/internal/tlsutil"
)

// Options configures a cluster.
type Options struct {
	// Drives is the number of Kinetic drives (default 1). In
	// StartMulti this is per controller.
	Drives int
	// Media builds the media model per drive; nil means simulator.
	Media func(i int) kinetic.MediaModel
	// Enclave runs the controller inside the simulated enclave
	// ("Pesos" configuration); false is the native baseline.
	Enclave bool
	// Replicas is the total copies per object (default 1).
	Replicas int
	// ObjectCacheBytes overrides the controller's object cache budget
	// (0 = paper default); benchmarks shrink it to force cache-hostile
	// read workloads.
	ObjectCacheBytes int64
	// Clock overrides trusted time (for time-based policy tests).
	Clock func() time.Time
	// StandbysPerShard boots this many hot standbys per shard in
	// StartMulti; they attach to the shard's drives (dialing with the
	// active's derived admin account) and serve nothing until a
	// takeover activates them.
	StandbysPerShard int
	// DetectorInterval / SweepInterval run the drive-failure detector
	// and the incremental anti-entropy sweeper on background tickers
	// (0 leaves both manual — chaos tests and benches drive the loops
	// themselves for determinism; daemons set them).
	DetectorInterval time.Duration
	SweepInterval    time.Duration
	// DetectorProbeTimeout / DetectorDeadAfter tune the failure
	// detector (0 = core defaults).
	DetectorProbeTimeout time.Duration
	DetectorDeadAfter    int
	// SweepKeysPerTick bounds one sweeper tick (0 = core default).
	SweepKeysPerTick int
	// EC enables the erasure-coded storage class for streamed objects
	// of at least ECMinBytes (0 = core default 4 MB), striped 4+2.
	EC         bool
	ECMinBytes int64
	// DisableObs turns the observability layer off (no registry,
	// tracer or audit log), as `pesos -obs=off` does; an overhead
	// measurement compares against it.
	DisableObs bool
	// AuditDir enables the sealed audit decision log in this directory.
	AuditDir string
	// SlowOpThreshold overrides the slow-op trace dump threshold
	// (0 = core default, negative disables).
	SlowOpThreshold time.Duration
	// TraceSample head-samples self-initiated traces 1-in-N (0 or
	// 1 = all; explicit X-Pesos-Trace ids are always traced).
	TraceSample int
}

// env is the deployment-wide substrate nodes share: one CA, one
// platform, one attestation service, one drive P2P namespace and one
// secret material set (object encryption key, admin seed, cluster map
// key) — exactly what a real multi-controller Pesos deployment
// provisions once.
type env struct {
	CA       *tlsutil.CA
	Platform *enclave.Platform
	Attest   *attest.Service

	objectKey [32]byte
	adminSeed [32]byte
	mapKey    [32]byte

	p2pMu sync.Mutex
	p2p   map[string]*kinetic.Drive
}

func newEnv() (*env, error) {
	e := &env{p2p: make(map[string]*kinetic.Drive)}
	var err error
	if e.CA, err = tlsutil.NewCA("pesos-testbed-ca"); err != nil {
		return nil, err
	}
	if e.Platform, err = enclave.NewPlatform(); err != nil {
		return nil, err
	}
	e.Attest = attest.NewService(e.Platform.AttestationPublicKey())
	for _, k := range []*[32]byte{&e.objectKey, &e.adminSeed, &e.mapKey} {
		if _, err := rand.Read(k[:]); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// registerDrive adds a drive to the shared P2P namespace.
func (e *env) registerDrive(d *kinetic.Drive) {
	e.p2pMu.Lock()
	e.p2p[d.Name()] = d
	e.p2pMu.Unlock()
}

// p2pDial resolves a peer drive anywhere in the deployment — also
// across controllers, which is what lets a shard handoff push records
// drive-to-drive without either controller relaying payloads.
func (e *env) p2pDial(peer string) (kinetic.P2PTarget, error) {
	e.p2pMu.Lock()
	d, ok := e.p2p[peer]
	e.p2pMu.Unlock()
	if !ok {
		return nil, fmt.Errorf("testbed: unknown peer drive %q", peer)
	}
	return d, nil
}

// driveSet is one shard's drive substrate: the drives, their wire
// servers and listeners. In HA deployments the active and its
// standbys share one set — the drives outlive any single controller.
type driveSet struct {
	drives  []*kinetic.Drive
	servers []*kinetic.Server
	lns     []*netx.Listener
}

// newDriveSet builds and serves the named drives against the shared
// environment.
func newDriveSet(e *env, driveNames []string, opts Options) (*driveSet, error) {
	ds := &driveSet{}
	for i, dn := range driveNames {
		var media kinetic.MediaModel
		if opts.Media != nil {
			media = opts.Media(i)
		}
		drive := kinetic.NewDrive(kinetic.Config{
			Name:    dn,
			Media:   media,
			P2PDial: e.p2pDial,
		})
		e.registerDrive(drive)
		ln := netx.NewListener(dn)
		id, err := e.CA.IssueServer(dn, dn)
		if err != nil {
			ds.close()
			return nil, err
		}
		ds.drives = append(ds.drives, drive)
		ds.lns = append(ds.lns, ln)
		ds.servers = append(ds.servers, kinetic.Serve(drive, ln, tlsutil.ServerOnlyConfig(id)))
	}
	return ds, nil
}

// close stops the drives' servers, then returns the drives' record
// memory to the OS.
func (ds *driveSet) close() {
	for _, s := range ds.servers {
		s.Close()
	}
	for _, ln := range ds.lns {
		ln.Close()
	}
	for _, d := range ds.drives {
		d.Close()
	}
}

// Cluster is one running controller deployment (one node of a
// multi-controller cluster, or the whole thing in single mode).
type Cluster struct {
	CA       *tlsutil.CA
	Platform *enclave.Platform
	Attest   *attest.Service
	Enclave  *enclave.Enclave

	Drives       []*kinetic.Drive
	driveServers []*kinetic.Server
	driveLns     []*netx.Listener
	driveLinks   []*netx.Link
	ownsDrives   bool

	Controller *core.Controller
	REST       *core.RESTServer

	name      string
	objectKey [32]byte
	adminSeed [32]byte
	restLn    *netx.Listener
	httpSrv   *http.Server
	serverID  *tlsutil.Identity
	killed    sync.Once
}

// Name returns the node's endpoint name.
func (c *Cluster) Name() string { return c.name }

// Start builds and boots a single-controller cluster.
func Start(opts Options) (*Cluster, error) {
	e, err := newEnv()
	if err != nil {
		return nil, err
	}
	driveNames := make([]string, max(opts.Drives, 1))
	for i := range driveNames {
		driveNames[i] = fmt.Sprintf("kinetic-%d", i)
	}
	return startNode(e, "pesos", driveNames, opts, nil, nil)
}

// startNode boots one controller with fresh drives against the shared
// environment. shard/mapDoc configure cluster sharding (nil/nil for a
// single-controller deployment).
func startNode(e *env, name string, driveNames []string, opts Options, shard *core.ShardInfo, mapDoc []byte) (*Cluster, error) {
	ds, err := newDriveSet(e, driveNames, opts)
	if err != nil {
		return nil, err
	}
	return bootNode(e, name, ds, true, opts, shard, mapDoc, false, 0)
}

// bootNode boots one controller against an existing drive substrate.
// ownsDrives decides whether Close tears the drives down (the active
// that created them) or leaves them (a standby sharing them). standby
// and credEpoch configure hot-standby mode.
func bootNode(e *env, name string, ds *driveSet, ownsDrives bool, opts Options, shard *core.ShardInfo, mapDoc []byte, standby bool, credEpoch uint64) (*Cluster, error) {
	if opts.Replicas <= 0 {
		opts.Replicas = 1
	}
	c := &Cluster{
		CA: e.CA, Platform: e.Platform, Attest: e.Attest, name: name,
		Drives: ds.drives, driveServers: ds.servers, driveLns: ds.lns,
		ownsDrives: ownsDrives, objectKey: e.objectKey, adminSeed: e.adminSeed,
	}

	// Runtime secrets: per-node TLS identity, deployment-shared object
	// encryption key, admin seed and cluster map key.
	var err error
	c.serverID, err = e.CA.IssueServer(name, name)
	if err != nil {
		c.Close()
		return nil, err
	}
	certPEM, keyPEM, err := c.serverID.EncodePEM()
	if err != nil {
		c.Close()
		return nil, err
	}
	secrets := &attest.Secrets{
		TLSCertPEM: certPEM, TLSKeyPEM: keyPEM,
		ObjectKey: e.objectKey, AdminSeed: e.adminSeed, MapKey: e.mapKey,
	}
	for i := range c.Drives {
		secrets.Drives = append(secrets.Drives, attest.DriveCredential{
			Address:  c.Drives[i].Name(),
			Identity: kinetic.DefaultAdminIdentity,
			Key:      kinetic.DefaultAdminKey,
		})
	}

	// Controller config: drive dialers over the in-memory network,
	// optionally through TLS terminating inside the drive.
	cfg := core.Config{
		Replicas:             opts.Replicas,
		Encrypt:              true,
		ObjectCacheBytes:     opts.ObjectCacheBytes,
		Clock:                opts.Clock,
		Shard:                shard,
		ClusterMapDoc:        mapDoc,
		Standby:              standby,
		CredentialEpoch:      credEpoch,
		DetectorInterval:     opts.DetectorInterval,
		DetectorProbeTimeout: opts.DetectorProbeTimeout,
		DetectorDeadAfter:    opts.DetectorDeadAfter,
		SweepInterval:        opts.SweepInterval,
		SweepKeysPerTick:     opts.SweepKeysPerTick,
		EC:                   opts.EC,
		ECMinBytes:           opts.ECMinBytes,
		DisableObs:           opts.DisableObs,
		AuditDir:             opts.AuditDir,
		SlowOpThreshold:      opts.SlowOpThreshold,
		TraceSample:          opts.TraceSample,
	}
	for i := range c.Drives {
		ln := c.driveLns[i]
		dn := c.Drives[i].Name()
		tlsCfg := tlsutil.ClientConfig(nil, e.CA.Pool(), dn)
		raw := func(ctx context.Context) (net.Conn, error) {
			conn, err := ln.DialContext(ctx)
			if err != nil {
				return nil, err
			}
			tc := tls.Client(conn, tlsCfg)
			if err := tc.HandshakeContext(ctx); err != nil {
				conn.Close()
				return nil, err
			}
			return tc, nil
		}
		// Every controller→drive path runs through a netx.Link so a
		// test can cut the directed path for this node without
		// touching the drive (other nodes keep their own links to the
		// same drive).
		link := &netx.Link{}
		c.driveLinks = append(c.driveLinks, link)
		dial := func(ctx context.Context) (net.Conn, error) {
			return link.Dial(ctx, raw)
		}
		cfg.Drives = append(cfg.Drives, core.DriveEndpoint{Name: dn, Dial: dial})
	}

	// Launch: the enclave configuration (Pesos) attests before it
	// gets secrets; the native configuration receives them directly.
	// The launch config is the node name, so every node of a sharded
	// cluster has its own measurement and secret registration.
	if opts.Enclave {
		image := []byte("pesos-controller-image-v1")
		config := []byte(name)
		c.Enclave = e.Platform.Launch(image, config, 0) // default EPC budget
		e.Attest.Register(c.Enclave.Measurement(), secrets)
		cfg.Enclave = c.Enclave
		cfg.Attestation = e.Attest
	} else {
		cfg.Secrets = secrets
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if c.Controller, err = core.New(ctx, cfg); err != nil {
		c.Close()
		return nil, err
	}

	// REST endpoint: mutual TLS over the in-memory network.
	c.REST = core.NewREST(c.Controller)
	c.restLn = netx.NewListener(name)
	srvCfg := tlsutil.ServerConfig(c.serverID, e.CA.Pool())
	c.httpSrv = c.REST.Server()
	go c.httpSrv.Serve(tls.NewListener(c.restLn, srvCfg))
	return c, nil
}

// NewClient issues a certificate for name and returns a REST client
// plus the identity (whose fingerprint names the principal in
// policies).
func (c *Cluster) NewClient(name string) (*client.Client, *tlsutil.Identity, error) {
	id, err := c.CA.IssueClient(name)
	if err != nil {
		return nil, nil, err
	}
	cl := client.New(client.Config{
		BaseURL: "https://" + c.name,
		TLS:     tlsutil.ClientConfig(id, c.CA.Pool(), c.name),
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			return c.restLn.DialContext(ctx)
		},
	})
	return cl, id, nil
}

// Fingerprint returns the policy-language principal of an identity.
func Fingerprint(id *tlsutil.Identity) string {
	return tlsutil.KeyFingerprint(&id.Key.PublicKey)
}

// Kill deterministically fails the node: the REST endpoint and
// controller go away mid-flight, exactly like a crashed process. The
// drives stay up — they are the shard's shared substrate, which a hot
// standby keeps serving after takeover. Idempotent.
func (c *Cluster) Kill() {
	c.killed.Do(func() {
		if c.httpSrv != nil {
			c.httpSrv.Close()
		}
		if c.restLn != nil {
			c.restLn.Close()
		}
		if c.Controller != nil {
			c.Controller.Close()
		}
	})
}

// Close tears the cluster down, including the drives when this node
// owns them.
func (c *Cluster) Close() {
	c.Kill()
	if c.ownsDrives {
		(&driveSet{drives: c.Drives, servers: c.driveServers, lns: c.driveLns}).close()
	}
}

// MultiCluster is an M-controller sharded deployment: the shared
// environment, one node per shard (plus optional hot standbys), and
// the live shard map.
type MultiCluster struct {
	env    *env
	CA     *tlsutil.CA
	Attest *attest.Service
	Nodes  []*Cluster
	// Standbys maps shard id to its hot-standby nodes (when
	// Options.StandbysPerShard > 0).
	Standbys map[int][]*Cluster
	// MapKey authenticates the cluster's shard map documents.
	MapKey [32]byte

	mu sync.Mutex
	m  *cluster.ShardMap

	haMu sync.Mutex
	ha   map[string]*haRun

	// attestGates holds the per-node chaos gates on the attestation
	// service (lease + map traffic); see PartitionAttest.
	attestMu    sync.Mutex
	attestGates map[string]*attestGate
}

// haRun is one node's running lease supervisor.
type haRun struct {
	node   *cluster.HANode
	cancel context.CancelFunc
	done   chan struct{}
}

// StartMulti boots an n-controller sharded cluster; opts applies per
// node (opts.Drives is drives per controller). The keyspace is
// partitioned uniformly at epoch 1 and the signed map published on
// the attestation service.
func StartMulti(n int, opts Options) (*MultiCluster, error) {
	if n <= 0 {
		n = 2
	}
	e, err := newEnv()
	if err != nil {
		return nil, err
	}
	if opts.Drives <= 0 {
		opts.Drives = 1
	}
	if opts.Replicas <= 0 {
		opts.Replicas = 1
	}

	shards := make([]cluster.Shard, n)
	for i := 0; i < n; i++ {
		driveNames := make([]string, opts.Drives)
		for j := range driveNames {
			driveNames[j] = fmt.Sprintf("kinetic-%d-%d", i, j)
		}
		shards[i] = cluster.Shard{
			ID:       i,
			Endpoint: fmt.Sprintf("pesos-%d", i),
			Drives:   driveNames,
			Replicas: opts.Replicas,
		}
	}
	m, err := cluster.UniformMap(shards)
	if err != nil {
		return nil, err
	}
	doc, err := cluster.SignMap(e.mapKey, m)
	if err != nil {
		return nil, err
	}
	e.Attest.PublishShardMap(doc)

	mc := &MultiCluster{
		env: e, CA: e.CA, Attest: e.Attest, MapKey: e.mapKey, m: m,
		Standbys: make(map[int][]*Cluster), ha: make(map[string]*haRun),
	}
	for i := 0; i < n; i++ {
		info, err := m.InfoFor(i)
		if err != nil {
			mc.Close()
			return nil, err
		}
		ds, err := newDriveSet(e, shards[i].Drives, opts)
		if err != nil {
			mc.Close()
			return nil, err
		}
		node, err := bootNode(e, shards[i].Endpoint, ds, true, opts, info, doc, false, 0)
		if err != nil {
			ds.close()
			mc.Close()
			return nil, err
		}
		mc.Nodes = append(mc.Nodes, node)
		// Standbys boot after the active: it has installed the derived
		// admin account they dial with (dialing does not authenticate,
		// but booting in order keeps the first real request working).
		for j := 0; j < opts.StandbysPerShard; j++ {
			sbInfo, err := m.InfoFor(i)
			if err != nil {
				mc.Close()
				return nil, err
			}
			sb, err := bootNode(e, fmt.Sprintf("%s-s%d", shards[i].Endpoint, j), ds, false, opts, sbInfo, doc, true, 0)
			if err != nil {
				mc.Close()
				return nil, err
			}
			mc.Standbys[i] = append(mc.Standbys[i], sb)
		}
	}
	return mc, nil
}

// Map returns the current shard map.
func (mc *MultiCluster) Map() *cluster.ShardMap {
	mc.mu.Lock()
	defer mc.mu.Unlock()
	return mc.m
}

// nodeByEndpoint finds the node serving an endpoint name, standbys
// included (after a takeover the map names a standby's endpoint).
func (mc *MultiCluster) nodeByEndpoint(ep string) *Cluster {
	for _, n := range mc.Nodes {
		if n.name == ep {
			return n
		}
	}
	for _, sbs := range mc.Standbys {
		for _, sb := range sbs {
			if sb.name == ep {
				return sb
			}
		}
	}
	return nil
}

// Node finds any node (active or standby) by name.
func (mc *MultiCluster) Node(name string) *Cluster { return mc.nodeByEndpoint(name) }

// mapSource reads the current signed shard map from the attestation
// service.
func (mc *MultiCluster) mapSource() cluster.MapSource {
	return cluster.MapSourceFunc(func(ctx context.Context) ([]byte, error) {
		doc, ok := mc.Attest.ShardMap()
		if !ok {
			return nil, fmt.Errorf("testbed: no shard map published")
		}
		return doc, nil
	})
}

// adoptDoc installs a newly signed shard map as the deployment's
// current one: verified into mc.m and published on the attestation
// service.
func (mc *MultiCluster) adoptDoc(doc []byte) error {
	m, err := cluster.VerifyMap(mc.MapKey, doc)
	if err != nil {
		return err
	}
	mc.mu.Lock()
	if mc.m == nil || m.Epoch > mc.m.Epoch {
		mc.m = m
	}
	mc.mu.Unlock()
	mc.Attest.PublishShardMap(doc)
	// Distribute immediately (the coordinator role Handoff plays for
	// its "others"): every shard must answer listings under the new
	// epoch. Both calls are monotonic no-ops on up-to-date nodes and
	// harmless on dead ones.
	for _, n := range mc.Nodes {
		n.Controller.SetClusterMapDoc(doc)
		n.Controller.AdvanceEpoch(m.Epoch)
	}
	for _, sbs := range mc.Standbys {
		for _, sb := range sbs {
			sb.Controller.SetClusterMapDoc(doc)
			sb.Controller.AdvanceEpoch(m.Epoch)
		}
	}
	return nil
}

// StartHA launches a lease supervisor for every active and standby
// node: actives renew, standbys heartbeat/warm and race to take over
// dead shards. ttl is the lease TTL (failover detection time).
func (mc *MultiCluster) StartHA(ttl time.Duration) error {
	for i, node := range mc.Nodes {
		if err := mc.startHANode(node, i, true, ttl); err != nil {
			return err
		}
	}
	for shardID, sbs := range mc.Standbys {
		for _, sb := range sbs {
			if err := mc.startHANode(sb, shardID, false, ttl); err != nil {
				return err
			}
		}
	}
	return nil
}

func (mc *MultiCluster) startHANode(c *Cluster, shardID int, active bool, ttl time.Duration) error {
	gate := mc.attestGateFor(c.name)
	n, err := cluster.NewHANode(cluster.HAConfig{
		ShardID:    shardID,
		Name:       c.name,
		Endpoint:   c.name,
		Controller: c.Controller,
		Leases:     gatedLeases{gate: gate, inner: cluster.ServiceLeases{S: mc.Attest}},
		Source:     gatedSource{gate: gate, inner: mc.mapSource()},
		Key:        mc.MapKey,
		Publish:    mc.adoptDoc,
		TTL:        ttl,
		Active:     active,
	})
	if err != nil {
		return err
	}
	ctx, cancel := context.WithCancel(context.Background())
	run := &haRun{node: n, cancel: cancel, done: make(chan struct{})}
	mc.haMu.Lock()
	mc.ha[c.name] = run
	mc.haMu.Unlock()
	go func() {
		defer close(run.done)
		n.Run(ctx)
	}()
	return nil
}

// HANodeFor returns a node's lease supervisor (nil when StartHA has
// not covered it).
func (mc *MultiCluster) HANodeFor(name string) *cluster.HANode {
	mc.haMu.Lock()
	defer mc.haMu.Unlock()
	if run, ok := mc.ha[name]; ok {
		return run.node
	}
	return nil
}

// StopHAFor halts one node's lease supervisor without touching the
// node itself — an active that stops renewing is the "silently wedged
// process" a lease exists to detect.
func (mc *MultiCluster) StopHAFor(name string) {
	mc.haMu.Lock()
	run, ok := mc.ha[name]
	delete(mc.ha, name)
	mc.haMu.Unlock()
	if ok {
		run.cancel()
		<-run.done
	}
}

// StopHA halts every lease supervisor.
func (mc *MultiCluster) StopHA() {
	mc.haMu.Lock()
	runs := mc.ha
	mc.ha = make(map[string]*haRun)
	mc.haMu.Unlock()
	for _, run := range runs {
		run.cancel()
	}
	for _, run := range runs {
		<-run.done
	}
}

// KillNode crash-fails a node: its lease supervisor stops (so the
// lease expires rather than being gracefully handed over), its REST
// endpoint and controller die, its drives stay up for the standby.
func (mc *MultiCluster) KillNode(name string) {
	mc.StopHAFor(name)
	if n := mc.nodeByEndpoint(name); n != nil {
		n.Kill()
	}
}

// WaitForOwner polls the published map until shardID's endpoint
// differs from old, returning the new owner's endpoint — how a test
// observes a completed takeover.
func (mc *MultiCluster) WaitForOwner(ctx context.Context, shardID int, old string) (string, error) {
	for {
		doc, ok := mc.Attest.ShardMap()
		if ok {
			if m, err := cluster.VerifyMap(mc.MapKey, doc); err == nil {
				if s := m.ShardByID(shardID); s != nil && s.Endpoint != old {
					return s.Endpoint, nil
				}
			}
		}
		select {
		case <-ctx.Done():
			return "", ctx.Err()
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// NewBalancer wires a load autobalancer to this deployment: it polls
// every shard owner's load histogram and executes planned moves
// through live handoff.
func (mc *MultiCluster) NewBalancer(cfg cluster.BalancerConfig) *cluster.Balancer {
	poll := func(ctx context.Context) (*cluster.ShardMap, []cluster.ShardLoad, error) {
		mc.mu.Lock()
		m := mc.m
		mc.mu.Unlock()
		loads := make([]cluster.ShardLoad, 0, len(m.Shards))
		for i := range m.Shards {
			s := &m.Shards[i]
			node := mc.nodeByEndpoint(s.Endpoint)
			if node == nil {
				return nil, nil, fmt.Errorf("testbed: unknown shard endpoint %q", s.Endpoint)
			}
			ls := node.Controller.LoadStatus()
			loads = append(loads, cluster.ShardLoad{ShardID: s.ID, Buckets: ls.Buckets})
		}
		return m, loads, nil
	}
	execute := func(ctx context.Context, mv cluster.Move) error {
		_, err := mc.Handoff(ctx, mv.SrcID, mv.DstID, mv.Range)
		return err
	}
	return cluster.NewBalancer(cfg, poll, execute)
}

// NewRouter issues a client identity and returns a cluster router
// dispatching over the in-memory network, refreshing its map from the
// attestation service.
func (mc *MultiCluster) NewRouter(name string) (*cluster.Router, *tlsutil.Identity, error) {
	id, err := mc.CA.IssueClient(name)
	if err != nil {
		return nil, nil, err
	}
	r, err := cluster.NewRouter(cluster.RouterConfig{
		Key: mc.MapKey,
		Source: cluster.MapSourceFunc(func(ctx context.Context) ([]byte, error) {
			doc, ok := mc.Attest.ShardMap()
			if !ok {
				return nil, fmt.Errorf("testbed: no shard map published")
			}
			return doc, nil
		}),
		NewClient: func(s cluster.Shard) (*client.Client, error) {
			node := mc.nodeByEndpoint(s.Endpoint)
			if node == nil {
				return nil, fmt.Errorf("testbed: unknown shard endpoint %q", s.Endpoint)
			}
			return client.New(client.Config{
				BaseURL: "https://" + s.Endpoint,
				TLS:     tlsutil.ClientConfig(id, mc.CA.Pool(), s.Endpoint),
				DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
					return node.restLn.DialContext(ctx)
				},
			}), nil
		},
	})
	if err != nil {
		return nil, nil, err
	}
	return r, id, nil
}

// Handoff live-moves hash range r from shard srcID to shard dstID and
// installs the successor map as the cluster's current one.
func (mc *MultiCluster) Handoff(ctx context.Context, srcID, dstID int, r core.HashRange) (*core.Manifest, error) {
	mc.mu.Lock()
	m := mc.m
	mc.mu.Unlock()
	srcShard, dstShard := m.ShardByID(srcID), m.ShardByID(dstID)
	if srcShard == nil || dstShard == nil {
		return nil, fmt.Errorf("testbed: handoff between unknown shards %d -> %d", srcID, dstID)
	}
	src := mc.nodeByEndpoint(srcShard.Endpoint)
	dst := mc.nodeByEndpoint(dstShard.Endpoint)
	if src == nil || dst == nil {
		return nil, fmt.Errorf("testbed: handoff between unknown shards %d -> %d", srcID, dstID)
	}
	var others []*core.Controller
	for _, n := range mc.Nodes {
		if n != src && n != dst {
			others = append(others, n.Controller)
		}
	}
	next, manifest, err := cluster.Handoff(ctx, cluster.HandoffPlan{
		Map: m, Key: mc.MapKey,
		SrcID: srcID, DstID: dstID, Range: r,
		Src: src.Controller, Dst: dst.Controller, Others: others,
		Publish: func(doc []byte) error {
			mc.Attest.PublishShardMap(doc)
			return nil
		},
	})
	// Past the adopt the handoff is authoritative even when a later
	// step reported an error: adopt the successor map whenever one
	// came back.
	if next != nil {
		mc.mu.Lock()
		mc.m = next
		mc.mu.Unlock()
	}
	if err != nil {
		return manifest, err
	}
	return manifest, nil
}

// Close tears the whole deployment down.
func (mc *MultiCluster) Close() {
	mc.StopHA()
	for _, sbs := range mc.Standbys {
		for _, sb := range sbs {
			sb.Close()
		}
	}
	for _, n := range mc.Nodes {
		n.Close()
	}
}
