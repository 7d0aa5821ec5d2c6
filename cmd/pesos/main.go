// Command pesos runs the Pesos controller daemon: it takes exclusive
// control of a set of Kinetic drives and serves the policy-enforcing
// REST interface over mutual TLS.
//
// State directory: on first start with -init, the daemon creates a
// certificate authority, the controller's serving identity and the
// runtime secret bundle (object encryption key, per-drive admin seed)
// under -state. In a production deployment those secrets would be
// released by the attestation service only to a measured enclave
// (see internal/enclave/attest and the testbed); the file-based path
// exists so the daemon can run across processes and machines.
//
// Usage:
//
//	pesos -state ./state -init -drives 127.0.0.1:8123,127.0.0.1:8124
//	pesos -state ./state -listen :8443 -drives 127.0.0.1:8123,127.0.0.1:8124
//	pesos -state ./state -issue-client alice      # mint a client cert
package main

import (
	"context"
	"crypto/rand"
	"crypto/tls"
	"crypto/x509"
	"encoding/json"
	"encoding/pem"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/enclave/attest"
	"repro/internal/kinetic"
	"repro/internal/kinetic/kclient"
	"repro/internal/obs"
	"repro/internal/tlsutil"
)

// options is what the command line says: a core.Config the controller
// flags bind onto directly, the deployment around it, and the one-shot
// modes that exit instead of serving.
type options struct {
	cfg                                              core.Config
	state, host, listen, obsListen, drives, shardMap string
	driveTLS                                         bool
	shardID                                          int
	initState                                        bool
	issueClient, signMap                             string
}

// parseFlags parses the command line (without the program name).
func parseFlags(args []string) (*options, error) {
	o := &options{}
	cfg := &o.cfg
	fs := flag.NewFlagSet("pesos", flag.ContinueOnError)
	fs.StringVar(&o.state, "state", "./pesos-state", "state directory (CA, identities, secrets)")
	fs.BoolVar(&o.initState, "init", false, "initialize the state directory and exit")
	fs.StringVar(&o.issueClient, "issue-client", "", "issue a client certificate with this name and exit")
	fs.StringVar(&o.listen, "listen", ":8443", "REST listen address")
	fs.StringVar(&o.drives, "drives", "", "comma-separated drive addresses (host:port)")
	fs.BoolVar(&o.driveTLS, "drive-tls", false, "connect to drives over TLS")
	fs.IntVar(&cfg.Replicas, "replicas", 1, "copies per object")
	fs.BoolVar(&cfg.EC, "ec", false, "erasure-code large streamed objects (Reed-Solomon k+m) instead of full replication")
	fs.IntVar(&cfg.ECDataShards, "ec-k", 0, "data shards per EC stripe (0 = default 4)")
	fs.IntVar(&cfg.ECParityShards, "ec-m", 0, "parity shards per EC stripe (0 = default 2)")
	fs.Int64Var(&cfg.ECMinBytes, "ec-min-bytes", 0, "minimum streamed object size for erasure coding; smaller objects stay replicated (0 = default 4 MiB)")
	noEncrypt := fs.Bool("no-encrypt", false, "disable payload encryption (baseline)")
	fs.StringVar(&o.host, "host", "localhost", "hostname in the serving certificate")
	fs.StringVar(&o.shardMap, "shard-map", "", "signed cluster shard map file; runs the controller as one shard")
	fs.IntVar(&o.shardID, "shard-id", 0, "this controller's shard id in the map (with -shard-map)")
	fs.StringVar(&o.signMap, "sign-map", "", "sign a plain shard map JSON file with the state's map key, print the signed document, and exit")
	fs.DurationVar(&cfg.SweepInterval, "repair-interval", 0, "run the incremental anti-entropy sweeper on this tick interval; each tick examines a bounded slice of the keyspace from a resumable cursor (0 = off)")
	fs.DurationVar(&cfg.DetectorInterval, "detect-interval", 0, "probe drives for failure detection this often; dead drives are routed around and re-replicated onto spares (0 = off)")
	fs.IntVar(&cfg.SweepKeysPerTick, "sweep-keys", 0, "keys examined per sweeper tick (0 = default 256)")
	obsMode := fs.String("obs", "on", "observability layer (metrics, tracing, audit): on or off")
	fs.StringVar(&o.obsListen, "obs-listen", "", "plain-HTTP observability listener for /metrics and loopback pprof (empty = API port only)")
	fs.StringVar(&cfg.AuditDir, "audit-dir", "", "directory for the sealed audit decision log (empty = disabled)")
	fs.IntVar(&cfg.AuditSampleAllow, "audit-sample-allow", 0, "record 1-in-N policy ALLOW decisions in the audit log (0 = denies only)")
	fs.DurationVar(&cfg.SlowOpThreshold, "slow-op", 0, "dump the span tree of requests at or over this duration (0 = default 250ms, negative = off)")
	fs.IntVar(&cfg.TraceSample, "trace-sample", 16, "trace 1-in-N requests that arrive without an X-Pesos-Trace id (explicit ids are always traced; 1 = trace everything)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	cfg.Encrypt = !*noEncrypt
	cfg.DisableObs = *obsMode == "off" || *obsMode == "false" || *obsMode == "0"
	return o, nil
}

func main() {
	o, err := parseFlags(os.Args[1:])
	if err != nil {
		os.Exit(2) // the flag set has said why
	}
	switch {
	case o.initState:
		if err = doInit(o.state, o.host); err == nil {
			fmt.Printf("state initialized in %s\n", o.state)
		}
	case o.issueClient != "":
		err = doIssueClient(o.state, o.issueClient)
	case o.signMap != "":
		err = doSignMap(o.state, o.signMap)
	default:
		err = run(o)
	}
	if err != nil {
		log.Fatalf("pesos: %v", err)
	}
}

// stateFiles names the layout of the state directory.
type stateFiles struct{ dir string }

func (s stateFiles) caCert() string     { return filepath.Join(s.dir, "ca-cert.pem") }
func (s stateFiles) caKey() string      { return filepath.Join(s.dir, "ca-key.pem") }
func (s stateFiles) serverCert() string { return filepath.Join(s.dir, "server-cert.pem") }
func (s stateFiles) serverKey() string  { return filepath.Join(s.dir, "server-key.pem") }
func (s stateFiles) secrets() string    { return filepath.Join(s.dir, "secrets.json") }

// doInit creates the CA, serving identity and secret bundle.
func doInit(dir, host string) error {
	sf := stateFiles{dir}
	if err := os.MkdirAll(dir, 0o700); err != nil {
		return err
	}
	if _, err := os.Stat(sf.caCert()); err == nil {
		return fmt.Errorf("state already initialized in %s", dir)
	}
	ca, err := tlsutil.NewCA("pesos-ca")
	if err != nil {
		return err
	}
	caPEM := pem.EncodeToMemory(&pem.Block{Type: "CERTIFICATE", Bytes: ca.DER})
	caKeyDER, err := x509.MarshalECPrivateKey(ca.Key)
	if err != nil {
		return err
	}
	caKeyPEM := pem.EncodeToMemory(&pem.Block{Type: "EC PRIVATE KEY", Bytes: caKeyDER})
	srv, err := ca.IssueServer("pesos", host, "127.0.0.1")
	if err != nil {
		return err
	}
	srvCert, srvKey, err := srv.EncodePEM()
	if err != nil {
		return err
	}
	var secrets attest.Secrets
	for _, key := range [][]byte{secrets.ObjectKey[:], secrets.AdminSeed[:], secrets.MapKey[:]} {
		if _, err := rand.Read(key); err != nil {
			return err
		}
	}
	secretsJSON, err := json.MarshalIndent(&secrets, "", "  ")
	if err != nil {
		return err
	}
	for file, data := range map[string][]byte{
		sf.caCert():     caPEM,
		sf.caKey():      caKeyPEM,
		sf.serverCert(): srvCert,
		sf.serverKey():  srvKey,
		sf.secrets():    secretsJSON,
	} {
		if err := os.WriteFile(file, data, 0o600); err != nil {
			return err
		}
	}
	return nil
}

// loadSecrets reads the runtime secret bundle back.
func loadSecrets(sf stateFiles) (*attest.Secrets, error) {
	data, err := os.ReadFile(sf.secrets())
	if err != nil {
		return nil, fmt.Errorf("read secrets (run -init first): %w", err)
	}
	return attest.UnmarshalSecrets(data)
}

// loadCA reads the CA back for issuing client certs and trust pools.
func loadCA(sf stateFiles) (*tlsutil.CA, error) {
	certPEM, err := os.ReadFile(sf.caCert())
	if err != nil {
		return nil, err
	}
	keyPEM, err := os.ReadFile(sf.caKey())
	if err != nil {
		return nil, err
	}
	cb, _ := pem.Decode(certPEM)
	kb, _ := pem.Decode(keyPEM)
	if cb == nil || kb == nil {
		return nil, fmt.Errorf("bad PEM in state directory")
	}
	cert, err := x509.ParseCertificate(cb.Bytes)
	if err != nil {
		return nil, err
	}
	key, err := x509.ParseECPrivateKey(kb.Bytes)
	if err != nil {
		return nil, err
	}
	return &tlsutil.CA{Cert: cert, Key: key, DER: cb.Bytes}, nil
}

// doIssueClient mints a client certificate under the state CA and
// prints its policy-language fingerprint.
func doIssueClient(dir, name string) error {
	sf := stateFiles{dir}
	ca, err := loadCA(sf)
	if err != nil {
		return err
	}
	id, err := ca.IssueClient(name)
	if err != nil {
		return err
	}
	certPEM, keyPEM, err := id.EncodePEM()
	if err != nil {
		return err
	}
	certFile := filepath.Join(dir, name+"-cert.pem")
	keyFile := filepath.Join(dir, name+"-key.pem")
	if err := os.WriteFile(certFile, certPEM, 0o600); err != nil {
		return err
	}
	if err := os.WriteFile(keyFile, keyPEM, 0o600); err != nil {
		return err
	}
	fmt.Printf("client certificate: %s\nclient key: %s\n", certFile, keyFile)
	fmt.Printf("policy principal: k'%s'\n", tlsutil.KeyFingerprint(&id.Key.PublicKey))
	return nil
}

// ensureMapKey provisions a cluster map key in an existing state
// directory that predates sharding (its secrets.json has a zero
// MapKey). The key is additive — nothing ever depended on the zero
// value — so upgrading in place is safe.
func ensureMapKey(sf stateFiles, secrets *attest.Secrets) error {
	if secrets.MapKey != ([32]byte{}) {
		return nil
	}
	if _, err := rand.Read(secrets.MapKey[:]); err != nil {
		return err
	}
	data, err := json.MarshalIndent(secrets, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(sf.secrets(), data, 0o600); err != nil {
		return fmt.Errorf("persist cluster map key: %w", err)
	}
	log.Printf("pesos: provisioned cluster map key in %s", sf.secrets())
	return nil
}

// doSignMap validates and signs a plain shard map spec under the
// state directory's cluster map key, writing the signed document to
// stdout (operators pipe it to a file and publish it on attestd).
func doSignMap(dir, specFile string) error {
	sf := stateFiles{dir}
	secrets, err := loadSecrets(sf)
	if err != nil {
		return err
	}
	if err := ensureMapKey(sf, secrets); err != nil {
		return err
	}
	spec, err := os.ReadFile(specFile)
	if err != nil {
		return err
	}
	var m cluster.ShardMap
	if err := json.Unmarshal(spec, &m); err != nil {
		return fmt.Errorf("parse map spec: %w", err)
	}
	doc, err := cluster.SignMap(secrets.MapKey, &m)
	if err != nil {
		return err
	}
	_, err = os.Stdout.Write(append(doc, '\n'))
	return err
}

// run boots the controller against TCP drives and serves REST.
func run(o *options) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	sf := stateFiles{o.state}
	if o.drives == "" {
		return fmt.Errorf("no drives configured (use -drives host:port,...)")
	}
	secrets, err := loadSecrets(sf)
	if err != nil {
		return err
	}
	serverCert, err := tls.LoadX509KeyPair(sf.serverCert(), sf.serverKey())
	if err != nil {
		return err
	}
	ca, err := loadCA(sf)
	if err != nil {
		return err
	}

	cfg := o.cfg
	cfg.Secrets = secrets
	if o.shardMap != "" {
		doc, err := os.ReadFile(o.shardMap)
		if err != nil {
			return fmt.Errorf("read shard map: %w", err)
		}
		if secrets.MapKey == ([32]byte{}) {
			return fmt.Errorf("state has no cluster map key; sign the map with this state first (pesos -sign-map provisions the key)")
		}
		m, err := cluster.VerifyMap(secrets.MapKey, doc)
		if err != nil {
			return fmt.Errorf("shard map: %w", err)
		}
		info, err := m.InfoFor(o.shardID)
		if err != nil {
			return err
		}
		cfg.Shard = info
		cfg.ClusterMapDoc = doc
		log.Printf("pesos: shard %d of %d, epoch %d, ranges %v",
			o.shardID, len(m.Shards), m.Epoch, info.Ranges)
	}
	secrets.Drives = nil
	for i, addr := range strings.Split(o.drives, ",") {
		addr = strings.TrimSpace(addr)
		var tlsCfg *tls.Config
		if o.driveTLS {
			tlsCfg = &tls.Config{RootCAs: ca.Pool(), ServerName: "kinetic", MinVersion: tls.VersionTLS12}
		}
		cfg.Drives = append(cfg.Drives, core.DriveEndpoint{
			Name: fmt.Sprintf("drive-%d@%s", i, addr),
			Dial: kclient.TCPDialer(addr, tlsCfg),
		})
		secrets.Drives = append(secrets.Drives, attest.DriveCredential{
			Address:  addr,
			Identity: kinetic.DefaultAdminIdentity,
			Key:      kinetic.DefaultAdminKey,
		})
	}

	bootCtx, cancel := context.WithTimeout(ctx, time.Minute)
	ctl, err := core.New(bootCtx, cfg)
	cancel()
	if err != nil {
		return err
	}
	defer ctl.Close()

	// Observability side listener: plain-HTTP /metrics for scrapers
	// without client certificates, pprof loopback-gated per request.
	// The mTLS API port serves /metrics and /v2/trace/{id} regardless.
	if o.obsListen != "" && ctl.Registry() != nil {
		obsSrv, err := obs.Serve(o.obsListen, ctl.Registry())
		if err != nil {
			return err
		}
		defer obsSrv.Close()
		log.Printf("pesos: observability endpoint on %s", o.obsListen)
	}

	tlsCfg := &tls.Config{
		Certificates: []tls.Certificate{serverCert},
		ClientAuth:   tls.RequireAndVerifyClientCert,
		ClientCAs:    ca.Pool(),
		MinVersion:   tls.VersionTLS12,
	}
	ln, err := net.Listen("tcp", o.listen)
	if err != nil {
		return err
	}
	srv := core.NewREST(ctl).Server()
	go srv.Serve(tls.NewListener(ln, tlsCfg))
	log.Printf("pesos: controller serving on %s, %d drives, replicas=%d, encrypt=%v",
		ln.Addr(), len(cfg.Drives), cfg.Replicas, cfg.Encrypt)

	<-ctx.Done()
	log.Printf("pesos: shutting down")
	return srv.Close()
}
