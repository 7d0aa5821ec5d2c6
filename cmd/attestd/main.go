// Command attestd runs the attestation and secret-provisioning
// service (the Scone CAS equivalent, §3.1) as an HTTP daemon for
// multi-machine lab deployments: operators register expected enclave
// measurements with sealed secret bundles; a booting controller posts
// a quote bound to a fresh nonce and receives its secrets.
//
// The in-process deployments (testbed, examples) use the library form
// in internal/enclave/attest directly; this daemon exposes the same
// service over the network.
//
// Endpoints (JSON):
//
//	POST /v1/register   {"measurement": hex, "secrets": {...}}  (operator, loopback only)
//	GET  /v1/challenge  -> {"nonce": hex}
//	POST /v1/attest     {"quote": {...}, "nonce": hex} -> secrets
//	POST /v1/shardmap   raw signed shard map document  (operator, loopback only)
//	GET  /v1/shardmap   -> the current signed shard map document
//	POST /v1/lease/acquire {"shard": n, "holder": s, "endpoint": s, "ttlMs": n} -> lease (409 lease_held)
//	POST /v1/lease/renew   {"shard": n, "holder": s, "gen": n, "ttlMs": n} -> lease (409 lease_lost)
//	POST /v1/lease/standby {"shard": n, "name": s, "endpoint": s, "ttlMs": n}
//	POST /v1/lease/revoke  {"shard": n}  (operator, loopback only)
//	GET  /v1/leases     -> {"leases": [...]}
//
// The lease endpoints make attestd the failover authority for
// controller HA (internal/cluster): the active controller of each
// shard renews a TTL lease here, hot standbys heartbeat and race to
// acquire it on expiry. Leases bound unavailability only — split-brain
// safety comes from drive credential rotation, so a compromised or
// partitioned lease authority can delay failover but never corrupt
// data.
//
// The shard map endpoints make attestd the distribution point for the
// cluster shard map (internal/cluster): the document is sealed under
// the secret bundle's map key, so the channel itself needs no trust —
// routers and controllers verify what they fetch.
//
// Usage:
//
//	attestd -listen 127.0.0.1:9443 -platform-key platform-pub.pem
package main

import (
	"context"
	"crypto/ecdsa"
	"crypto/x509"
	"encoding/hex"
	"encoding/json"
	"encoding/pem"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/enclave"
	"repro/internal/enclave/attest"
	"repro/internal/obs"
)

type server struct {
	svc *attest.Service

	// Service counters, exposed on the -obs-listen registry. Attest
	// outcomes are the security-relevant signal: a burst of denials
	// means something is presenting bad quotes.
	attestsOK     *obs.Counter
	attestsDenied *obs.Counter
	challenges    *obs.Counter
	registers     *obs.Counter
	leaseOps      *obs.Counter
	shardMapGets  *obs.Counter
}

// newServer wires the service to a metrics registry; counters stay
// usable (and cheap) even when no obs endpoint is started.
func newServer(svc *attest.Service) (*server, *obs.Registry) {
	r := obs.NewRegistry()
	s := &server{
		svc:           svc,
		attestsOK:     r.Counter(`attestd_attests_total{result="ok"}`, "Attestation attempts by outcome."),
		attestsDenied: r.Counter(`attestd_attests_total{result="denied"}`, "Attestation attempts by outcome."),
		challenges:    r.Counter("attestd_challenges_total", "Challenge nonces issued."),
		registers:     r.Counter("attestd_registers_total", "Measurement registrations accepted."),
		leaseOps:      r.Counter("attestd_lease_ops_total", "Lease acquire/renew/standby/revoke requests."),
		shardMapGets:  r.Counter("attestd_shardmap_fetches_total", "Shard map documents served."),
	}
	r.GaugeFunc("attestd_leases_held", "Shard leases currently held.",
		func() float64 { return float64(len(svc.Leases())) })
	return s, r
}

type registerReq struct {
	Measurement string          `json:"measurement"`
	Secrets     *attest.Secrets `json:"secrets"`
}

type quoteJSON struct {
	Measurement string `json:"measurement"`
	ReportData  string `json:"reportData"`
	SigR        string `json:"sigR"`
	SigS        string `json:"sigS"`
}

type attestReq struct {
	Quote quoteJSON `json:"quote"`
	Nonce string    `json:"nonce"`
}

// options are attestd's flags.
type options struct {
	listen, keyFile, obsListen string
}

// parseFlags parses attestd's command line.
func parseFlags(args []string) (options, error) {
	var o options
	fs := flag.NewFlagSet("attestd", flag.ContinueOnError)
	fs.StringVar(&o.listen, "listen", "127.0.0.1:9443", "listen address")
	fs.StringVar(&o.keyFile, "platform-key", "", "PEM file with the platform's attestation public key")
	fs.StringVar(&o.obsListen, "obs-listen", "", "HTTP address for /metrics and loopback pprof (empty disables)")
	return o, fs.Parse(args)
}

func main() {
	o, err := parseFlags(os.Args[1:])
	if errors.Is(err, flag.ErrHelp) {
		return // -h: the flag set printed the usage
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "attestd: %v\n", err)
		os.Exit(2)
	}

	var pub *ecdsa.PublicKey
	if o.keyFile != "" {
		data, err := os.ReadFile(o.keyFile)
		if err != nil {
			log.Fatalf("attestd: %v", err)
		}
		block, _ := pem.Decode(data)
		if block == nil {
			log.Fatal("attestd: no PEM block in platform key file")
		}
		k, err := x509.ParsePKIXPublicKey(block.Bytes)
		if err != nil {
			log.Fatalf("attestd: parse platform key: %v", err)
		}
		var ok bool
		if pub, ok = k.(*ecdsa.PublicKey); !ok {
			log.Fatal("attestd: platform key is not ECDSA")
		}
	} else {
		// Development mode: create a fresh platform and print its key
		// so a co-located simulated enclave can be launched against it.
		platform, err := enclave.NewPlatform()
		if err != nil {
			log.Fatal(err)
		}
		pub = platform.AttestationPublicKey()
		der, _ := x509.MarshalPKIXPublicKey(pub)
		log.Printf("attestd: dev platform key:\n%s",
			pem.EncodeToMemory(&pem.Block{Type: "PUBLIC KEY", Bytes: der}))
	}

	s, reg := newServer(attest.NewService(pub))
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/register", s.handleRegister)
	mux.HandleFunc("GET /v1/challenge", s.handleChallenge)
	mux.HandleFunc("POST /v1/attest", s.handleAttest)
	mux.HandleFunc("POST /v1/shardmap", s.handlePublishShardMap)
	mux.HandleFunc("GET /v1/shardmap", s.handleShardMap)
	mux.HandleFunc("POST /v1/lease/acquire", s.handleLeaseAcquire)
	mux.HandleFunc("POST /v1/lease/renew", s.handleLeaseRenew)
	mux.HandleFunc("POST /v1/lease/standby", s.handleLeaseStandby)
	mux.HandleFunc("POST /v1/lease/revoke", s.handleLeaseRevoke)
	mux.HandleFunc("GET /v1/leases", s.handleLeases)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var obsSrv *http.Server
	if o.obsListen != "" {
		obsSrv, err = obs.Serve(o.obsListen, reg)
		if err != nil {
			log.Fatalf("attestd: obs endpoint: %v", err)
		}
		log.Printf("attestd: observability endpoint on %s", o.obsListen)
	}

	ln, err := net.Listen("tcp", o.listen)
	if err != nil {
		log.Fatalf("attestd: listen: %v", err)
	}
	log.Printf("attestd: serving on %s", ln.Addr())
	srv := &http.Server{Handler: mux}
	go func() {
		if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
			log.Fatalf("attestd: %v", err)
		}
	}()
	<-ctx.Done()
	log.Printf("attestd: shutting down")
	if obsSrv != nil {
		obsSrv.Close()
	}
	srv.Close()
}

// handlePublishShardMap installs the current signed shard map
// (operator action: loopback only, like register). The document is
// stored opaquely; it authenticates itself to its consumers.
func (s *server) handlePublishShardMap(w http.ResponseWriter, r *http.Request) {
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil || !net.ParseIP(host).IsLoopback() {
		jsonError(w, http.StatusForbidden, fmt.Errorf("shardmap publish allowed from loopback only"))
		return
	}
	doc, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
	if err != nil || len(doc) == 0 {
		jsonError(w, http.StatusBadRequest, fmt.Errorf("need a signed shard map document"))
		return
	}
	s.svc.PublishShardMap(doc)
	json.NewEncoder(w).Encode(map[string]any{"ok": true})
}

// handleShardMap serves the current signed shard map document.
func (s *server) handleShardMap(w http.ResponseWriter, r *http.Request) {
	doc, ok := s.svc.ShardMap()
	if !ok {
		jsonError(w, http.StatusNotFound, fmt.Errorf("no shard map published"))
		return
	}
	s.shardMapGets.Inc()
	w.Header().Set("Content-Type", "application/json")
	w.Write(doc)
}

func (s *server) handleRegister(w http.ResponseWriter, r *http.Request) {
	// Registration carries secrets: restrict to loopback peers.
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil || !net.ParseIP(host).IsLoopback() {
		jsonError(w, http.StatusForbidden, fmt.Errorf("register allowed from loopback only"))
		return
	}
	var req registerReq
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		jsonError(w, http.StatusBadRequest, err)
		return
	}
	m, err := parseMeasurement(req.Measurement)
	if err != nil || req.Secrets == nil {
		jsonError(w, http.StatusBadRequest, fmt.Errorf("need measurement and secrets"))
		return
	}
	s.svc.Register(m, req.Secrets)
	s.registers.Inc()
	json.NewEncoder(w).Encode(map[string]any{"ok": true})
}

func (s *server) handleChallenge(w http.ResponseWriter, r *http.Request) {
	nonce, err := s.svc.Challenge()
	if err != nil {
		jsonError(w, http.StatusInternalServerError, err)
		return
	}
	s.challenges.Inc()
	json.NewEncoder(w).Encode(map[string]any{"nonce": hex.EncodeToString(nonce[:])})
}

func (s *server) handleAttest(w http.ResponseWriter, r *http.Request) {
	var req attestReq
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		jsonError(w, http.StatusBadRequest, err)
		return
	}
	m, err := parseMeasurement(req.Quote.Measurement)
	if err != nil {
		jsonError(w, http.StatusBadRequest, err)
		return
	}
	var q enclave.Quote
	q.Measurement = m
	rd, err := hex.DecodeString(req.Quote.ReportData)
	if err != nil || len(rd) != 32 {
		jsonError(w, http.StatusBadRequest, fmt.Errorf("bad reportData"))
		return
	}
	copy(q.ReportData[:], rd)
	if q.SigR, err = hex.DecodeString(req.Quote.SigR); err != nil {
		jsonError(w, http.StatusBadRequest, err)
		return
	}
	if q.SigS, err = hex.DecodeString(req.Quote.SigS); err != nil {
		jsonError(w, http.StatusBadRequest, err)
		return
	}
	nb, err := hex.DecodeString(req.Nonce)
	if err != nil || len(nb) != 32 {
		jsonError(w, http.StatusBadRequest, fmt.Errorf("bad nonce"))
		return
	}
	var nonce [32]byte
	copy(nonce[:], nb)

	secrets, err := s.svc.Attest(&q, nonce)
	if err != nil {
		s.attestsDenied.Inc()
		jsonError(w, http.StatusForbidden, err)
		return
	}
	s.attestsOK.Inc()
	json.NewEncoder(w).Encode(secrets)
}

// decodeLease parses a lease request body with a sane TTL default.
func decodeLease(r *http.Request) (*cluster.LeaseRequest, time.Duration, error) {
	var req cluster.LeaseRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		return nil, 0, err
	}
	ttl := time.Duration(req.TTLMs) * time.Millisecond
	if ttl <= 0 {
		ttl = 3 * time.Second
	}
	return &req, ttl, nil
}

// leaseError maps the lease sentinel errors onto 409 responses with a
// machine-readable code (cluster.HTTPLeases maps them back).
func leaseError(w http.ResponseWriter, err error) {
	code := ""
	status := http.StatusBadRequest
	switch {
	case errors.Is(err, attest.ErrLeaseHeld):
		code, status = cluster.LeaseCodeHeld, http.StatusConflict
	case errors.Is(err, attest.ErrLeaseLost):
		code, status = cluster.LeaseCodeLost, http.StatusConflict
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]any{"error": err.Error(), "code": code})
}

func (s *server) handleLeaseAcquire(w http.ResponseWriter, r *http.Request) {
	s.leaseOps.Inc()
	req, ttl, err := decodeLease(r)
	if err != nil {
		jsonError(w, http.StatusBadRequest, err)
		return
	}
	l, err := s.svc.AcquireLease(req.Shard, req.Holder, req.Endpoint, ttl)
	if err != nil {
		leaseError(w, err)
		return
	}
	json.NewEncoder(w).Encode(l)
}

func (s *server) handleLeaseRenew(w http.ResponseWriter, r *http.Request) {
	s.leaseOps.Inc()
	req, ttl, err := decodeLease(r)
	if err != nil {
		jsonError(w, http.StatusBadRequest, err)
		return
	}
	l, err := s.svc.RenewLease(req.Shard, req.Holder, req.Gen, ttl)
	if err != nil {
		leaseError(w, err)
		return
	}
	json.NewEncoder(w).Encode(l)
}

func (s *server) handleLeaseStandby(w http.ResponseWriter, r *http.Request) {
	s.leaseOps.Inc()
	req, ttl, err := decodeLease(r)
	if err != nil {
		jsonError(w, http.StatusBadRequest, err)
		return
	}
	if err := s.svc.StandbyHeartbeat(req.Shard, req.Name, req.Endpoint, ttl); err != nil {
		leaseError(w, err)
		return
	}
	json.NewEncoder(w).Encode(map[string]any{"ok": true})
}

// handleLeaseRevoke forces a shard's lease open so a standby takes
// over immediately — the operator failover drill. Loopback only, like
// every other operator action.
func (s *server) handleLeaseRevoke(w http.ResponseWriter, r *http.Request) {
	s.leaseOps.Inc()
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil || !net.ParseIP(host).IsLoopback() {
		jsonError(w, http.StatusForbidden, fmt.Errorf("lease revoke allowed from loopback only"))
		return
	}
	req, _, err := decodeLease(r)
	if err != nil {
		jsonError(w, http.StatusBadRequest, err)
		return
	}
	s.svc.RevokeLease(req.Shard)
	json.NewEncoder(w).Encode(map[string]any{"ok": true})
}

func (s *server) handleLeases(w http.ResponseWriter, r *http.Request) {
	json.NewEncoder(w).Encode(map[string]any{"leases": s.svc.Leases()})
}

func parseMeasurement(s string) (enclave.Measurement, error) {
	var m enclave.Measurement
	b, err := hex.DecodeString(s)
	if err != nil || len(b) != len(m) {
		return m, fmt.Errorf("bad measurement %q", s)
	}
	copy(m[:], b)
	return m, nil
}

func jsonError(w http.ResponseWriter, code int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]any{"error": err.Error()})
}
