// Command kineticd runs a standalone Kinetic drive on TCP — the
// software equivalent of one Ethernet-attached disk. A fresh drive
// boots in factory state (the well-known factory-admin account); the
// Pesos controller takes exclusive control at bootstrap.
//
// Usage:
//
//	kineticd -listen :8123 -name kinetic-0 -media sim
//	kineticd -listen :8124 -name kinetic-1 -media hdd -tls-cert c.pem -tls-key k.pem
//
// -chaos-listen starts a loopback-only HTTP endpoint (/v1/chaos) for
// deterministic fault injection during failure testing: GET returns
// the active fault configuration and counters, POST installs a
// kinetic.Faults document, DELETE clears it. The endpoint refuses
// non-loopback listen addresses and non-loopback peers, so a lab
// operator on the drive's host can blackhole or degrade it without
// exposing a kill switch to the network.
package main

import (
	"context"
	"crypto/tls"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sync/atomic"
	"syscall"

	"repro/internal/kinetic"
	"repro/internal/kinetic/kclient"
	"repro/internal/kinetic/wire"
	"repro/internal/obs"
)

// P2PIdentity names the shared drive-to-drive account (-p2p-secret).
const P2PIdentity = "kinetic-p2p"

// deployment is what the command line says around the drive: where it
// listens and how its outgoing P2P pushes authenticate — the shared P2P
// account when configured, the factory account otherwise (which only
// works until a controller takeover replaces it).
type deployment struct {
	listen, tlsCert, tlsKey, chaosListen, obsListen string
	p2pCreds                                        kclient.Credentials
}

// parseFlags parses the command line (without the program name) into
// the drive's config and the deployment around it.
func parseFlags(args []string) (kinetic.Config, *deployment, error) {
	var cfg kinetic.Config
	d := &deployment{}
	fs := flag.NewFlagSet("kineticd", flag.ContinueOnError)
	fs.StringVar(&d.listen, "listen", ":8123", "TCP listen address")
	fs.StringVar(&cfg.Name, "name", "kinetic-0", "drive name")
	media := fs.String("media", "sim", "media model: sim (in-memory) or hdd (seek-time model)")
	hddScale := fs.Float64("hdd-scale", 1.0, "time scale for the hdd media model (0..1]")
	fs.StringVar(&d.tlsCert, "tls-cert", "", "PEM certificate for the drive's TLS identity")
	fs.StringVar(&d.tlsKey, "tls-key", "", "PEM key for the drive's TLS identity")
	p2pSecret := fs.String("p2p-secret", "", "shared drive-to-drive HMAC secret (>= 8 bytes) enabling P2P copies that survive a controller takeover; same value on every drive of a deployment")
	fs.StringVar(&d.chaosListen, "chaos-listen", "", "loopback-only HTTP address for the /v1/chaos fault-injection endpoint (empty disables; must resolve to a loopback IP)")
	fs.StringVar(&d.obsListen, "obs-listen", "", "HTTP address for /metrics and loopback pprof (empty disables)")
	if err := fs.Parse(args); err != nil {
		return cfg, nil, err
	}
	switch *media {
	case "sim":
		cfg.Media = kinetic.SimMedia{}
	case "hdd":
		cfg.Media = kinetic.NewHDDMedia(*hddScale)
	default:
		return cfg, nil, fmt.Errorf("unknown media model %q", *media)
	}
	d.p2pCreds = kclient.Credentials{Identity: kinetic.DefaultAdminIdentity, Key: kinetic.DefaultAdminKey}
	if *p2pSecret != "" {
		if len(*p2pSecret) < 8 {
			return cfg, nil, errors.New("-p2p-secret needs at least 8 bytes")
		}
		// Drive-to-drive trust: the shared account survives a
		// controller's SetSecurity takeover, so shard handoffs can
		// P2P-copy between drives owned by different controllers.
		cfg.P2PAccount = &wire.ACL{Identity: P2PIdentity, Key: []byte(*p2pSecret), Perms: wire.PermWrite}
		d.p2pCreds = kclient.Credentials{Identity: P2PIdentity, Key: []byte(*p2pSecret)}
	}
	return cfg, d, nil
}

func main() {
	cfg, d, err := parseFlags(os.Args[1:])
	if errors.Is(err, flag.ErrHelp) {
		return // -h: the flag set printed the usage
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "kineticd: %v\n", err)
		os.Exit(2)
	}
	// The root context is cancelled on SIGINT/SIGTERM, so every
	// in-flight operation (P2P pushes included) unwinds promptly at
	// shutdown instead of running on a context nothing ever cancels.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	cfg.P2PDial = func(peer string) (kinetic.P2PTarget, error) {
		return dialPeer(ctx, peer, d.p2pCreds)
	}
	drive := kinetic.NewDrive(cfg)

	var tlsCfg *tls.Config
	if d.tlsCert != "" || d.tlsKey != "" {
		cert, err := tls.LoadX509KeyPair(d.tlsCert, d.tlsKey)
		if err != nil {
			log.Fatalf("kineticd: load TLS identity: %v", err)
		}
		tlsCfg = &tls.Config{Certificates: []tls.Certificate{cert}, MinVersion: tls.VersionTLS12}
	}

	ln, err := net.Listen("tcp", d.listen)
	if err != nil {
		log.Fatalf("kineticd: listen: %v", err)
	}
	srv := kinetic.Serve(drive, ln, tlsCfg)
	log.Printf("kineticd: drive %q serving on %s (media=%s, tls=%v)",
		cfg.Name, ln.Addr(), cfg.Media.Name(), tlsCfg != nil)

	var chaosSrv *http.Server
	if d.chaosListen != "" {
		chaosSrv, err = serveChaos(d.chaosListen, drive)
		if err != nil {
			log.Fatalf("kineticd: chaos endpoint: %v", err)
		}
	}

	var obsSrv *http.Server
	if d.obsListen != "" {
		obsSrv, err = obs.Serve(d.obsListen, driveRegistry(drive))
		if err != nil {
			log.Fatalf("kineticd: obs endpoint: %v", err)
		}
		log.Printf("kineticd: observability endpoint on %s", d.obsListen)
	}

	<-ctx.Done()
	log.Printf("kineticd: shutting down")
	if chaosSrv != nil {
		chaosSrv.Close()
	}
	if obsSrv != nil {
		obsSrv.Close()
	}
	srv.Close()
	drive.Close()
}

// driveRegistry exposes the drive's operation counters as a metrics
// registry — the same atomics Stats() reports, so the two sources can
// never disagree.
func driveRegistry(d *kinetic.Drive) *obs.Registry {
	r := obs.NewRegistry()
	st := d.Stats()
	for _, m := range []struct {
		name string
		help string
		v    *atomic.Uint64
	}{
		{`kinetic_ops_total{op="get"}`, "Operations served by the drive.", &st.Gets},
		{`kinetic_ops_total{op="put"}`, "Operations served by the drive.", &st.Puts},
		{`kinetic_ops_total{op="delete"}`, "Operations served by the drive.", &st.Deletes},
		{`kinetic_ops_total{op="range"}`, "Operations served by the drive.", &st.Ranges},
		{"kinetic_p2p_pushes_total", "Device-to-device record pushes received.", &st.P2PPushes},
		{"kinetic_rejected_total", "Requests rejected by HMAC or permission checks.", &st.Rejected},
		{"kinetic_batches_total", "TBatch requests applied.", &st.Batches},
		{"kinetic_batch_ops_total", "Sub-operations carried by TBatch requests.", &st.BatchOps},
		{"kinetic_batch_groups_total", "Sub-operation groups in grouped batches.", &st.BatchGroups},
		{"kinetic_group_rejects_total", "Groups skipped by CAS or permission failures.", &st.GroupRejects},
		{"kinetic_flushes_total", "TFlush requests that destaged the write buffer.", &st.Flushes},
	} {
		r.CounterFunc(m.name, m.help, m.v.Load)
	}
	r.GaugeFunc("kinetic_stored_keys", "Keys currently stored on the drive.",
		func() float64 { return float64(d.Len()) })
	r.GaugeFunc("kinetic_stored_bytes", "Key, value and version bytes currently stored on the drive.",
		func() float64 { return float64(d.SizeBytes()) })
	r.GaugeFunc("kinetic_mapped_bytes", "Memory mapped from the OS to hold the stored records; the excess over kinetic_stored_bytes is the record arena's overhead.",
		func() float64 { return float64(d.MappedBytes()) })
	return r
}

// serveChaos starts the loopback-only fault-injection endpoint. The
// listen address must resolve to a loopback IP and every request's
// peer is re-checked against loopback — chaos control is a local lab
// facility, never a network service.
func serveChaos(addr string, drive *kinetic.Drive) (*http.Server, error) {
	host, _, err := net.SplitHostPort(addr)
	if err != nil {
		return nil, fmt.Errorf("-chaos-listen %q: %w", addr, err)
	}
	ip := net.ParseIP(host)
	if ip == nil || !ip.IsLoopback() {
		return nil, fmt.Errorf("-chaos-listen %q is not a loopback address", addr)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/chaos", func(w http.ResponseWriter, r *http.Request) {
		if rh, _, err := net.SplitHostPort(r.RemoteAddr); err != nil || !net.ParseIP(rh).IsLoopback() {
			http.Error(w, "chaos control is loopback-only", http.StatusForbidden)
			return
		}
		switch r.Method {
		case http.MethodGet:
		case http.MethodPost:
			var f kinetic.Faults
			if err := json.NewDecoder(r.Body).Decode(&f); err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			drive.SetFaults(f)
			log.Printf("kineticd: chaos faults installed: %+v", f)
		case http.MethodDelete:
			drive.ClearFaults()
			log.Printf("kineticd: chaos faults cleared")
		default:
			http.Error(w, "use GET, POST or DELETE", http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(map[string]any{
			"faults": drive.Faults(),
			"stats":  drive.FaultStats(),
		})
	})
	srv := &http.Server{Handler: mux}
	go srv.Serve(ln)
	log.Printf("kineticd: chaos endpoint on %s (loopback-only)", ln.Addr())
	return srv, nil
}

// dialPeer implements device-to-device copies between kineticd
// instances: the peer address is another drive's TCP endpoint,
// reached with creds (P2P trust is drive-to-drive). Dials and pushes
// run under ctx, the signal-cancelled root context, so a terminating
// daemon never leaves a P2P copy hanging on a dead peer.
func dialPeer(ctx context.Context, addr string, creds kclient.Credentials) (kinetic.P2PTarget, error) {
	cl, err := kclient.Dial(ctx, kclient.TCPDialer(addr, nil), creds)
	if err != nil {
		return nil, err
	}
	return &p2pClient{ctx, cl}, nil
}

type p2pClient struct {
	ctx context.Context
	cl  *kclient.Client
}

// P2PPut implements kinetic.P2PTarget over the wire protocol.
func (p *p2pClient) P2PPut(key, value, version []byte) error {
	defer p.cl.Close()
	return p.cl.Put(p.ctx, key, value, nil, version, true)
}
