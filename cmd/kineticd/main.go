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

// rootCtx is the daemon's root context: cancelled on SIGINT/SIGTERM,
// so every in-flight operation (P2P pushes included) unwinds promptly
// at shutdown instead of running on a context nothing ever cancels.
var rootCtx context.Context

// P2PIdentity names the shared drive-to-drive account (-p2p-secret).
const P2PIdentity = "kinetic-p2p"

// p2pCreds authenticates outgoing P2P pushes: the shared P2P account
// when configured, the factory account otherwise (which only works
// until a controller takeover replaces it).
var p2pCreds kclient.Credentials

func main() {
	listen := flag.String("listen", ":8123", "TCP listen address")
	name := flag.String("name", "kinetic-0", "drive name")
	media := flag.String("media", "sim", "media model: sim (in-memory) or hdd (seek-time model)")
	hddScale := flag.Float64("hdd-scale", 1.0, "time scale for the hdd media model (0..1]")
	tlsCert := flag.String("tls-cert", "", "PEM certificate for the drive's TLS identity")
	tlsKey := flag.String("tls-key", "", "PEM key for the drive's TLS identity")
	p2pSecret := flag.String("p2p-secret", "", "shared drive-to-drive HMAC secret (>= 8 bytes) enabling P2P copies that survive a controller takeover; same value on every drive of a deployment")
	chaosListen := flag.String("chaos-listen", "", "loopback-only HTTP address for the /v1/chaos fault-injection endpoint (empty disables; must resolve to a loopback IP)")
	obsListen := flag.String("obs-listen", "", "HTTP address for /metrics and loopback pprof (empty disables)")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	rootCtx = ctx

	var mm kinetic.MediaModel
	switch *media {
	case "sim":
		mm = kinetic.SimMedia{}
	case "hdd":
		mm = kinetic.NewHDDMedia(*hddScale)
	default:
		fmt.Fprintf(os.Stderr, "kineticd: unknown media model %q\n", *media)
		os.Exit(2)
	}

	if *p2pSecret != "" && len(*p2pSecret) < 8 {
		fmt.Fprintln(os.Stderr, "kineticd: -p2p-secret needs at least 8 bytes")
		os.Exit(2)
	}
	p2pCreds = kclient.Credentials{Identity: kinetic.DefaultAdminIdentity, Key: kinetic.DefaultAdminKey}
	cfg := kinetic.Config{
		Name:  *name,
		Media: mm,
		P2PDial: func(peer string) (kinetic.P2PTarget, error) {
			return dialPeer(peer)
		},
	}
	if *p2pSecret != "" {
		// Drive-to-drive trust: the shared account survives a
		// controller's SetSecurity takeover, so shard handoffs can
		// P2P-copy between drives owned by different controllers.
		cfg.P2PAccount = &wire.ACL{Identity: P2PIdentity, Key: []byte(*p2pSecret), Perms: wire.PermWrite}
		p2pCreds = kclient.Credentials{Identity: P2PIdentity, Key: []byte(*p2pSecret)}
	}
	drive := kinetic.NewDrive(cfg)

	var tlsCfg *tls.Config
	if *tlsCert != "" || *tlsKey != "" {
		cert, err := tls.LoadX509KeyPair(*tlsCert, *tlsKey)
		if err != nil {
			log.Fatalf("kineticd: load TLS identity: %v", err)
		}
		tlsCfg = &tls.Config{Certificates: []tls.Certificate{cert}, MinVersion: tls.VersionTLS12}
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatalf("kineticd: listen: %v", err)
	}
	srv := kinetic.Serve(drive, ln, tlsCfg)
	log.Printf("kineticd: drive %q serving on %s (media=%s, tls=%v)",
		*name, ln.Addr(), mm.Name(), tlsCfg != nil)

	var chaosSrv *http.Server
	if *chaosListen != "" {
		chaosSrv, err = serveChaos(*chaosListen, drive)
		if err != nil {
			log.Fatalf("kineticd: chaos endpoint: %v", err)
		}
	}

	var obsSrv *http.Server
	if *obsListen != "" {
		obsSrv, err = obs.Serve(*obsListen, driveRegistry(drive))
		if err != nil {
			log.Fatalf("kineticd: obs endpoint: %v", err)
		}
		log.Printf("kineticd: observability endpoint on %s", *obsListen)
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
// reached with the factory account (P2P trust is drive-to-drive).
// Dials and pushes run under the signal-cancelled root context, so a
// terminating daemon never leaves a P2P copy hanging on a dead peer.
func dialPeer(addr string) (kinetic.P2PTarget, error) {
	cl, err := kclient.Dial(rootCtx, kclient.TCPDialer(addr, nil), p2pCreds)
	if err != nil {
		return nil, err
	}
	return &p2pClient{cl}, nil
}

type p2pClient struct{ cl *kclient.Client }

// P2PPut implements kinetic.P2PTarget over the wire protocol.
func (p *p2pClient) P2PPut(key, value, version []byte) error {
	defer p.cl.Close()
	return p.cl.Put(rootCtx, key, value, nil, version, true)
}
