package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"repro/internal/client"
	"repro/internal/kinetic"
	"repro/internal/testbed"
	"repro/internal/usecases"
)

// The deployment every workload runs against: two enclave controllers,
// six drives each, three replicas, EC 4+2 for streams of 4 MiB and up.
// Everything else is the production default (group commit, hedged
// reads, partial-eval policy, obs at 1-in-16 sampling); the detector
// and sweeper tickers stay off so background work is not a noise
// source, and slow-op dumping is off so no span tree is serialised to
// stderr mid-measurement.
const (
	controllers      = 2
	drivesPerNode    = 6
	replicas         = 3
	aclPrincipals    = 25 // size of every content-server ACL
	loadBatch        = 64 // records per BatchPut during load
	obsTraceSample   = 16
	hddTimeScale     = 1.0
	smallObjectCache = 2 << 20 // kv-write-hdd: data is twice the object cache
)

// numClients sizes the load generator to the box: one worker and one
// router per core, at most four.
func numClients() int { return min(runtime.NumCPU(), 4) }

func deployOptions(w *workload) testbed.Options {
	o := testbed.Options{
		Enclave:         true,
		Drives:          drivesPerNode,
		Replicas:        replicas,
		EC:              true,
		SlowOpThreshold: -1,
		TraceSample:     obsTraceSample,
	}
	if w.hdd {
		o.Media = func(int) kinetic.MediaModel { return kinetic.NewHDDMedia(hddTimeScale) }
	}
	o.ObjectCacheBytes = w.objectCacheBytes
	return o
}

// worker is one load-generator goroutine's view of the deployment: its
// own router (own certificate, own TLS sessions) plus the two shallower
// entry points the traced run rotates through.
type worker struct {
	id  int
	fp  string // the router identity's principal
	eps [numDepths]endpoint
	rt  routerEP
}

// deployment is one booted cluster with its principals and policies.
type deployment struct {
	mc       *testbed.MultiCluster
	workers  []*worker
	verifier routerEP // fresh router for the read-back check
	// allow is the policy id the callers may read and update under;
	// hide admits updates but no reads by callers (denial probes and
	// scan-filtered records).
	allow, hide string
	// allowSrc is the allow policy's source, for the policy layer's
	// own timings.
	allowSrc string
}

func (d *deployment) close() { d.mc.Close() }

// boot starts the cluster and issues every principal. The policies
// need the principals' fingerprints, so they are stored here too.
func boot(w *workload, clients int) (d *deployment, err error) {
	mc, err := testbed.StartMulti(controllers, deployOptions(w))
	if err != nil {
		return nil, fmt.Errorf("boot: %w", err)
	}
	d = &deployment{mc: mc}
	defer func() {
		if err != nil {
			d.close()
		}
	}()
	var callers []string
	for i := 0; i < clients; i++ {
		r, id, err := mc.NewRouter(fmt.Sprintf("bench-router-%d", i))
		if err != nil {
			return nil, err
		}
		wk := &worker{id: i, fp: testbed.Fingerprint(id), rt: routerEP{r}}
		callers = append(callers, wk.fp)
		// Node clients carry their own certificates, so each is its own
		// principal and joins the ACLs too.
		cls := make([]*client.Client, len(mc.Nodes))
		for n, node := range mc.Nodes {
			cl, cid, err := node.NewClient(fmt.Sprintf("bench-client-%d-%d", i, n))
			if err != nil {
				return nil, err
			}
			cls[n] = cl
			callers = append(callers, testbed.Fingerprint(cid))
		}
		wk.eps = [numDepths]endpoint{
			depthRouter:  wk.rt,
			depthClient:  clientEP{mc: mc, clients: cls},
			depthSession: sessionEP{mc: mc, fp: wk.fp},
		}
		d.workers = append(d.workers, wk)
	}
	vr, vid, err := mc.NewRouter("bench-verifier")
	if err != nil {
		return nil, err
	}
	d.verifier = routerEP{vr}

	var hideSrc string
	d.allowSrc, hideSrc = w.policies(callers, testbed.Fingerprint(vid))
	ctx := context.Background()
	if d.allow, err = d.workers[0].rt.r.PutPolicy(ctx, d.allowSrc); err != nil {
		return nil, fmt.Errorf("put policy: %w", err)
	}
	if hideSrc != "" {
		if d.hide, err = d.workers[0].rt.r.PutPolicy(ctx, hideSrc); err != nil {
			return nil, fmt.Errorf("put policy: %w", err)
		}
	}
	return d, nil
}

// fillers pads an ACL to aclPrincipals entries with principals nobody
// holds, placed first so the callers are the last ones matched.
func fillers(real int) []string {
	n := max(aclPrincipals-real, 1)
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("%064x", i+1)
	}
	return out
}

// aclPolicies builds the content-server pair: allow lets callers and
// the verifier read and update; hide lets callers update (they load the
// records) but only the verifier read.
func aclPolicies(callers []string, verifier string) (allow, hide string) {
	all := append(append(fillers(len(callers)+1), verifier), callers...)
	allow = usecases.ContentServer(all, all, all)
	readers := append(fillers(1), verifier)
	hide = usecases.ContentServer(readers, all, all)
	return allow, hide
}

// versionedPolicies is the §5.3 versioned store: every update is a
// content-dependent check of the stored version. Reads are open to any
// authenticated client, so there is no hidden class.
func versionedPolicies([]string, string) (allow, hide string) {
	return usecases.Versioned(), ""
}

// load fills the store: every worker writes the records it owns in
// loadBatch-record batches.
func (d *deployment) load(st *state) error {
	ctx := context.Background()
	errs := make([]error, len(d.workers))
	var wg sync.WaitGroup
	for i, wk := range d.workers {
		wg.Add(1)
		go func(i int, wk *worker) {
			defer wg.Done()
			errs[i] = st.w.load(ctx, st, wk)
		}(i, wk)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("load: %w", err)
		}
	}
	// The routers reached every node while loading; the node clients
	// have not, so they read once here and no timed operation pays a TLS
	// handshake.
	probes, err := st.w.handshakeKeys(d, st)
	if err != nil {
		return err
	}
	for _, wk := range d.workers {
		for _, key := range probes {
			if err := st.w.touch(ctx, wk.eps[depthClient], key); err != nil {
				return fmt.Errorf("first read of %q: %w", key, err)
			}
		}
	}
	return nil
}

// onePerNode picks, from candidates, one key owned by each node.
func onePerNode(mc *testbed.MultiCluster, candidates func(i int) string) ([]string, error) {
	out := make([]string, len(mc.Nodes))
	found := 0
	for i := 0; found < len(out) && i < 4096; i++ {
		key := candidates(i)
		n, err := ownerOf(mc, key)
		if err != nil {
			return nil, err
		}
		if out[n] == "" {
			out[n] = key
			found++
		}
	}
	if found < len(out) {
		return nil, fmt.Errorf("no candidate key on every node")
	}
	return out, nil
}
