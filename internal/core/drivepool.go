package core

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/kinetic/kclient"
)

// DriveEndpoint names one Kinetic drive and how to reach it.
type DriveEndpoint struct {
	// Name identifies the drive in logs and placement-independent
	// diagnostics.
	Name string
	// Dial opens a byte stream to the drive (TCP+TLS or in-memory).
	Dial kclient.Dialer
}

// drivePoolConns is the number of parallel connections the controller
// keeps to each drive (the Kinetic library's thread pool, §4.3).
const drivePoolConns = 4

// drivePool multiplexes requests over several connections to one
// drive, mirroring the adapted Kinetic C library's decoupled
// request/response handling (§3.1), and tracks the drive's observed
// read latency for the fetch engine (see fetch.go).
type drivePool struct {
	name    string
	clients []*kclient.Client
	next    atomic.Uint64
	lat     latencyEstimator

	credMu sync.Mutex
	creds  kclient.Credentials
}

// dialPool connects all pool connections with creds.
func dialPool(ctx context.Context, ep DriveEndpoint, creds kclient.Credentials) (*drivePool, error) {
	p := &drivePool{name: ep.Name, creds: creds}
	for i := 0; i < drivePoolConns; i++ {
		c, err := kclient.Dial(ctx, ep.Dial, creds)
		if err != nil {
			p.close()
			return nil, fmt.Errorf("core: dial drive %s: %w", ep.Name, err)
		}
		p.clients = append(p.clients, c)
	}
	return p, nil
}

// pick returns the next connection round-robin.
func (p *drivePool) pick() *kclient.Client {
	i := p.next.Add(1)
	return p.clients[i%uint64(len(p.clients))]
}

// observe records one completed read round trip against the drive.
func (p *drivePool) observe(d time.Duration) { p.lat.observe(d) }

// observeFailure records a failed (non-cancelled) read round trip.
func (p *drivePool) observeFailure() { p.lat.observeFailure() }

// latency returns the pool's current read-latency estimate: the EWMA
// mean, the running p95 estimate, and the sample count (0 = no reads
// observed yet).
func (p *drivePool) latency() (ewma, p95 time.Duration, n uint64) {
	return p.lat.snapshot()
}

// failing reports whether the drive's most recent read round trips
// failed. The fetch engine demotes failing drives from the primary
// slot: a dead drive never completes a read, so it would otherwise
// never accumulate samples and keep being tried first forever.
func (p *drivePool) failing() bool { return p.lat.failing() }

// setCredentials switches every connection to new credentials. Each
// returned channel closes once its connection's calls signed under the
// old credentials have been answered.
func (p *drivePool) setCredentials(creds kclient.Credentials) (retired []<-chan struct{}) {
	p.credMu.Lock()
	p.creds = creds
	p.credMu.Unlock()
	for _, c := range p.clients {
		retired = append(retired, c.SetCredentials(creds))
	}
	return retired
}

// credentials returns the credentials the pool currently signs with
// (the credential-rotation handoff step needs them to stage the
// two-phase account switch).
func (p *drivePool) credentials() kclient.Credentials {
	p.credMu.Lock()
	defer p.credMu.Unlock()
	return p.creds
}

func (p *drivePool) close() {
	for _, c := range p.clients {
		c.Close()
	}
}

// latencyEstimator maintains a constant-space running estimate of one
// drive's read latency: an exponentially weighted moving average for
// replica ordering, plus a stochastic-approximation p95 (step toward
// each sample, 19:1 asymmetric) that sizes the hedge delay. Both
// follow drift — a drive that degrades mid-run loses its primary slot
// within a few dozen reads.
type latencyEstimator struct {
	mu    sync.Mutex
	ewma  float64 // nanoseconds
	p95   float64 // nanoseconds
	n     uint64
	fails uint32 // consecutive failed round trips; reset on success
}

// observe folds one sample into the estimate.
func (e *latencyEstimator) observe(d time.Duration) {
	ns := float64(d)
	if ns < 0 {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.fails = 0
	e.n++
	if e.n == 1 {
		e.ewma, e.p95 = ns, ns
		return
	}
	const alpha = 0.2
	e.ewma += alpha * (ns - e.ewma)
	// Stochastic p95: the step size tracks the latency scale so the
	// quantile converges on any medium (µs simulator, ms HDD model).
	step := e.ewma * 0.05
	if step <= 0 {
		step = 1
	}
	if ns > e.p95 {
		e.p95 += step * 0.95
	} else {
		e.p95 -= step * 0.05
	}
	// Heuristic floor: a hedge delay below the mean would hedge most
	// reads, defeating the occupancy win.
	if e.p95 < e.ewma {
		e.p95 = e.ewma
	}
}

// observeFailure counts a failed round trip; any success resets it.
func (e *latencyEstimator) observeFailure() {
	e.mu.Lock()
	if e.fails < 1<<31 {
		e.fails++
	}
	e.mu.Unlock()
}

// failing reports whether the latest round trips failed.
func (e *latencyEstimator) failing() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.fails > 0
}

// snapshot returns the current estimate.
func (e *latencyEstimator) snapshot() (ewma, p95 time.Duration, n uint64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return time.Duration(e.ewma), time.Duration(e.p95), e.n
}
