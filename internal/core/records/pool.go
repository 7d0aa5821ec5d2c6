package records

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/kinetic/kclient"
)

// drivePoolConns is the number of parallel connections the controller
// keeps to each drive (the Kinetic library's thread pool, §4.3).
const drivePoolConns = 4

// pool multiplexes requests over several connections to one
// drive, mirroring the adapted Kinetic C library's decoupled
// request/response handling (§3.1), and tracks the drive's observed
// read latency for the fetch engine (fetch.go).
type pool struct {
	name    string
	clients []*kclient.Client
	next    atomic.Uint64
	lat     latencyEstimator

	credMu sync.Mutex
	creds  kclient.Credentials
}

// dialPool connects all pool connections with creds.
func dialPool(ctx context.Context, ep Endpoint, creds kclient.Credentials) (*pool, error) {
	p := &pool{name: ep.Name, creds: creds}
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
func (p *pool) pick() *kclient.Client {
	i := p.next.Add(1)
	return p.clients[i%uint64(len(p.clients))]
}

// setCredentials switches every connection to new credentials. Each
// returned channel closes once its connection's calls signed under the
// old credentials have been answered.
func (p *pool) setCredentials(creds kclient.Credentials) (retired []<-chan struct{}) {
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
func (p *pool) credentials() kclient.Credentials {
	p.credMu.Lock()
	defer p.credMu.Unlock()
	return p.creds
}

func (p *pool) close() {
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

// estimate is a drive's standing in the replica ranking: its EWMA, and
// whether its latest round trips failed. The fetch engine demotes a
// failing drive from the primary slot: a dead drive never completes a
// read, so it would otherwise never accumulate samples and keep being
// tried first forever.
type estimate struct {
	ewma    time.Duration
	failing bool
}

// before is the one replica ranking: a healthy drive before a failing
// one, then the lower EWMA.
func (e estimate) before(o estimate) bool {
	return !e.failing && o.failing || e.failing == o.failing && e.ewma < o.ewma
}

func (e *latencyEstimator) estimate() estimate {
	e.mu.Lock()
	defer e.mu.Unlock()
	return estimate{time.Duration(e.ewma), e.fails > 0}
}

// snapshot returns the current estimate.
func (e *latencyEstimator) snapshot() (ewma, p95 time.Duration, n uint64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return time.Duration(e.ewma), time.Duration(e.p95), e.n
}
