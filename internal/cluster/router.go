// The cluster router: the client-side layer that makes N controllers
// look like one keyspace. Single-key operations are dispatched to the
// owning shard under the current map; a wrong_shard answer (the
// controller is ahead of the router's map epoch) triggers a map
// refresh and a redirect — under the handoff protocol an in-flight
// operation sees at most one. Multi-key batches are split per shard
// and reassembled in request order; listings scatter to every shard
// and merge, with pagination tokens that are per-shard cursor vectors
// and an epoch-consistency check that re-fetches any page torn by a
// concurrent handoff.
package cluster

import (
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/authority"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/obs"
)

// MapSource supplies the current signed shard map document.
type MapSource interface {
	FetchMap(ctx context.Context) ([]byte, error)
}

// MapSourceFunc adapts a function to MapSource.
type MapSourceFunc func(ctx context.Context) ([]byte, error)

// FetchMap implements MapSource.
func (f MapSourceFunc) FetchMap(ctx context.Context) ([]byte, error) { return f(ctx) }

// RouterConfig configures a Router.
type RouterConfig struct {
	// Source distributes the signed shard map (attestd, a controller's
	// /v1/cluster/map, or an in-process closure).
	Source MapSource
	// Key verifies map signatures.
	Key [32]byte
	// NewClient builds the REST client for one shard endpoint.
	NewClient func(s Shard) (*client.Client, error)
	// MaxRedirects bounds wrong_shard retries per operation (default 8;
	// the protocol needs 1, the budget covers cascaded rebalances).
	MaxRedirects int
	// RedirectBackoff paces waiting for a newer map after a redirect
	// whose refresh did not advance the epoch yet (default 10ms).
	RedirectBackoff time.Duration
	// RetryBackoff paces the retry-once path after a transport failure
	// or fenced-owner 5xx (default 5ms). The actual wait is jittered
	// over [0.5, 1.5)× so a partition that fails thousands of in-flight
	// operations at once does not re-dispatch them as a synchronized
	// thundering herd against the surviving owner. Negative disables
	// the wait (tests).
	RetryBackoff time.Duration
	// Registry, when set, exposes the router's counters as
	// pesos_router_* series — the same words RouterStats reports, so
	// status output and /metrics can never disagree.
	Registry *obs.Registry
}

// RouterStats counts router activity. The fields are obs counters so
// the same words back both Stats() readers and a metrics registry.
type RouterStats struct {
	// Redirects is the total number of wrong_shard answers seen.
	Redirects obs.Counter
	// MapRefreshes counts shard map fetches.
	MapRefreshes obs.Counter
	// MaxRedirectsPerOp is the worst redirect count any single
	// operation needed (the handoff protocol promises at most 1).
	MaxRedirectsPerOp obs.Counter
	// Retargets counts connection-level failures that triggered a map
	// refresh and a retry — the failover ride-through path.
	Retargets obs.Counter
	// Retries counts operation re-dispatches of any kind (retargets
	// plus redirect-driven retries) — the router's total extra load on
	// the cluster beyond first-attempt traffic.
	Retries obs.Counter
	// ListTopUps counts second fetches from a shard within one listing
	// page: its share ran out before the merged page was full.
	ListTopUps obs.Counter
}

// register exposes the stats words on a registry.
func (st *RouterStats) register(r *obs.Registry) {
	r.RegisterCounter("pesos_router_redirects_total", "wrong_shard answers seen by the router.", &st.Redirects)
	r.RegisterCounter("pesos_router_map_refreshes_total", "Shard map fetches.", &st.MapRefreshes)
	r.RegisterCounter("pesos_router_max_redirects_per_op", "Worst redirect count any single operation needed.", &st.MaxRedirectsPerOp)
	r.RegisterCounter("pesos_router_retargets_total", "Connection failures that triggered a map refresh and retry.", &st.Retargets)
	r.RegisterCounter("pesos_router_retries_total", "Operation re-dispatches of any kind.", &st.Retries)
	r.RegisterCounter("pesos_router_list_topups_total", "Second fetches from a shard within one listing page.", &st.ListTopUps)
}

// Router routes the v2 API across the shards of a cluster.
type Router struct {
	cfg   RouterConfig
	stats RouterStats

	mu      sync.RWMutex
	m       *ShardMap
	clients map[string]*client.Client // by endpoint
}

// NewRouter builds a router and loads the initial map.
func NewRouter(cfg RouterConfig) (*Router, error) {
	if cfg.Source == nil || cfg.NewClient == nil {
		return nil, errors.New("cluster: router needs a map source and a client factory")
	}
	if cfg.MaxRedirects <= 0 {
		cfg.MaxRedirects = 8
	}
	if cfg.RedirectBackoff <= 0 {
		cfg.RedirectBackoff = 10 * time.Millisecond
	}
	if cfg.RetryBackoff == 0 {
		cfg.RetryBackoff = 5 * time.Millisecond
	}
	r := &Router{cfg: cfg, clients: make(map[string]*client.Client)}
	if cfg.Registry != nil {
		r.stats.register(cfg.Registry)
	}
	if err := r.Refresh(context.Background()); err != nil {
		return nil, err
	}
	return r, nil
}

// Stats exposes the router's counters.
func (r *Router) Stats() *RouterStats { return &r.stats }

// Map returns the router's current shard map.
func (r *Router) Map() *ShardMap {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.m
}

// Epoch returns the current map epoch (0 before the first load).
func (r *Router) Epoch() uint64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if r.m == nil {
		return 0
	}
	return r.m.Epoch
}

// Refresh fetches, verifies and (if newer) adopts the shard map.
// Epoch fencing: an older or equal map is ignored, so a lagging
// source can never roll the router back.
func (r *Router) Refresh(ctx context.Context) error {
	doc, err := r.cfg.Source.FetchMap(ctx)
	if err != nil {
		return fmt.Errorf("cluster: fetch shard map: %w", err)
	}
	r.stats.MapRefreshes.Add(1)
	m, err := VerifyMap(r.cfg.Key, doc)
	if err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.m == nil || m.Epoch > r.m.Epoch {
		r.m = m
	}
	return nil
}

// target resolves key to its owning shard and a client for it.
func (r *Router) target(key string) (*Shard, *client.Client, error) {
	r.mu.RLock()
	m := r.m
	r.mu.RUnlock()
	if m == nil {
		return nil, nil, errors.New("cluster: no shard map loaded")
	}
	s, err := m.OwnerOf(key)
	if err != nil {
		return nil, nil, err
	}
	cl, err := r.clientFor(s)
	return s, cl, err
}

// clientFor returns (creating once) the client for a shard endpoint.
func (r *Router) clientFor(s *Shard) (*client.Client, error) {
	r.mu.RLock()
	cl := r.clients[s.Endpoint]
	r.mu.RUnlock()
	if cl != nil {
		return cl, nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if cl := r.clients[s.Endpoint]; cl != nil {
		return cl, nil
	}
	cl, err := r.cfg.NewClient(*s)
	if err != nil {
		return nil, err
	}
	r.clients[s.Endpoint] = cl
	return cl, nil
}

// isWrongShardErr classifies a transport-level error as a redirect, by
// its taxonomy code.
func isWrongShardErr(err error) bool {
	var apiErr *client.APIError
	return errors.As(err, &apiErr) && apiErr.Code == string(core.CodeWrongShard)
}

// resultWrongShard classifies a per-op result as a redirect.
func resultWrongShard(e *client.OpError) bool {
	return e != nil && e.Code == string(core.CodeWrongShard)
}

// isRetriableTransport classifies an error as a connection-level
// failure (the controller never answered): worth one map refresh and
// retry, because after a failover the shard map points at the new
// active controller while the old endpoint refuses connections. An
// APIError means the server answered — not a transport failure — and
// a canceled context belongs to the caller.
// isServerErr reports an in-protocol 5xx answer — the shape a fenced
// stale owner produces once its drive credentials are rotated away.
func isServerErr(err error) bool {
	var apiErr *client.APIError
	return errors.As(err, &apiErr) && apiErr.Status >= 500
}

func isRetriableTransport(err error) bool {
	if err == nil {
		return false
	}
	var apiErr *client.APIError
	if errors.As(err, &apiErr) {
		return false
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	return true
}

// noteRedirects folds one operation's redirect count into the stats.
func (r *Router) noteRedirects(n int) {
	if n == 0 {
		return
	}
	r.stats.MaxRedirectsPerOp.Max(uint64(n))
}

// awaitNewerMap refreshes until the map epoch advances past prev (or
// keeps the current map after a bounded wait — the redirect may have
// raced a refresh that already adopted the new epoch).
func (r *Router) awaitNewerMap(ctx context.Context, prev uint64) error {
	if r.Epoch() > prev {
		return nil
	}
	deadline := time.Now().Add(64 * r.cfg.RedirectBackoff)
	for {
		if err := r.Refresh(ctx); err != nil {
			return err
		}
		if r.Epoch() > prev || time.Now().After(deadline) {
			return nil
		}
		select {
		case <-time.After(r.cfg.RedirectBackoff):
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// retryBackoff waits a jittered RetryBackoff before a retry
// re-dispatch, honoring cancellation. Jitter decorrelates the herd of
// operations a partition or failover fails simultaneously: without
// it, every one of them re-fires at the surviving owner in the same
// instant — doubling load at the worst possible moment.
func (r *Router) retryBackoff(ctx context.Context) error {
	if r.cfg.RetryBackoff <= 0 {
		return nil
	}
	d := r.cfg.RetryBackoff/2 + time.Duration(rand.Int63n(int64(r.cfg.RetryBackoff)))
	select {
	case <-time.After(d):
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// route runs one single-key operation with redirect handling. op
// reports (value, wrongShard, error); on a redirect the map is
// refreshed and the operation re-dispatched. Each dispatch attempt
// carries its routing context (attempt number, redirects, retargets)
// in ctx for the HTTP client to forward as the route header, so the
// controller's trace shows the client-side routing stage.
func route[T any](ctx context.Context, r *Router, key string, op func(ctx context.Context, cl *client.Client) (T, bool, error)) (T, error) {
	var zero T
	redirects := 0
	retargeted := false
	attempt := 0
	for {
		attempt++
		epoch := r.Epoch()
		s, cl, err := r.target(key)
		if err != nil {
			return zero, err
		}
		retargets := 0
		if retargeted {
			retargets = 1
		}
		opctx := obs.WithRouteInfo(ctx, obs.RouteInfo{
			Attempt: attempt, Redirects: redirects, Retargets: retargets,
		})
		v, wrong, err := op(opctx, cl)
		if !wrong {
			if err != nil {
				// Connection failure (not an answer): the owner may have
				// just failed over. Refresh the map and retry once
				// against the (possibly new) owner.
				if !retargeted && isRetriableTransport(err) {
					retargeted = true
					r.stats.Retargets.Add(1)
					if rerr := r.Refresh(ctx); rerr == nil {
						if berr := r.retryBackoff(ctx); berr != nil {
							return zero, berr
						}
						r.stats.Retries.Add(1)
						continue
					}
				}
				// A server-side 5xx can be a fenced-out stale owner: a
				// controller that lost its shard to a takeover keeps
				// answering, but every drive access dies against the
				// rotated credentials. Refresh, and retry once ONLY if
				// ownership really moved — a 5xx from the genuine owner
				// is an answer, and retrying it could double-apply a
				// partially committed write.
				if !retargeted && isServerErr(err) {
					if rerr := r.Refresh(ctx); rerr == nil {
						if s2, _, terr := r.target(key); terr == nil && s2.Endpoint != s.Endpoint {
							retargeted = true
							r.stats.Retargets.Add(1)
							if berr := r.retryBackoff(ctx); berr != nil {
								return zero, berr
							}
							r.stats.Retries.Add(1)
							continue
						}
					}
				}
				return zero, err
			}
			r.noteRedirects(redirects)
			return v, nil
		}
		redirects++
		r.stats.Redirects.Add(1)
		if redirects > r.cfg.MaxRedirects {
			return zero, fmt.Errorf("cluster: %d redirects routing %q, shard map unstable", redirects, key)
		}
		if err := r.awaitNewerMap(ctx, epoch); err != nil {
			return zero, err
		}
		r.stats.Retries.Add(1)
	}
}

// Put stores an object via the owning shard.
func (r *Router) Put(ctx context.Context, key string, value []byte, opts client.PutOptions) (client.OpResult, error) {
	return route(ctx, r, key, func(ctx context.Context, cl *client.Client) (client.OpResult, bool, error) {
		res, err := cl.PutOp(ctx, key, value, opts)
		if err != nil {
			return res, isWrongShardErr(err), err
		}
		return res, resultWrongShard(res.Err), nil
	})
}

// getResult pairs a Get's value and metadata through the router.
type getResult struct {
	value []byte
	meta  *client.ObjectMeta
}

// Get fetches an object via the owning shard.
func (r *Router) Get(ctx context.Context, key string, opts client.GetOptions) ([]byte, *client.ObjectMeta, error) {
	res, err := route(ctx, r, key, func(ctx context.Context, cl *client.Client) (getResult, bool, error) {
		v, m, err := cl.Get(ctx, key, opts)
		return getResult{v, m}, isWrongShardErr(err), err
	})
	return res.value, res.meta, err
}

// Delete removes an object via the owning shard.
func (r *Router) Delete(ctx context.Context, key string, certs ...*authority.Certificate) (client.OpResult, error) {
	return route(ctx, r, key, func(ctx context.Context, cl *client.Client) (client.OpResult, bool, error) {
		res, err := cl.DeleteOp(ctx, key, false, certs...)
		if err != nil {
			return res, isWrongShardErr(err), err
		}
		return res, resultWrongShard(res.Err), nil
	})
}

// streamResult pairs a streamed read's body and metadata.
type streamResult struct {
	body io.ReadCloser
	meta *client.ObjectMeta
}

// GetStream opens a streamed read via the owning shard.
func (r *Router) GetStream(ctx context.Context, key string, opts client.GetOptions) (io.ReadCloser, *client.ObjectMeta, error) {
	res, err := route(ctx, r, key, func(ctx context.Context, cl *client.Client) (streamResult, bool, error) {
		body, meta, err := cl.GetStream(ctx, key, opts)
		return streamResult{body, meta}, isWrongShardErr(err), err
	})
	return res.body, res.meta, err
}

// PutStream stores a streamed object via the owning shard. open is
// called once per dispatch attempt, so a redirect can replay the body.
func (r *Router) PutStream(ctx context.Context, key string, open func() (io.Reader, error), opts client.PutOptions) (client.OpResult, error) {
	return route(ctx, r, key, func(ctx context.Context, cl *client.Client) (client.OpResult, bool, error) {
		body, err := open()
		if err != nil {
			return client.OpResult{}, false, err
		}
		res, err := cl.PutStream(ctx, key, body, opts)
		if err != nil {
			return res, isWrongShardErr(err), err
		}
		return res, resultWrongShard(res.Err), nil
	})
}

// PutPolicy stores a policy on EVERY shard (policies are content-
// addressed and idempotent; objects on any shard may reference them).
func (r *Router) PutPolicy(ctx context.Context, src string) (string, error) {
	m := r.Map()
	if m == nil {
		return "", errors.New("cluster: no shard map loaded")
	}
	var mu sync.Mutex
	var wg sync.WaitGroup
	var firstErr error
	ids := make(map[string]bool)
	for i := range m.Shards {
		s := &m.Shards[i]
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl, err := r.clientFor(s)
			if err == nil {
				var id string
				if id, err = cl.PutPolicy(ctx, src); err == nil {
					mu.Lock()
					ids[id] = true
					mu.Unlock()
					return
				}
			}
			mu.Lock()
			if firstErr == nil {
				firstErr = fmt.Errorf("cluster: put policy on shard %d: %w", s.ID, err)
			}
			mu.Unlock()
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return "", firstErr
	}
	if len(ids) != 1 {
		return "", fmt.Errorf("cluster: shards disagree on policy id: %v", ids)
	}
	for id := range ids {
		return id, nil
	}
	return "", errors.New("cluster: no policy id")
}

// BatchGet reads many keys, split per owning shard and reassembled in
// request order; wrong_shard per-op results are re-routed after a map
// refresh.
func (r *Router) BatchGet(ctx context.Context, keys []string, certs ...*authority.Certificate) ([]client.BatchGetResult, error) {
	results := make([]client.BatchGetResult, len(keys))
	pending := make([]int, len(keys))
	for i := range keys {
		pending[i] = i
	}
	err := r.scatterRounds(ctx, pending, func(idx int) string { return keys[idx] },
		func(cl *client.Client, group []int) ([]*client.OpError, error) {
			groupKeys := make([]string, len(group))
			for j, idx := range group {
				groupKeys[j] = keys[idx]
			}
			res, err := cl.BatchGet(ctx, groupKeys, certs...)
			if err != nil {
				return nil, err
			}
			if len(res) != len(group) {
				return nil, fmt.Errorf("cluster: batch get returned %d results for %d keys", len(res), len(group))
			}
			errs := make([]*client.OpError, len(group))
			for j, idx := range group {
				results[idx] = res[j]
				errs[j] = res[j].Err
			}
			return errs, nil
		})
	return results, err
}

// BatchPut writes many ops, split per owning shard and reassembled in
// request order.
func (r *Router) BatchPut(ctx context.Context, ops []client.BatchPutOp, certs ...*authority.Certificate) ([]client.OpResult, error) {
	results := make([]client.OpResult, len(ops))
	pending := make([]int, len(ops))
	for i := range ops {
		pending[i] = i
	}
	err := r.scatterRounds(ctx, pending, func(idx int) string { return string(ops[idx].Key) },
		func(cl *client.Client, group []int) ([]*client.OpError, error) {
			groupOps := make([]client.BatchPutOp, len(group))
			for j, idx := range group {
				groupOps[j] = ops[idx]
			}
			res, err := cl.BatchPut(ctx, groupOps, certs...)
			if err != nil {
				return nil, err
			}
			if len(res) != len(group) {
				return nil, fmt.Errorf("cluster: batch put returned %d results for %d ops", len(res), len(group))
			}
			errs := make([]*client.OpError, len(group))
			for j, idx := range group {
				results[idx] = res[j]
				errs[j] = res[j].Err
			}
			return errs, nil
		})
	return results, err
}

// scatterRounds drives a multi-key request: group the pending indices
// by owning shard, execute the groups concurrently, collect per-op
// wrong_shard indices and repeat against a refreshed map until every
// op landed (or the redirect budget runs out, leaving the redirect
// errors in the caller's results).
func (r *Router) scatterRounds(ctx context.Context, pending []int, keyOf func(int) string,
	exec func(cl *client.Client, group []int) ([]*client.OpError, error)) error {
	retargeted := false
	for round := 0; len(pending) > 0; round++ {
		epoch := r.Epoch()
		groups := make(map[int][]int) // shard id -> indices
		shards := make(map[int]*Shard)
		for _, idx := range pending {
			s, _, err := r.target(keyOf(idx))
			if err != nil {
				return err
			}
			groups[s.ID] = append(groups[s.ID], idx)
			shards[s.ID] = s
		}
		var wg sync.WaitGroup
		var mu sync.Mutex
		var firstErr, transportErr error
		var redo []int
		for id, group := range groups {
			wg.Add(1)
			go func(s *Shard, group []int) {
				defer wg.Done()
				cl, err := r.clientFor(s)
				var errs []*client.OpError
				if err == nil {
					errs, err = exec(cl, group)
				}
				mu.Lock()
				defer mu.Unlock()
				if err != nil {
					// A group whose controller never answered retries as a
					// whole after a map refresh (failover ride-through);
					// any other error fails the request.
					if isRetriableTransport(err) {
						if transportErr == nil {
							transportErr = err
						}
						redo = append(redo, group...)
						return
					}
					if firstErr == nil {
						firstErr = err
					}
					return
				}
				for j, e := range errs {
					if resultWrongShard(e) {
						redo = append(redo, group[j])
					}
				}
			}(shards[id], group)
		}
		wg.Wait()
		if firstErr != nil {
			return firstErr
		}
		if transportErr != nil {
			if retargeted {
				return transportErr
			}
			retargeted = true
			r.stats.Retargets.Add(1)
			if err := r.Refresh(ctx); err != nil {
				return transportErr
			}
			if err := r.retryBackoff(ctx); err != nil {
				return err
			}
			r.stats.Retries.Add(uint64(len(redo)))
			sort.Ints(redo)
			pending = redo
			continue
		}
		if len(redo) == 0 {
			r.noteRedirects(round)
			return nil
		}
		r.stats.Redirects.Add(uint64(len(redo)))
		if round >= r.cfg.MaxRedirects {
			// Budget exhausted: the wrong_shard results stay visible to
			// the caller.
			r.noteRedirects(round)
			return nil
		}
		if err := r.awaitNewerMap(ctx, epoch); err != nil {
			return err
		}
		r.stats.Retries.Add(uint64(len(redo)))
		sort.Ints(redo)
		pending = redo
	}
	return nil
}

// routerCursor is one shard's resume position inside a router
// pagination token: either the shard's own server token (the page was
// consumed exactly), a start key (the page was cut at the merge
// boundary), or exhaustion.
type routerCursor struct {
	Token string `json:"t,omitempty"`
	Start []byte `json:"s,omitempty"`
	Done  bool   `json:"d,omitempty"`
}

// routerToken is the cursor vector of a scattered listing, plus the
// global merge boundary for epoch-change recovery: if the shard set
// changed since the token was minted, every shard restarts just past
// the boundary — nothing at or below it is re-emitted, nothing above
// it was ever emitted, so a handoff between pages can neither skip
// nor duplicate a key.
type routerToken struct {
	Epoch    uint64                  `json:"e"`
	Boundary []byte                  `json:"b"`
	Cursors  map[string]routerCursor `json:"c"`
}

func encodeRouterToken(t *routerToken) (string, error) {
	raw, err := json.Marshal(t)
	if err != nil {
		return "", err
	}
	return base64.RawURLEncoding.EncodeToString(raw), nil
}

func decodeRouterToken(s string) (*routerToken, error) {
	raw, err := base64.RawURLEncoding.DecodeString(s)
	if err != nil {
		return nil, fmt.Errorf("cluster: bad pagination token: %w", err)
	}
	var t routerToken
	if err := json.Unmarshal(raw, &t); err != nil {
		return nil, fmt.Errorf("cluster: bad pagination token: %w", err)
	}
	return &t, nil
}

// successorKey is the smallest possible key strictly greater than b
// (object keys never contain NUL, so appending 0x01 is tight).
func successorKey(b []byte) string { return string(b) + "\x01" }

// listEpochWait bounds how long a listing waits for the cluster to
// settle on one epoch mid-handoff.
const listEpochWait = 5 * time.Second

// List serves one page of the cluster-wide listing: every shard is
// consulted from its cursor, the per-shard (sorted, policy-filtered)
// pages are merged, and the first Limit entries are returned. Pages
// are epoch-checked: if any shard answered under a different map
// epoch than the router's (a handoff in flight), the whole page is
// re-fetched from the boundary so no key is skipped or duplicated.
func (r *Router) List(ctx context.Context, opts client.ListOptions) (*client.ListPage, error) {
	limit := opts.Limit
	if limit <= 0 {
		limit = core.DefaultScanLimit
	}
	var tok *routerToken
	if opts.Token != "" {
		var err error
		if tok, err = decodeRouterToken(opts.Token); err != nil {
			return nil, err
		}
	}
	deadline := time.Now().Add(listEpochWait)
	forceBoundary := false
	for {
		m := r.Map()
		if m == nil {
			return nil, errors.New("cluster: no shard map loaded")
		}
		cursors := buildCursors(m, opts, tok, forceBoundary)
		page, retry, err := r.listOnce(ctx, m, opts, limit, cursors)
		if err != nil {
			return nil, err
		}
		if !retry {
			return page, nil
		}
		// A shard answered under a different epoch than the router's
		// map (a handoff in flight, or the router lagging behind one):
		// refresh the map and resume from the boundary. Shards report
		// their epoch on every page, so a stale map is always detected
		// here — no eager per-page refresh is needed.
		forceBoundary = true
		if time.Now().After(deadline) {
			return nil, errors.New("cluster: listing could not reach an epoch-consistent page (handoff in flight)")
		}
		if err := r.Refresh(ctx); err != nil {
			return nil, err
		}
		select {
		case <-time.After(20 * time.Millisecond):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// buildCursors derives the per-shard resume positions for one page.
func buildCursors(m *ShardMap, opts client.ListOptions, tok *routerToken, forceBoundary bool) map[int]routerCursor {
	out := make(map[int]routerCursor, len(m.Shards))
	if tok == nil {
		for i := range m.Shards {
			out[m.Shards[i].ID] = routerCursor{Start: []byte(opts.Start)}
		}
		return out
	}
	usable := !forceBoundary && tok.Epoch == m.Epoch
	if usable {
		for i := range m.Shards {
			c, ok := tok.Cursors[strconv.Itoa(m.Shards[i].ID)]
			if !ok {
				usable = false
				break
			}
			out[m.Shards[i].ID] = c
		}
		if usable {
			return out
		}
	}
	// Epoch changed (or the vector does not cover the current shard
	// set): restart every shard just past the merge boundary.
	start := []byte(successorKey(tok.Boundary))
	if len(tok.Boundary) == 0 {
		start = []byte(opts.Start)
	}
	for i := range m.Shards {
		out[m.Shards[i].ID] = routerCursor{Start: start}
	}
	return out
}

// shardList is one shard's part of a page being assembled: the entries
// fetched so far from its cursor, and where the shard resumes.
type shardList struct {
	shard   *Shard
	cur     routerCursor // resume position past the last fetched entry
	want    int          // entries the next fetch asks for
	entries []client.ListEntry
	more    bool // the shard holds entries past those fetched
}

// last is the greatest key fetched; only meaningful while more.
func (l *shardList) last() string { return string(l.entries[len(l.entries)-1].Key) }

// shardShare is how many entries to ask one of several shards for: its
// expected part of a limit-entry page — keys hash uniformly, so the
// shard's fraction of the hash space the active shards own — plus
// √limit of slack, which is at least two standard deviations of that
// part, so a second fetch is the exception. Tiny pages ask for limit
// outright: the slack would exceed the saving.
func shardShare(limit int, width, total uint64) int {
	if limit <= 3 || width >= total {
		return limit
	}
	expected := (uint64(limit)*width + total - 1) / total
	return min(limit, int(expected)+int(math.Ceil(math.Sqrt(float64(limit)))))
}

// fetchShardPages fetches the next want entries of every list, in
// parallel, and appends them; retry reports an epoch-torn fetch.
func (r *Router) fetchShardPages(ctx context.Context, m *ShardMap, opts client.ListOptions, lists []*shardList) (retry bool, err error) {
	pages := make([]*client.ListPage, len(lists))
	errs := make([]error, len(lists))
	var wg sync.WaitGroup
	for i, l := range lists {
		wg.Add(1)
		go func(i int, l *shardList) {
			defer wg.Done()
			cl, err := r.clientFor(l.shard)
			if err != nil {
				errs[i] = err
				return
			}
			lopts := client.ListOptions{Prefix: opts.Prefix, Limit: l.want, Certs: opts.Certs}
			if l.cur.Token != "" {
				lopts.Token = l.cur.Token
			} else {
				lopts.Start = string(l.cur.Start)
			}
			pages[i], errs[i] = cl.List(ctx, lopts)
		}(i, l)
	}
	wg.Wait()
	for i, l := range lists {
		if err := errs[i]; err != nil {
			// A shard that never answered may have just failed over:
			// surface as a retry so List refreshes the map and re-fetches
			// from the boundary (bounded by listEpochWait).
			if isRetriableTransport(err) {
				r.stats.Retargets.Add(1)
				return true, nil
			}
			return false, err
		}
		page := pages[i]
		if page.ShardEpoch != 0 && page.ShardEpoch != m.Epoch {
			return true, nil
		}
		if l.entries == nil {
			l.entries = page.Entries
		} else {
			l.entries = append(l.entries, page.Entries...)
		}
		l.more = page.NextToken != ""
		if l.more {
			if len(l.entries) == 0 {
				return false, fmt.Errorf("cluster: shard %d continued a listing it returned nothing of", l.shard.ID)
			}
			l.cur = routerCursor{Token: page.NextToken}
		}
	}
	return false, nil
}

// listOnce assembles one page; retry reports an epoch-torn fetch. Each
// active shard is asked for its share of the page, not a full page. The
// merge may only emit keys up to the horizon — the smallest last-key
// among shards that hold more — because past it a shard's unfetched
// entries could sort first; when that leaves the page short, only the
// shards bounding the horizon are asked again, for what is missing.
func (r *Router) listOnce(ctx context.Context, m *ShardMap, opts client.ListOptions, limit int, cursors map[int]routerCursor) (*client.ListPage, bool, error) {
	var lists []*shardList
	var total uint64
	for i := range m.Shards {
		if s := &m.Shards[i]; !cursors[s.ID].Done {
			lists = append(lists, &shardList{shard: s, cur: cursors[s.ID]})
			total += hashWidth(s)
		}
	}
	for _, l := range lists {
		l.want = shardShare(limit, hashWidth(l.shard), total)
	}

	var horizon string
	bounded := false
	for pending := lists; len(pending) > 0; {
		retry, err := r.fetchShardPages(ctx, m, opts, pending)
		if retry || err != nil {
			return nil, retry, err
		}
		bounded = false
		for _, l := range lists {
			if l.more && (!bounded || l.last() < horizon) {
				horizon, bounded = l.last(), true
			}
		}
		if !bounded {
			break
		}
		within := 0
		for _, l := range lists {
			within += sort.Search(len(l.entries), func(i int) bool { return string(l.entries[i].Key) > horizon })
		}
		pending = nil
		if within < limit {
			for _, l := range lists {
				if l.more && l.last() == horizon {
					l.want = limit - within
					pending = append(pending, l)
				}
			}
			r.stats.ListTopUps.Add(uint64(len(pending)))
		}
	}

	// Merge the sorted per-shard lists up to the horizon, cut at the limit.
	fetched := 0
	for _, l := range lists {
		fetched += len(l.entries)
	}
	out := &client.ListPage{ShardEpoch: m.Epoch, Entries: make([]client.ListEntry, 0, min(limit, fetched))}
	pos := make([]int, len(lists))
	for len(out.Entries) < limit {
		best := -1
		for i, l := range lists {
			if pos[i] < len(l.entries) && (best < 0 || l.entries[pos[i]].Key < lists[best].entries[pos[best]].Key) {
				best = i
			}
		}
		if best < 0 {
			break
		}
		e := lists[best].entries[pos[best]]
		if bounded && string(e.Key) > horizon {
			break
		}
		out.Entries = append(out.Entries, e)
		pos[best]++
	}
	var boundary []byte
	if n := len(out.Entries); n > 0 {
		boundary = []byte(out.Entries[n-1].Key)
	}

	// Per-shard next cursors: the shard's own token when everything
	// fetched from it was emitted, boundary restart when it was cut,
	// done when the shard is exhausted.
	next := &routerToken{Epoch: m.Epoch, Boundary: boundary, Cursors: make(map[string]routerCursor)}
	for i := range m.Shards {
		next.Cursors[strconv.Itoa(m.Shards[i].ID)] = routerCursor{Done: true}
	}
	allDone := true
	for i, l := range lists {
		nc := routerCursor{Done: true}
		switch {
		case pos[i] < len(l.entries):
			nc = routerCursor{Start: []byte(successorKey(boundary))}
		case l.more:
			nc = l.cur
		}
		if !nc.Done {
			allDone = false
		}
		next.Cursors[strconv.Itoa(l.shard.ID)] = nc
	}
	if !allDone {
		token, err := encodeRouterToken(next)
		if err != nil {
			return nil, false, err
		}
		out.NextToken = token
	}
	return out, false, nil
}

// hashWidth is the number of hash points a shard owns.
func hashWidth(s *Shard) uint64 {
	var w uint64
	for _, r := range s.Ranges {
		w += uint64(r.End - r.Start)
	}
	return w
}

// ListAll drains the cluster-wide listing from the given position.
func (r *Router) ListAll(ctx context.Context, opts client.ListOptions) ([]client.ListEntry, error) {
	var all []client.ListEntry
	for {
		page, err := r.List(ctx, opts)
		if err != nil {
			return all, err
		}
		all = append(all, page.Entries...)
		if page.NextToken == "" {
			return all, nil
		}
		opts.Token = page.NextToken
	}
}
