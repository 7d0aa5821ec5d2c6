// The cluster router: the client-side layer that makes N controllers
// look like one keyspace. Every operation — a single key, a batch split
// per owning shard, a policy put to every shard, a scattered listing
// page — runs through one attempt loop: dispatch under the current map,
// classify how each shard's reply ended, pay what the worst verdict
// costs (a map refresh, a wait, a back-off) and re-dispatch what is
// left. Under the handoff protocol an in-flight operation sees at most
// one redirect. Listings merge per-shard pages, with pagination tokens
// that are per-shard cursor vectors and an epoch-consistency check that
// re-fetches any page torn by a concurrent handoff.
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
	"slices"
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
	// /v2/cluster/map, or an in-process closure).
	Source MapSource
	// Key verifies map signatures.
	Key [32]byte
	// NewClient builds the REST client for one shard endpoint.
	NewClient func(s Shard) (*client.Client, error)
	// Registry, when set, exposes the router's counters as
	// pesos_router_* series — the same words RouterStats reports, so
	// status output and /metrics can never disagree.
	Registry *obs.Registry
}

const (
	// maxRedirects bounds wrong_shard re-dispatches per operation: the
	// protocol needs 1, the budget covers cascaded rebalances.
	maxRedirects = 8
	// redirectBackoff paces waiting for a newer map after a redirect
	// whose refresh did not advance the epoch yet.
	redirectBackoff = 10 * time.Millisecond
	// retryBackoff paces the one retry after a transport failure or a
	// fenced owner's 5xx, jittered over [0.5, 1.5)× so the thousands of
	// operations a partition fails at once do not re-fire at the
	// surviving owner as one synchronized herd.
	retryBackoff = 5 * time.Millisecond
)

// RouterStats counts router activity. The fields are obs counters so
// the same words back both Stats() readers and a metrics registry.
type RouterStats struct {
	// Redirects is the total number of wrong_shard answers seen (a shard's
	// listing page from another epoch counts as one).
	Redirects obs.Counter
	// MapRefreshes counts shard map fetches.
	MapRefreshes obs.Counter
	// MaxRedirectsPerOp is the worst count of redirects any single
	// operation followed (the handoff protocol promises at most 1).
	MaxRedirectsPerOp obs.Counter
	// Retargets counts dispatches left unanswered (or answered by a fenced
	// stale owner) that triggered a map refresh and a retry — the
	// failover ride-through path.
	Retargets obs.Counter
	// Retries counts operations sent again for any reason (each one of a
	// batch; a listing page is one) — the router's total extra load on
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

// Epoch returns the current map epoch.
func (r *Router) Epoch() uint64 { return r.Map().Epoch }

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

// verdict is how one dispatch to one shard ended, ordered by cost: when
// the shards of one attempt disagree, the worst verdict is paid.
// docs/cluster.md tabulates what each costs.
type verdict int

const (
	// answered: whatever the shard said — success, a denial, a conflict,
	// a 4xx — is the operation's result.
	answered verdict = iota
	// moved: wrong_shard, for one operation or the whole request, or a
	// listing page filtered under another epoch than the router's map.
	moved
	// fenced: an in-protocol 5xx. A controller that lost its shard to a
	// takeover keeps answering, but every drive access dies against the
	// rotated credentials — so it is retried only if a refreshed map names
	// another owner. A 5xx from the genuine owner is an answer: retrying
	// it could double-apply a partially committed write.
	fenced
	// unreachable: the controller never answered. After a failover the
	// map points at the new active one while the old endpoint refuses
	// connections.
	unreachable
)

// errTornPage stands for a listing page filtered under another epoch
// than the map it was asked under; it fails a listing that never settles.
var errTornPage = errors.New("cluster: listing could not reach an epoch-consistent page (handoff in flight)")

// classify is the one place a reply becomes a verdict: err is how the
// request failed as a whole, op one operation's own failure in a request
// that did not. Redirects are recognised by taxonomy code, never by
// status alone. Whatever the controller answered is an *OpError — a
// policy denial too, which is final: it costs one dispatch (docs/perf.md,
// "A denial is an answer"). Anything else but the caller's own context
// is unreachable.
func classify(err error, op *client.OpError) verdict {
	var opErr *client.OpError
	switch {
	case err == nil:
		if op != nil && op.Code == string(core.CodeWrongShard) {
			return moved
		}
		return answered
	case errors.Is(err, errTornPage):
		return moved
	case errors.As(err, &opErr):
		if opErr.Code == string(core.CodeWrongShard) {
			return moved
		}
		if opErr.Status >= 500 {
			return fenced
		}
		return answered
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return answered
	}
	return unreachable
}

// outcome is one attempt's result, folded over the shards it asked.
type outcome struct {
	verdict verdict
	// err is the failure behind the verdict, returned once it is not
	// retried. A moved outcome without one has its wrong_shard answers in
	// the caller's per-operation results.
	err error
	// redo operations go out again next attempt; moved of them were
	// answered wrong_shard.
	redo, moved int
	// reowned reports, after a fenced attempt, whether m names another
	// owner than the one that refused, for all the refused work.
	reowned func(m *ShardMap) bool
}

// attempts is the router's one request loop. try dispatches whatever of
// the operation is still pending under map m and reports how that went;
// the loop owns what each verdict costs — the redirect budget and the
// wait for a newer map, the once-only refresh and back-off, the stats —
// and the RouteInfo every dispatch carries in ctx for the HTTP client to
// forward, so the controller's trace shows the client-side routing.
func (r *Router) attempts(ctx context.Context, try func(ctx context.Context, m *ShardMap) outcome) error {
	var ri obs.RouteInfo
	for {
		ri.Attempt++
		m := r.Map()
		out := try(obs.WithRouteInfo(ctx, ri), m)
		if out.moved > 0 {
			r.stats.Redirects.Add(uint64(out.moved))
		}
		switch out.verdict {
		case answered:
			return out.err
		case moved:
			if ri.Redirects == maxRedirects {
				// Budget spent: the last answer stands, wherever it sits.
				if out.err != nil {
					return fmt.Errorf("cluster: %d redirects, shard map unstable: %w", ri.Redirects+1, out.err)
				}
				return nil
			}
			ri.Redirects++
			r.stats.MaxRedirectsPerOp.Max(uint64(ri.Redirects))
			if err := r.awaitNewerMap(ctx, m.Epoch); err != nil {
				return err
			}
		case fenced, unreachable:
			if ri.Retargets > 0 || r.Refresh(ctx) != nil || (out.verdict == fenced && !out.reowned(r.Map())) {
				return out.err
			}
			ri.Retargets++
			r.stats.Retargets.Add(1)
			if err := pause(ctx, retryBackoff/2+time.Duration(rand.Int63n(int64(retryBackoff)))); err != nil {
				return err
			}
		}
		r.stats.Retries.Add(uint64(out.redo))
	}
}

// awaitNewerMap refreshes until the map epoch advances past prev (or
// keeps the current map after a bounded wait — the redirect may have
// raced a refresh that already adopted the new epoch).
func (r *Router) awaitNewerMap(ctx context.Context, prev uint64) error {
	deadline := time.Now().Add(64 * redirectBackoff)
	for r.Epoch() <= prev {
		if err := r.Refresh(ctx); err != nil {
			return err
		}
		if r.Epoch() > prev || time.Now().After(deadline) {
			break
		}
		if err := pause(ctx, redirectBackoff); err != nil {
			return err
		}
	}
	return nil
}

// pause waits d, or less if the caller gives up.
func pause(ctx context.Context, d time.Duration) error {
	select {
	case <-time.After(d):
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// each runs f(0) … f(n-1) and waits, concurrently when n > 1.
func each(n int, f func(i int)) {
	if n == 1 {
		f(0)
		return
	}
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f(i)
		}()
	}
	wg.Wait()
}

// group is the part of an attempt one shard is asked for, and what came
// back.
type group struct {
	shard *Shard
	items []int
	errs  []*client.OpError // per item; nil when no item failed
	err   error
}

// settle folds what the groups of one attempt came back with into its
// outcome — the worst verdict and the first failure behind it — and
// lists the items to send again: those answered wrong_shard and those of
// every group without a usable answer. One answer that is a failure
// fails the attempt.
func settle(groups []group, shardOf func(*ShardMap, int) (*Shard, error)) (out outcome, redo []int) {
	var refused []*group
	for i := range groups {
		g := &groups[i]
		v := classify(g.err, nil)
		switch v {
		case answered:
			if g.err != nil {
				return outcome{err: g.err}, nil
			}
			for j, e := range g.errs {
				if classify(nil, e) == moved {
					redo = append(redo, g.items[j])
					out.moved++
				}
			}
			continue
		case moved:
			out.moved += len(g.items)
		case fenced:
			refused = append(refused, g)
		}
		redo = append(redo, g.items...)
		if v > out.verdict {
			out.verdict, out.err = v, g.err
		}
	}
	if out.moved > 0 && out.verdict == answered {
		out.verdict = moved
	}
	out.redo = len(redo)
	out.reowned = func(m *ShardMap) bool {
		for _, g := range refused {
			if s, err := shardOf(m, g.items[0]); err != nil || s.Endpoint == g.shard.Endpoint {
				return false
			}
		}
		return true
	}
	return out, redo
}

// scatter drives an operation made of n items through the attempt
// loop: each attempt groups the items still pending by the shard they
// resolve to under the current map and sends every group, concurrently
// when there are several (a single-key operation is one group: no
// goroutine). send reports per-item failures (nil for none) and the
// request's own.
func (r *Router) scatter(ctx context.Context, n int,
	shardOf func(m *ShardMap, item int) (*Shard, error),
	send func(ctx context.Context, cl *client.Client, items []int) ([]*client.OpError, error)) error {
	pending := make([]int, n)
	for i := range pending {
		pending[i] = i
	}
	return r.attempts(ctx, func(ctx context.Context, m *ShardMap) outcome {
		var groups []group
	next:
		for _, item := range pending {
			s, err := shardOf(m, item)
			if err != nil {
				return outcome{err: err}
			}
			for i := range groups {
				if groups[i].shard.ID == s.ID {
					groups[i].items = append(groups[i].items, item)
					continue next
				}
			}
			groups = append(groups, group{shard: s, items: []int{item}})
		}
		each(len(groups), func(i int) {
			g := &groups[i]
			cl, err := r.clientFor(g.shard)
			if err == nil {
				g.errs, err = send(ctx, cl, g.items)
			}
			g.err = err
		})
		out, redo := settle(groups, shardOf)
		slices.Sort(redo)
		pending = redo
		return out
	})
}

// batch splits a request of many operations per shard and reassembles
// the per-operation results in request order; operations answered
// wrong_shard are re-routed, and if the redirect budget runs out their
// wrong_shard results stay visible to the caller. errOf is where a
// result carries its operation's own failure.
func batch[In, Out any](ctx context.Context, r *Router, in []In,
	shardOf func(*ShardMap, *In) (*Shard, error), errOf func(*Out) *client.OpError,
	send func(ctx context.Context, cl *client.Client, part []In) ([]Out, error)) ([]Out, error) {
	results := make([]Out, len(in))
	err := r.scatter(ctx, len(in),
		func(m *ShardMap, i int) (*Shard, error) { return shardOf(m, &in[i]) },
		func(ctx context.Context, cl *client.Client, items []int) ([]*client.OpError, error) {
			part := make([]In, len(items))
			for j, i := range items {
				part[j] = in[i]
			}
			res, err := send(ctx, cl, part)
			if err != nil {
				return nil, err
			}
			if len(res) != len(items) {
				return nil, fmt.Errorf("cluster: batch returned %d results for %d operations", len(res), len(items))
			}
			errs := make([]*client.OpError, len(items))
			for j, i := range items {
				results[i] = res[j]
				errs[j] = errOf(&res[j])
			}
			return errs, nil
		})
	return results, err
}

// one runs a single-key operation: a batch of one, whose failed
// dispatch leaves the zero result.
func one[T any](ctx context.Context, r *Router, key string, errOf func(*T) *client.OpError, op func(ctx context.Context, cl *client.Client) (T, error)) (T, error) {
	res, err := batch(ctx, r, []string{key}, ownerOf, errOf,
		func(ctx context.Context, cl *client.Client, _ []string) ([]T, error) {
			v, err := op(ctx, cl)
			return []T{v}, err
		})
	return res[0], err
}

// ownerOf routes by key; successor routes to a shard itself, by id
// under whatever map is current — how an operation addressed to shards
// follows a failover to the new active controller.
func ownerOf(m *ShardMap, key *string) (*Shard, error) { return m.OwnerOf(*key) }

func successor(m *ShardMap, s *Shard) (*Shard, error) {
	if cur := m.ShardByID(s.ID); cur != nil {
		return cur, nil
	}
	return nil, fmt.Errorf("cluster: shard %d left the map mid-operation", s.ID)
}

// resultErr is where a mutation carries its own failure; a read or a
// policy put fails as a request, never inside a result.
func resultErr(res *client.OpResult) *client.OpError { return res.Err }
func noErr[T any](*T) *client.OpError                { return nil }

// Put stores an object via the owning shard.
func (r *Router) Put(ctx context.Context, key string, value []byte, opts client.PutOptions) (client.OpResult, error) {
	return one(ctx, r, key, resultErr, func(ctx context.Context, cl *client.Client) (client.OpResult, error) {
		return cl.PutOp(ctx, key, value, opts)
	})
}

// Delete removes an object via the owning shard.
func (r *Router) Delete(ctx context.Context, key string, certs ...*authority.Certificate) (client.OpResult, error) {
	return one(ctx, r, key, resultErr, func(ctx context.Context, cl *client.Client) (client.OpResult, error) {
		return cl.DeleteOp(ctx, key, false, certs...)
	})
}

// PutStream stores a streamed object via the owning shard. open is
// called once per dispatch attempt, so a redirect can replay the body.
func (r *Router) PutStream(ctx context.Context, key string, open func() (io.Reader, error), opts client.PutOptions) (client.OpResult, error) {
	return one(ctx, r, key, resultErr, func(ctx context.Context, cl *client.Client) (client.OpResult, error) {
		body, err := open()
		if err != nil {
			return client.OpResult{}, err
		}
		return cl.PutStream(ctx, key, body, opts)
	})
}

// Get fetches an object via the owning shard.
func (r *Router) Get(ctx context.Context, key string, opts client.GetOptions) (value []byte, meta *client.ObjectMeta, err error) {
	meta, err = one(ctx, r, key, noErr, func(ctx context.Context, cl *client.Client) (m *client.ObjectMeta, err error) {
		value, m, err = cl.Get(ctx, key, opts)
		return m, err
	})
	return value, meta, err
}

// GetStream opens a streamed read via the owning shard.
func (r *Router) GetStream(ctx context.Context, key string, opts client.GetOptions) (body io.ReadCloser, meta *client.ObjectMeta, err error) {
	meta, err = one(ctx, r, key, noErr, func(ctx context.Context, cl *client.Client) (m *client.ObjectMeta, err error) {
		body, m, err = cl.GetStream(ctx, key, opts)
		return m, err
	})
	return body, meta, err
}

// BatchGet reads many keys, split per owning shard and reassembled in
// request order.
func (r *Router) BatchGet(ctx context.Context, keys []string, certs ...*authority.Certificate) ([]client.BatchGetResult, error) {
	return batch(ctx, r, keys, ownerOf,
		func(res *client.BatchGetResult) *client.OpError { return res.Err },
		func(ctx context.Context, cl *client.Client, part []string) ([]client.BatchGetResult, error) {
			return cl.BatchGet(ctx, part, certs...)
		})
}

// BatchPut writes many ops, split per owning shard and reassembled in
// request order.
func (r *Router) BatchPut(ctx context.Context, ops []client.BatchPutOp, certs ...*authority.Certificate) ([]client.OpResult, error) {
	return batch(ctx, r, ops,
		func(m *ShardMap, op *client.BatchPutOp) (*Shard, error) { return m.OwnerOf(string(op.Key)) }, resultErr,
		func(ctx context.Context, cl *client.Client, part []client.BatchPutOp) ([]client.OpResult, error) {
			return cl.BatchPut(ctx, part, certs...)
		})
}

// Transact runs one transaction (client.Transact) on the shard that owns
// every key it reads or writes. A transaction is one request to one
// controller, so one whose keys span shards under the current map is
// refused before anything is sent; a controller that has since lost any of
// the keys aborts it untouched with wrong_shard, which re-routes it like
// any single-shard operation.
func (r *Router) Transact(ctx context.Context, keys []string, ops []client.BatchPutOp, certs ...*authority.Certificate) (*client.TxResult, error) {
	touched := slices.Clone(keys)
	for _, op := range ops {
		touched = append(touched, string(op.Key))
	}
	res, err := batch(ctx, r, [][]string{touched},
		func(m *ShardMap, touched *[]string) (*Shard, error) { return commonOwner(m, *touched) }, noErr,
		func(ctx context.Context, cl *client.Client, _ [][]string) ([]*client.TxResult, error) {
			res, err := cl.Transact(ctx, keys, ops, certs...)
			return []*client.TxResult{res}, err
		})
	return res[0], err
}

// commonOwner is the one shard that owns every key, or why there is none.
func commonOwner(m *ShardMap, keys []string) (owner *Shard, err error) {
	for _, k := range keys {
		s, err := m.OwnerOf(k)
		if err != nil {
			return nil, err
		}
		if owner == nil {
			owner = s
		} else if s.ID != owner.ID {
			return nil, fmt.Errorf("cluster: transaction spans shards %d (%q) and %d (%q); a transaction runs on one shard", owner.ID, keys[0], s.ID, k)
		}
	}
	if owner == nil {
		return nil, errors.New("cluster: transaction names no key")
	}
	return owner, nil
}

// PutPolicy stores a policy on EVERY shard of the map it starts under
// (policies are content-addressed and idempotent; objects on any shard
// may reference them).
func (r *Router) PutPolicy(ctx context.Context, src string) (string, error) {
	ids, err := batch(ctx, r, r.Map().Shards, successor, noErr,
		func(ctx context.Context, cl *client.Client, part []Shard) ([]string, error) {
			id, err := cl.PutPolicy(ctx, src)
			if err != nil {
				return nil, fmt.Errorf("cluster: put policy on shard %d: %w", part[0].ID, err)
			}
			return []string{id}, nil
		})
	if err != nil {
		return "", err
	}
	for _, id := range ids {
		if id != ids[0] {
			return "", fmt.Errorf("cluster: shards disagree on policy id: %v", ids)
		}
	}
	return ids[0], nil
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

// List serves one page of the cluster-wide listing: every shard is
// consulted from its cursor, the per-shard (sorted, policy-filtered)
// pages are merged, and the first Limit entries are returned. Pages
// are epoch-checked: shards stamp their epoch on every page, so a stale
// map (or a shard mid-handoff) is always detected, and the whole page
// is then fetched again from the boundary under the newer map — no key
// is skipped or duplicated.
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
	var page *client.ListPage
	again := false
	err := r.attempts(ctx, func(ctx context.Context, m *ShardMap) (out outcome) {
		page, out = r.listOnce(ctx, m, opts, limit, buildCursors(m, opts, tok, again))
		again = true
		return out
	})
	return page, err
}

// buildCursors derives the per-shard resume positions for one page: the
// token's own cursors while they describe map m; else — the epoch
// changed, the vector does not cover the current shard set, or the page
// is being fetched again — every shard restarts just past the merge
// boundary.
func buildCursors(m *ShardMap, opts client.ListOptions, tok *routerToken, restart bool) map[int]routerCursor {
	start := []byte(opts.Start)
	if tok != nil && len(tok.Boundary) > 0 {
		start = []byte(successorKey(tok.Boundary))
	}
	restart = restart || tok == nil || tok.Epoch != m.Epoch
	for i := 0; !restart && i < len(m.Shards); i++ {
		_, ok := tok.Cursors[strconv.Itoa(m.Shards[i].ID)]
		restart = !ok
	}
	out := make(map[int]routerCursor, len(m.Shards))
	for i := range m.Shards {
		id := m.Shards[i].ID
		out[id] = routerCursor{Start: start}
		if !restart {
			out[id] = tok.Cursors[strconv.Itoa(id)]
		}
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

// fetchShardPages fetches the next want entries of every list,
// concurrently, and appends them — unless one shard's page was torn,
// refused or never came, which spoils the attempt for all.
func (r *Router) fetchShardPages(ctx context.Context, m *ShardMap, opts client.ListOptions, lists []*shardList) outcome {
	pages := make([]*client.ListPage, len(lists))
	groups := make([]group, len(lists))
	each(len(lists), func(i int) {
		l, g := lists[i], &groups[i]
		g.shard, g.items = l.shard, []int{i}
		var cl *client.Client
		if cl, g.err = r.clientFor(l.shard); g.err != nil {
			return
		}
		lopts := client.ListOptions{Prefix: opts.Prefix, Limit: l.want, Certs: opts.Certs}
		if l.cur.Token != "" {
			lopts.Token = l.cur.Token
		} else {
			lopts.Start = string(l.cur.Start)
		}
		if pages[i], g.err = cl.List(ctx, lopts); g.err == nil && pages[i].ShardEpoch != 0 && pages[i].ShardEpoch != m.Epoch {
			g.err = errTornPage
		}
	})
	out, _ := settle(groups, func(cur *ShardMap, i int) (*Shard, error) { return successor(cur, lists[i].shard) })
	if out.verdict != answered || out.err != nil {
		// However many shards spoiled it, what is sent again is the page.
		out.redo = 1
		return out
	}
	for i, l := range lists {
		page := pages[i]
		if l.entries == nil {
			l.entries = page.Entries
		} else {
			l.entries = append(l.entries, page.Entries...)
		}
		l.more = page.NextToken != ""
		if l.more {
			if len(l.entries) == 0 {
				return outcome{err: fmt.Errorf("cluster: shard %d continued a listing it returned nothing of", l.shard.ID)}
			}
			l.cur = routerCursor{Token: page.NextToken}
		}
	}
	return out
}

// listOnce assembles one page, or reports the outcome that spoiled it.
// Each active shard is asked for its share of the page, not a full page. The
// merge may only emit keys up to the horizon — the smallest last-key
// among shards that hold more — because past it a shard's unfetched
// entries could sort first; when that leaves the page short, only the
// shards bounding the horizon are asked again, for what is missing.
func (r *Router) listOnce(ctx context.Context, m *ShardMap, opts client.ListOptions, limit int, cursors map[int]routerCursor) (*client.ListPage, outcome) {
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
		if out := r.fetchShardPages(ctx, m, opts, pending); out.verdict != answered || out.err != nil {
			return nil, out
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
			return nil, outcome{err: err}
		}
		out.NextToken = token
	}
	return out, outcome{}
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
	return client.Drain(ctx, r.List, opts)
}
