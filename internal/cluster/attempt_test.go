package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/core"
)

// attemptRig is a two-shard fake cluster (a owns shard 0, b shard 1)
// with a spare controller c that a row can move shard 0 to, and keys
// known to hash to each shard.
type attemptRig struct {
	r       *Router
	fm      *fakeMap
	a, b, c *fakeShard
	k0, k1  []string // keys owned by shard 0 / shard 1
	ctx     context.Context
	cancel  context.CancelFunc
}

func newAttemptRig(t *testing.T) *attemptRig {
	t.Helper()
	var epoch atomic.Uint64
	epoch.Store(1)
	g := &attemptRig{
		a: newFakeShard(t, 1, []string{"l/1", "l/3", "l/5"}),
		b: newFakeShard(t, 1, []string{"l/2", "l/4"}),
		c: newFakeShard(t, 1, []string{"l/1", "l/3", "l/5"}),
	}
	g.r, g.fm = fakeClusterMap(t, &epoch, g.a, g.b)
	for i := 0; len(g.k0) < 3 || len(g.k1) < 2; i++ {
		k := fmt.Sprintf("key-%d", i)
		s, err := g.r.Map().OwnerOf(k)
		if err != nil {
			t.Fatal(err)
		}
		if s.ID == 0 && len(g.k0) < 3 {
			g.k0 = append(g.k0, k)
		} else if s.ID == 1 && len(g.k1) < 2 {
			g.k1 = append(g.k1, k)
		}
	}
	g.ctx, g.cancel = context.WithCancel(context.Background())
	t.Cleanup(g.cancel)
	return g
}

// failover is a fault hook: shard 0 moves from a to c under the next
// epoch, which every controller adopts. It runs under a's mu.
func (g *attemptRig) failover() {
	e := g.fm.retarget(0, g.c)
	g.a.epoch = e
	g.b.adopt(e)
	g.c.adopt(e)
}

// failoverMidPage is failover for a listing, whose pages are fetched
// concurrently: it waits until b has served its page of the attempt, so
// that exactly one page of it — a's — is from the wrong epoch.
func (g *attemptRig) failoverMidPage() {
	for served := 0; served == 0; time.Sleep(time.Millisecond) {
		g.b.mu.Lock()
		served = len(g.b.routes)
		g.b.mu.Unlock()
	}
	g.failover()
}

// churn is a fault hook: the map moves on to the next epoch and still
// names a as the owner — a cascade of rebalances the router never
// catches up with.
func (g *attemptRig) churn() { g.fm.retarget(0, g.a) }

// mixed is a batch over both shards, in an order that interleaves them.
func (g *attemptRig) mixed() []string {
	return []string{g.k0[0], g.k1[0], g.k0[1], g.k1[1], g.k0[2]}
}

func repeat(f fault, n int) []fault {
	out := make([]fault, n)
	for i := range out {
		out[i] = f
	}
	return out
}

const (
	first      = "attempt=1;redirects=0;retargets=0"
	redirected = "attempt=2;redirects=1;retargets=0"
	retargeted = "attempt=2;redirects=0;retargets=1"
)

// TestAttemptLoop drives every verdict through every shape of operation
// and pins what each costs: how often each controller was dispatched to,
// the four stats words, and the routing context each dispatch carried.
func TestAttemptLoop(t *testing.T) {
	get := func(g *attemptRig) error {
		v, meta, err := g.r.Get(g.ctx, g.k0[0], client.GetOptions{})
		if err == nil && (string(v) != "value of "+g.k0[0] || meta.Version != 1) {
			return fmt.Errorf("got %q at version %d", v, meta.Version)
		}
		return err
	}
	put := func(g *attemptRig) error {
		res, err := g.r.Put(g.ctx, g.k0[0], []byte("v"), client.PutOptions{})
		if err == nil && (res.Err != nil || string(res.Key) != g.k0[0]) {
			return fmt.Errorf("result %+v", res)
		}
		return err
	}
	batchGet := func(g *attemptRig) error {
		keys := g.mixed()
		res, err := g.r.BatchGet(g.ctx, keys)
		for i := range res {
			if err == nil && (res[i].Err != nil || string(res[i].Key) != keys[i] || string(res[i].Value) != "value of "+keys[i]) {
				return fmt.Errorf("result %d for %q: %+v", i, keys[i], res[i])
			}
		}
		return err
	}
	batchPut := func(g *attemptRig) error {
		var ops []client.BatchPutOp
		for _, k := range g.mixed() {
			ops = append(ops, client.BatchPutOp{Key: core.JSONKey(k), Value: []byte("v")})
		}
		res, err := g.r.BatchPut(g.ctx, ops)
		for i := range res {
			if err == nil && (res[i].Err != nil || res[i].Key != ops[i].Key) {
				return fmt.Errorf("result %d for %q: %+v", i, ops[i].Key, res[i])
			}
		}
		return err
	}
	list := func(g *attemptRig) error {
		page, err := g.r.List(g.ctx, client.ListOptions{Prefix: "l/", Limit: 10})
		if err != nil {
			return err
		}
		var got []string
		for _, e := range page.Entries {
			got = append(got, string(e.Key))
		}
		if want := []string{"l/1", "l/2", "l/3", "l/4", "l/5"}; !reflect.DeepEqual(got, want) || page.NextToken != "" {
			return fmt.Errorf("listed %v (more: %t), want %v", got, page.NextToken != "", want)
		}
		return nil
	}
	// transact reads one key of shard 0 and writes another.
	transact := func(g *attemptRig) error {
		res, err := g.r.Transact(g.ctx, g.k0[:1], []client.BatchPutOp{{Key: core.JSONKey(g.k0[1]), Value: []byte("v")}})
		if err == nil && (len(res.Reads) != 1 || string(res.Reads[0].Value) != "value of "+g.k0[0] ||
			len(res.Writes) != 1 || string(res.Writes[0].Key) != g.k0[1] || res.Writes[0].Version != 2) {
			return fmt.Errorf("result %+v", res)
		}
		return err
	}
	putPolicy := func(g *attemptRig) error {
		id, err := g.r.PutPolicy(g.ctx, "read :- sessionKeyIs(k)")
		if err == nil && id != "policy-1" {
			return fmt.Errorf("policy id %q", id)
		}
		return err
	}
	status := func(code int) func(error) bool {
		return func(err error) bool {
			var opErr *client.OpError
			return errors.As(err, &opErr) && opErr.Status == code
		}
	}
	unanswered := func(err error) bool {
		var opErr *client.OpError
		return err != nil && !errors.As(err, &opErr) && !errors.Is(err, context.Canceled)
	}

	type counts struct{ redirects, retargets, retries, maxPerOp uint64 }
	rows := []struct {
		name string
		// faults queues answers on controller a; each hook is bound to the
		// row's rig.
		faults func(g *attemptRig) []fault
		// arm runs after the rig is up, before the operation.
		arm     func(g *attemptRig)
		op      func(g *attemptRig) error
		wantErr func(error) bool // nil: the operation succeeds
		// dispatches to a, b, c.
		dispatches [3]int
		stats      counts
		// routes is the X-Pesos-Route of every dispatch to a, b, c in order;
		// nil skips the check.
		routes [][]string
	}{
		// A single key: one group, every verdict.
		{name: "get/moved: transport-level wrong_shard",
			faults: func(g *attemptRig) []fault { return []fault{{wrongShard, g.failover}} }, op: get,
			dispatches: [3]int{1, 0, 1}, stats: counts{1, 0, 1, 1},
			routes: [][]string{{first}, nil, {redirected}}},
		{name: "put/moved: per-op wrong_shard",
			faults: func(g *attemptRig) []fault { return []fault{{wrongShard, g.failover}} }, op: put,
			dispatches: [3]int{1, 0, 1}, stats: counts{1, 0, 1, 1},
			routes: [][]string{{first}, nil, {redirected}}},
		{name: "stream put/moved: the body is replayed",
			faults: func(g *attemptRig) []fault { return []fault{{wrongShard, g.failover}} },
			op: func(g *attemptRig) error {
				const payload = "a streamed body, twice"
				opens := 0
				res, err := g.r.PutStream(g.ctx, g.k0[0], func() (io.Reader, error) {
					opens++
					return strings.NewReader(payload), nil
				}, client.PutOptions{})
				if err != nil || res.Err != nil {
					return fmt.Errorf("%v / %v", err, res.Err)
				}
				if opens != 2 || !reflect.DeepEqual(g.a.bodies, []string{payload}) || !reflect.DeepEqual(g.c.bodies, []string{payload}) {
					return fmt.Errorf("opened %d times; old owner got %q, new owner %q", opens, g.a.bodies, g.c.bodies)
				}
				return nil
			},
			dispatches: [3]int{1, 0, 1}, stats: counts{1, 0, 1, 1},
			routes: [][]string{{first}, nil, {redirected}}},
		{name: "get/unreachable once, then healthy",
			faults: func(*attemptRig) []fault { return []fault{{kind: refuse}} }, op: get,
			dispatches: [3]int{2, 0, 0}, stats: counts{0, 1, 1, 0},
			routes: [][]string{{first, retargeted}, nil, nil}},
		{name: "get/unreachable twice",
			faults: func(*attemptRig) []fault { return repeat(fault{kind: refuse}, 2) }, op: get, wantErr: unanswered,
			dispatches: [3]int{2, 0, 0}, stats: counts{0, 1, 1, 0},
			routes: [][]string{{first, retargeted}, nil, nil}},
		{name: "get/fenced: 5xx and the owner did not change",
			faults: func(*attemptRig) []fault { return []fault{{kind: serverErr}} }, op: get, wantErr: status(500),
			dispatches: [3]int{1, 0, 0}, stats: counts{0, 0, 0, 0},
			routes: [][]string{{first}, nil, nil}},
		{name: "get/fenced: 5xx and the owner changed",
			faults: func(g *attemptRig) []fault { return []fault{{serverErr, g.failover}} }, op: get,
			dispatches: [3]int{1, 0, 1}, stats: counts{0, 1, 1, 0},
			routes: [][]string{{first}, nil, {retargeted}}},
		// A denial is final: one dispatch, no refresh, no back-off. The
		// second queued 403 is never asked for.
		{name: "get/denied is an answer",
			faults: func(*attemptRig) []fault { return repeat(fault{kind: denied}, 2) }, op: get,
			wantErr: func(err error) bool {
				var opErr *client.OpError
				return errors.Is(err, client.ErrDenied) && errors.As(err, &opErr) && opErr.Status == 403
			},
			dispatches: [3]int{1, 0, 0}, stats: counts{0, 0, 0, 0},
			routes: [][]string{{first}, nil, nil}},
		{name: "get/cancelled during the back-off",
			faults: func(*attemptRig) []fault { return []fault{{kind: refuse}} },
			arm:    func(g *attemptRig) { g.fm.onFetch = func(int) { g.cancel() } }, op: get,
			wantErr:    func(err error) bool { return errors.Is(err, context.Canceled) },
			dispatches: [3]int{1, 0, 0}, stats: counts{0, 1, 0, 0},
			routes: [][]string{{first}, nil, nil}},

		// A batch: one group per shard, only the spoiled one goes again.
		{name: "batch get/moved: RouteInfo on the re-dispatch",
			faults: func(g *attemptRig) []fault { return []fault{{wrongShard, g.failover}} }, op: batchGet,
			dispatches: [3]int{1, 1, 1}, stats: counts{3, 0, 3, 1},
			routes: [][]string{{first}, {first}, {redirected}}},
		{name: "batch put/unreachable once, then healthy",
			faults: func(*attemptRig) []fault { return []fault{{kind: refuse}} }, op: batchPut,
			dispatches: [3]int{2, 1, 0}, stats: counts{0, 1, 3, 0}},
		{name: "batch get/unreachable twice",
			faults: func(*attemptRig) []fault { return repeat(fault{kind: refuse}, 2) }, op: batchGet, wantErr: unanswered,
			dispatches: [3]int{2, 1, 0}, stats: counts{0, 1, 3, 0}},
		{name: "batch get/moved past the budget: wrong_shard stays visible",
			faults: func(g *attemptRig) []fault { return repeat(fault{wrongShard, g.churn}, maxRedirects+1) },
			op: func(g *attemptRig) error {
				keys := g.mixed()
				res, err := g.r.BatchGet(g.ctx, keys)
				if err != nil {
					return err
				}
				for i, k := range keys {
					wrong := res[i].Err != nil && res[i].Err.Code == string(core.CodeWrongShard)
					if s, _ := g.r.Map().OwnerOf(k); wrong != (s.ID == 0) {
						return fmt.Errorf("result %d (shard %d): %+v", i, s.ID, res[i])
					}
				}
				return nil
			},
			dispatches: [3]int{maxRedirects + 1, 1, 0},
			stats:      counts{3 * (maxRedirects + 1), 0, 3 * maxRedirects, maxRedirects}},
		{name: "batch get/fenced: 5xx and the owner did not change",
			faults: func(*attemptRig) []fault { return []fault{{kind: serverErr}} }, op: batchGet, wantErr: status(500),
			dispatches: [3]int{1, 1, 0}, stats: counts{0, 0, 0, 0}},
		{name: "batch put/fenced: to an owner whose shard moved",
			faults: func(g *attemptRig) []fault { return []fault{{serverErr, g.failover}} }, op: batchPut,
			dispatches: [3]int{1, 1, 1}, stats: counts{0, 1, 3, 0},
			routes: [][]string{{first}, {first}, {retargeted}}},

		// A transaction: one request to the one shard that owns its keys,
		// aborted whole by a wrong_shard, so re-dispatched like a single put.
		{name: "tx/moved: the envelope's wrong_shard",
			faults: func(g *attemptRig) []fault { return []fault{{wrongShard, g.failover}} }, op: transact,
			dispatches: [3]int{1, 0, 1}, stats: counts{1, 0, 1, 1},
			routes: [][]string{{first}, nil, {redirected}}},
		{name: "tx/unreachable once, then healthy",
			faults: func(*attemptRig) []fault { return []fault{{kind: refuse}} }, op: transact,
			dispatches: [3]int{2, 0, 0}, stats: counts{0, 1, 1, 0},
			routes: [][]string{{first, retargeted}, nil, nil}},
		{name: "tx/fenced: 5xx and the owner did not change",
			faults: func(*attemptRig) []fault { return []fault{{kind: serverErr}} }, op: transact, wantErr: status(500),
			dispatches: [3]int{1, 0, 0}, stats: counts{0, 0, 0, 0}},
		{name: "tx/keys span shards: refused, nothing sent",
			faults: func(*attemptRig) []fault { return nil },
			op: func(g *attemptRig) error {
				res, err := g.r.Transact(g.ctx, g.k0[:1], []client.BatchPutOp{{Key: core.JSONKey(g.k1[0])}})
				if res != nil {
					return fmt.Errorf("result %+v", res)
				}
				return err
			},
			wantErr:    func(err error) bool { return err != nil && strings.Contains(err.Error(), "spans shards") },
			dispatches: [3]int{0, 0, 0}, stats: counts{0, 0, 0, 0}},

		// A listing page: one spoiled shard sends the whole page again.
		{name: "list/moved: a page from the next epoch, RouteInfo on the re-dispatch",
			faults: func(g *attemptRig) []fault { return []fault{{wrongShard, g.failoverMidPage}} }, op: list,
			dispatches: [3]int{1, 2, 1}, stats: counts{1, 0, 1, 1},
			routes: [][]string{{first}, {first, redirected}, {redirected}}},
		{name: "list/unreachable once, then healthy",
			faults: func(*attemptRig) []fault { return []fault{{kind: refuse}} }, op: list,
			dispatches: [3]int{2, 2, 0}, stats: counts{0, 1, 1, 0},
			routes: [][]string{{first, retargeted}, {first, retargeted}, nil}},
		{name: "list/unreachable twice",
			faults: func(*attemptRig) []fault { return repeat(fault{kind: refuse}, 2) }, op: list, wantErr: unanswered,
			dispatches: [3]int{2, 2, 0}, stats: counts{0, 1, 1, 0}},

		// A policy put: every shard is an item, followed by id.
		{name: "put policy/answered",
			faults: func(*attemptRig) []fault { return nil }, op: putPolicy,
			dispatches: [3]int{1, 1, 0}, stats: counts{0, 0, 0, 0}},
		{name: "put policy/unreachable once, then healthy",
			faults: func(*attemptRig) []fault { return []fault{{kind: refuse}} }, op: putPolicy,
			dispatches: [3]int{2, 1, 0}, stats: counts{0, 1, 1, 0},
			routes: [][]string{{first, retargeted}, {first}, nil}},
		{name: "put policy/fenced: the shard failed over",
			faults: func(g *attemptRig) []fault { return []fault{{serverErr, g.failover}} }, op: putPolicy,
			dispatches: [3]int{1, 1, 1}, stats: counts{0, 1, 1, 0},
			routes: [][]string{{first}, {first}, {retargeted}}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			g := newAttemptRig(t)
			g.a.faults = row.faults(g)
			if row.arm != nil {
				row.arm(g)
			}
			err := row.op(g)
			if row.wantErr == nil && err != nil {
				t.Fatalf("operation failed: %v", err)
			}
			if row.wantErr != nil && !row.wantErr(err) {
				t.Fatalf("operation ended with %v, not the failure the row names", err)
			}
			st := g.r.Stats()
			if got := (counts{st.Redirects.Load(), st.Retargets.Load(), st.Retries.Load(), st.MaxRedirectsPerOp.Load()}); got != row.stats {
				t.Errorf("stats {redirects retargets retries maxPerOp} = %v, want %v", got, row.stats)
			}
			for i, f := range []*fakeShard{g.a, g.b, g.c} {
				f.mu.Lock()
				routes := f.routes
				f.mu.Unlock()
				if len(routes) != row.dispatches[i] {
					t.Errorf("controller %c was dispatched to %d times, want %d", 'a'+i, len(routes), row.dispatches[i])
				}
				if row.routes != nil && row.routes[i] != nil && !reflect.DeepEqual(routes, row.routes[i]) {
					t.Errorf("controller %c saw routes %q, want %q", 'a'+i, routes, row.routes[i])
				}
			}
		})
	}
}

// TestTxCommonOwner: a transaction is routed to the one shard that owns
// every key it names; with none — no key, or keys of two shards — there is
// nowhere to send it.
func TestTxCommonOwner(t *testing.T) {
	g := newAttemptRig(t)
	m := g.r.Map()
	for _, tc := range []struct {
		name string
		keys []string
		want int // shard id, -1 for a refusal
	}{
		{"one key", g.k1[:1], 1},
		{"all of one shard", g.k0, 0},
		{"a key repeated", []string{g.k1[0], g.k1[1], g.k1[0]}, 1},
		{"no key", nil, -1},
		{"two shards", g.mixed(), -1},
		{"two shards, the odd one last", append(append([]string(nil), g.k0...), g.k1[0]), -1},
	} {
		s, err := commonOwner(m, tc.keys)
		if got := (err == nil); got != (tc.want >= 0) || got && s.ID != tc.want {
			t.Errorf("%s: shard %+v, %v; want shard %d", tc.name, s, err, tc.want)
		}
		if err != nil && s != nil {
			t.Errorf("%s: refused and routed to shard %d", tc.name, s.ID)
		}
	}
}
