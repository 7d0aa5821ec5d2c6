package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/obs"
)

// fault scripts how a fakeShard answers one request instead of serving
// it: the next request takes the head of the shard's fault queue.
type fault struct {
	kind faultKind
	then func() // runs after the answer is decided, before it is sent
}

type faultKind int

const (
	healthy    faultKind = iota
	wrongShard           // this shard no longer owns what it is asked for
	refuse               // the connection dies without an answer
	serverErr            // 500 in the error envelope
	denied               // 403 in the error envelope
)

// fakeShard answers the routes the router uses the way a controller
// does. A listing is up to limit sorted entries from start or past
// token, a NextToken only on a full page, the epoch it believes in
// stamped on every page; every other route answers success for whatever
// it is asked, unless a fault is queued.
type fakeShard struct {
	srv *httptest.Server

	mu     sync.Mutex
	keys   []string // sorted
	epoch  uint64
	asks   []int       // the limit of every listing request, in order
	onAsk  func(n int) // called with the listing request's ordinal, under mu
	faults []fault     // consumed one per request
	routes []string    // the X-Pesos-Route header of every request, in order
	bodies []string    // the body of every object PUT, in order
}

func newFakeShard(t *testing.T, epoch uint64, keys []string) *fakeShard {
	t.Helper()
	f := &fakeShard{keys: append([]string(nil), keys...), epoch: epoch}
	sort.Strings(f.keys)
	f.srv = httptest.NewUnstartedServer(http.HandlerFunc(f.serve))
	// One connection per request: net/http quietly re-sends a request whose
	// reused connection died, which would blur the dispatch counts.
	f.srv.Config.SetKeepAlivesEnabled(false)
	f.srv.Start()
	t.Cleanup(f.srv.Close)
	return f
}

func envelope(w http.ResponseWriter, status int, code core.ErrorCode) {
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]any{"error": client.OpError{Code: string(code), Message: "scripted"}})
}

func (f *fakeShard) serve(w http.ResponseWriter, r *http.Request) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.routes = append(f.routes, r.Header.Get(obs.RouteHeader))
	var ft fault
	if len(f.faults) > 0 {
		ft, f.faults = f.faults[0], f.faults[1:]
	}
	if ft.then != nil {
		ft.then()
	}
	var moved *client.OpError
	switch ft.kind {
	case refuse:
		conn, _, err := w.(http.Hijacker).Hijack()
		if err == nil {
			conn.Close()
		}
		return
	case serverErr:
		envelope(w, http.StatusInternalServerError, core.CodeInternal)
		return
	case denied:
		envelope(w, http.StatusForbidden, core.CodeDenied)
		return
	case wrongShard:
		moved = &client.OpError{Code: string(core.CodeWrongShard), Message: "scripted"}
	}
	key, isObject := strings.CutPrefix(r.URL.Path, "/v2/objects/")
	switch {
	case r.URL.Path == "/v2/objects":
		f.list(w, r, ft.kind == wrongShard)
	case isObject && r.Method == http.MethodGet:
		if moved != nil {
			envelope(w, http.StatusMisdirectedRequest, core.CodeWrongShard)
			return
		}
		w.Header().Set("X-Pesos-Version", "1")
		io.WriteString(w, "value of "+key)
	case isObject: // PUT, DELETE: an OpResult whatever the status
		body, _ := io.ReadAll(r.Body)
		f.bodies = append(f.bodies, string(body))
		if moved != nil {
			w.WriteHeader(http.StatusMisdirectedRequest)
		}
		json.NewEncoder(w).Encode(client.OpResult{Key: core.JSONKey(key), Version: 1, Err: moved})
	case r.URL.Path == "/v2/batch/get":
		var req struct{ Keys []core.JSONKey }
		json.NewDecoder(r.Body).Decode(&req)
		res := make([]client.BatchGetResult, len(req.Keys))
		for i, k := range req.Keys {
			res[i] = client.BatchGetResult{Key: k, Value: []byte("value of " + string(k)), Err: moved}
		}
		json.NewEncoder(w).Encode(map[string]any{"results": res})
	case r.URL.Path == "/v2/batch/put":
		var req struct{ Ops []client.BatchPutOp }
		json.NewDecoder(r.Body).Decode(&req)
		res := make([]client.OpResult, len(req.Ops))
		for i, op := range req.Ops {
			res[i] = client.OpResult{Key: op.Key, Version: 1, Err: moved}
		}
		json.NewEncoder(w).Encode(map[string]any{"results": res})
	case r.URL.Path == "/v2/tx": // aborts whole, in the envelope
		if moved != nil {
			envelope(w, http.StatusMisdirectedRequest, core.CodeWrongShard)
			return
		}
		var req core.TxRequest
		json.NewDecoder(r.Body).Decode(&req)
		reply := core.TxReply{Reads: []core.BatchGetResult{}, Writes: []core.OpResult{}}
		for _, k := range req.Keys {
			reply.Reads = append(reply.Reads, core.BatchGetResult{Key: k, Value: []byte("value of " + string(k)), Version: 1})
		}
		for _, op := range req.Ops {
			reply.Writes = append(reply.Writes, core.OpResult{Key: op.Key, Version: 2})
		}
		json.NewEncoder(w).Encode(reply)
	case r.URL.Path == "/v2/policies":
		json.NewEncoder(w).Encode(map[string]string{"id": "policy-1"})
	default:
		http.NotFound(w, r)
	}
}

// list serves one listing page; ahead stamps it with the epoch after
// the one the shard is at, as a shard that just adopted a handoff would.
func (f *fakeShard) list(w http.ResponseWriter, r *http.Request, ahead bool) {
	q := r.URL.Query()
	limit, _ := strconv.Atoi(q.Get("limit"))
	f.asks = append(f.asks, limit)
	if f.onAsk != nil {
		f.onAsk(len(f.asks))
	}
	from := sort.SearchStrings(f.keys, q.Get("start"))
	if tok := q.Get("token"); tok != "" {
		from = sort.SearchStrings(f.keys, strings.TrimPrefix(tok, "after:")+"\x00")
	}
	page := client.ListPage{Entries: []client.ListEntry{}, ShardEpoch: f.epoch}
	if ahead {
		page.ShardEpoch++
	}
	for _, k := range f.keys[from:] {
		if !strings.HasPrefix(k, q.Get("prefix")) {
			continue
		}
		page.Entries = append(page.Entries, client.ListEntry{Key: core.JSONKey(k)})
		if len(page.Entries) == limit {
			page.NextToken = "after:" + k
			break
		}
	}
	json.NewEncoder(w).Encode(page)
}

func (f *fakeShard) asked() []int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]int(nil), f.asks...)
}

// fakeMap is the shard map a fake cluster serves: equal hash ranges
// over the given shards, mutable so a test can move a shard to another
// endpoint the way a failover or handoff does.
type fakeMap struct {
	mu      sync.Mutex
	epoch   *atomic.Uint64
	entries []Shard
	onFetch func(n int) // called with the fetch's ordinal
	fetches int
}

// retarget points shard id at another fake and publishes the next epoch.
func (fm *fakeMap) retarget(id int, to *fakeShard) uint64 {
	fm.mu.Lock()
	defer fm.mu.Unlock()
	fm.entries[id].Endpoint = to.srv.URL
	return fm.epoch.Add(1)
}

// adopt moves a shard to epoch e; for use outside its own fault hooks,
// which run under mu already.
func (f *fakeShard) adopt(e uint64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.epoch = e
}

// fakeCluster is a router over fake shards with equal hash ranges; the
// served map follows epoch.
func fakeCluster(t *testing.T, epoch *atomic.Uint64, shards ...*fakeShard) *Router {
	r, _ := fakeClusterMap(t, epoch, shards...)
	return r
}

func fakeClusterMap(t *testing.T, epoch *atomic.Uint64, shards ...*fakeShard) (*Router, *fakeMap) {
	t.Helper()
	key := testKey(t)
	fm := &fakeMap{epoch: epoch, entries: make([]Shard, len(shards))}
	for i, f := range shards {
		fm.entries[i] = Shard{ID: i, Endpoint: f.srv.URL, Drives: []string{"d"}, Replicas: 1}
	}
	r, err := NewRouter(RouterConfig{
		Key: key,
		Source: MapSourceFunc(func(context.Context) ([]byte, error) {
			fm.mu.Lock()
			fm.fetches++
			n, hook := fm.fetches, fm.onFetch
			m, err := UniformMap(append([]Shard(nil), fm.entries...))
			fm.mu.Unlock()
			if err != nil {
				return nil, err
			}
			if hook != nil {
				hook(n)
			}
			m.Epoch = epoch.Load()
			return SignMap(key, m)
		}),
		NewClient: func(s Shard) (*client.Client, error) {
			return client.New(client.Config{BaseURL: s.Endpoint}), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return r, fm
}

func numbered(prefix string, from, to int) []string {
	var out []string
	for i := from; i < to; i++ {
		out = append(out, fmt.Sprintf("%s%04d", prefix, i))
	}
	return out
}

// drain pages through a listing and checks every page: at most limit
// entries, exactly limit while more remain, ascending across pages.
func drain(t *testing.T, r *Router, limit int) []string {
	t.Helper()
	var got []string
	opts := client.ListOptions{Limit: limit}
	for pages := 0; ; pages++ {
		if pages > 10000 {
			t.Fatal("listing does not terminate")
		}
		page, err := r.List(context.Background(), opts)
		if err != nil {
			t.Fatalf("page %d: %v", pages, err)
		}
		if len(page.Entries) > limit || (page.NextToken != "" && len(page.Entries) != limit) {
			t.Fatalf("page %d: %d entries at limit %d, token %t", pages, len(page.Entries), limit, page.NextToken != "")
		}
		for _, e := range page.Entries {
			if len(got) > 0 && string(e.Key) <= got[len(got)-1] {
				t.Fatalf("page %d: %q after %q", pages, e.Key, got[len(got)-1])
			}
			got = append(got, string(e.Key))
		}
		if page.NextToken == "" {
			return got
		}
		opts.Token = page.NextToken
	}
}

// TestListWorstSkew: every key lives on one shard, so its share never
// fills a page; the top-up must, and the tokens must carry on from it.
func TestListWorstSkew(t *testing.T) {
	var epoch atomic.Uint64
	epoch.Store(3)
	keys := numbered("k/", 0, 95)
	full, empty := newFakeShard(t, 3, keys), newFakeShard(t, 3, nil)
	r := fakeCluster(t, &epoch, full, empty)

	page, err := r.List(context.Background(), client.ListOptions{Limit: 20})
	if err != nil {
		t.Fatal(err)
	}
	if len(page.Entries) != 20 || string(page.Entries[19].Key) != keys[19] {
		t.Fatalf("first page: %d entries ending %q, want 20 ending %q", len(page.Entries), page.Entries[len(page.Entries)-1].Key, keys[19])
	}
	if asks := full.asked(); len(asks) != 2 || asks[0] >= 20 || asks[0]+asks[1] != 20 {
		t.Fatalf("skewed shard was asked %v, want a share then exactly the rest of the page", asks)
	}
	if n := r.Stats().ListTopUps.Load(); n != 1 {
		t.Fatalf("ListTopUps = %d, want 1", n)
	}
	if got := drain(t, r, 20); fmt.Sprint(got) != fmt.Sprint(keys) {
		t.Fatalf("drained %d keys, want %d:\n%v", len(got), len(keys), got)
	}
	if asks := empty.asked(); len(asks) != 2 {
		t.Fatalf("exhausted shard was asked %d times, want once per listing", len(asks))
	}
}

// TestListTokenContinuity: uneven shards, page sizes from tiny to
// larger than the listing; every key exactly once, in order, whether a
// page was topped up or not.
func TestListTokenContinuity(t *testing.T) {
	var epoch atomic.Uint64
	epoch.Store(1)
	// Runs of keys alternate between shards in uneven lengths, so some
	// pages fall inside one shard's run and some straddle several.
	var a, b, all []string
	for i, run := 0, 0; i < 400; run++ {
		n := 1 + (run*7)%23
		dst := &a
		if run%2 == 1 {
			dst = &b
		}
		for j := 0; j < n && i < 400; j, i = j+1, i+1 {
			k := fmt.Sprintf("o/%04d", i)
			*dst = append(*dst, k)
			all = append(all, k)
		}
	}
	sa, sb := newFakeShard(t, 1, a), newFakeShard(t, 1, b)
	r := fakeCluster(t, &epoch, sa, sb)
	for _, limit := range []int{1, 2, 3, 4, 7, 25, 100, 399, 400, 512} {
		if got := drain(t, r, limit); fmt.Sprint(got) != fmt.Sprint(all) {
			t.Fatalf("limit %d: drained %d keys, want %d", limit, len(got), len(all))
		}
	}
	if r.Stats().ListTopUps.Load() == 0 {
		t.Fatal("no page needed a top-up: the runs were meant to force some")
	}
}

// TestListEpochChangeDuringTopUp: the top-up fetch is answered under a
// newer epoch than the first fetch. The page must be rebuilt from the
// boundary under one epoch, not stitched from two.
func TestListEpochChangeDuringTopUp(t *testing.T) {
	var epoch atomic.Uint64
	epoch.Store(5)
	keys := numbered("e/", 0, 60)
	// The other shard holds one far key, so it stays in the listing (and
	// the skewed shard's share stays short of a page) without ever
	// bounding the merge.
	full, other := newFakeShard(t, 5, keys), newFakeShard(t, 5, []string{"e/9999"})
	r := fakeCluster(t, &epoch, full, other)

	first, err := r.List(context.Background(), client.ListOptions{Limit: 10})
	if err != nil || len(first.Entries) != 10 {
		t.Fatalf("first page: %v", err)
	}
	// The next page's top-up (the shard's 4th request) lands after a
	// handoff committed: map and shards are at epoch 6 from then on.
	full.mu.Lock()
	before := len(full.asks)
	full.onAsk = func(n int) {
		if n == before+2 {
			epoch.Store(6)
			full.epoch = 6
			other.mu.Lock()
			other.epoch = 6
			other.mu.Unlock()
		}
	}
	full.mu.Unlock()
	second, err := r.List(context.Background(), client.ListOptions{Limit: 10, Token: first.NextToken})
	if err != nil {
		t.Fatal(err)
	}
	if second.ShardEpoch != 6 {
		t.Fatalf("page epoch %d, want the retried page at 6", second.ShardEpoch)
	}
	for i, e := range second.Entries {
		if string(e.Key) != keys[10+i] {
			t.Fatalf("entry %d after the epoch change is %q, want %q", i, e.Key, keys[10+i])
		}
	}
	if len(second.Entries) != 10 {
		t.Fatalf("retried page has %d entries, want 10", len(second.Entries))
	}
}

// TestListAsksEachShardForItsShare pins what a shard is asked for.
func TestListAsksEachShardForItsShare(t *testing.T) {
	var epoch atomic.Uint64
	epoch.Store(1)
	keys := numbered("s/", 0, 300)
	var even, odd []string
	for i, k := range keys {
		if i%2 == 0 {
			even = append(even, k)
		} else {
			odd = append(odd, k)
		}
	}
	two := []*fakeShard{newFakeShard(t, 1, even), newFakeShard(t, 1, odd)}
	r := fakeCluster(t, &epoch, two...)
	for _, c := range []struct{ limit, want int }{
		{1, 1}, {2, 2}, {3, 3}, // tiny pages: a share would save nothing
		{4, 4}, {16, 12}, {100, 60}, {512, 279},
	} {
		for _, f := range two {
			f.mu.Lock()
			f.asks = nil
			f.mu.Unlock()
		}
		page, err := r.List(context.Background(), client.ListOptions{Limit: c.limit})
		if err != nil || len(page.Entries) != min(c.limit, len(keys)) {
			t.Fatalf("limit %d: %d entries, %v", c.limit, len(page.Entries), err)
		}
		for i, f := range two {
			if asks := f.asked(); len(asks) != 1 || asks[0] != c.want {
				t.Errorf("limit %d: shard %d asked %v, want [%d]", c.limit, i, asks, c.want)
			}
		}
	}

	solo := newFakeShard(t, 1, keys)
	r1 := fakeCluster(t, &epoch, solo)
	if _, err := r1.List(context.Background(), client.ListOptions{Limit: 100}); err != nil {
		t.Fatal(err)
	}
	if asks := solo.asked(); len(asks) != 1 || asks[0] != 100 {
		t.Errorf("single shard asked %v, want [100]", asks)
	}
}

func FuzzDecodeRouterToken(f *testing.F) {
	good, err := encodeRouterToken(&routerToken{Epoch: 7, Boundary: []byte("k\xff"), Cursors: map[string]routerCursor{
		"0": {Token: "t"}, "1": {Start: []byte("s")}, "2": {Done: true},
	}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add("")
	f.Add("e30")
	f.Add("!!not-base64!!")
	f.Fuzz(func(t *testing.T, s string) {
		tok, err := decodeRouterToken(s)
		if err != nil {
			return
		}
		// Whatever decodes must be usable: cursors for any map, and a
		// token that encodes again.
		m := &ShardMap{Epoch: tok.Epoch, Shards: []Shard{{ID: 0}, {ID: 1}}}
		if got := buildCursors(m, client.ListOptions{}, tok, false); len(got) != 2 {
			t.Fatalf("cursors for %d of 2 shards", len(got))
		}
		if _, err := encodeRouterToken(tok); err != nil {
			t.Fatalf("decoded token does not encode: %v", err)
		}
	})
}
