package testbed

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sort"
	"strconv"
	"sync"
	"testing"

	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/netx"
	"repro/internal/store"
	"repro/internal/tlsutil"
)

// TestTxThroughRouter is the router's answer for a transaction on a
// two-shard cluster: one whose keys share a shard commits there; one
// whose keys span shards is refused before any controller hears of it;
// and concurrent conditional transfers between two accounts of one shard
// — through the baseline, a handoff of the accounts' range, and a
// partition from the old owner — are serializable: they form one chain in
// which every transfer read exactly what its predecessor wrote, the sum
// is conserved, and every acknowledged commit stays readable.
func TestTxThroughRouter(t *testing.T) {
	mc, err := StartMulti(2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer mc.Close()
	ctx := context.Background()

	// Every router reaches shard 0's controller through one link, which
	// the partition phase cuts.
	old := mc.nodeByEndpoint(mc.Map().ShardByID(0).Endpoint)
	var link netx.Link
	newRouter := func(name string) *cluster.Router {
		id, err := mc.CA.IssueClient(name)
		if err != nil {
			t.Fatal(err)
		}
		r, err := cluster.NewRouter(cluster.RouterConfig{
			Key: mc.MapKey, Source: mc.mapSource(),
			NewClient: func(s cluster.Shard) (*client.Client, error) {
				node := mc.nodeByEndpoint(s.Endpoint)
				return client.New(client.Config{
					BaseURL: "https://" + s.Endpoint,
					TLS:     tlsutil.ClientConfig(id, mc.CA.Pool(), s.Endpoint),
					DialContext: func(ctx context.Context, _, _ string) (net.Conn, error) {
						if node == old {
							return link.Dial(ctx, node.restLn.DialContext)
						}
						return node.restLn.DialContext(ctx)
					},
				}), nil
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}

	// Two accounts in the upper half of shard 0's range — the half that
	// will move — and one key of shard 1.
	own := mc.Map().ShardByID(0).Ranges[0]
	moved := core.HashRange{Start: (own.Start + own.End) / 2, End: own.End}
	var accounts []string
	foreign := ""
	for i := 0; len(accounts) < 2 || foreign == ""; i++ {
		k := fmt.Sprintf("acct/%d", i)
		switch h := store.ShardHash(k); {
		case moved.Contains(h) && len(accounts) < 2:
			accounts = append(accounts, k)
		case !own.Contains(h):
			foreign = k
		}
	}
	const total = 1000
	r := newRouter("teller")
	put := func(k string, v int) client.BatchPutOp {
		return client.BatchPutOp{Key: core.JSONKey(k), Value: []byte(strconv.Itoa(v))}
	}

	// A transaction whose keys share a shard commits on it.
	res, err := r.Transact(ctx, nil, []client.BatchPutOp{put(accounts[0], total/2), put(accounts[1], total/2)})
	if err != nil || len(res.Writes) != 2 || res.Writes[0].Version != 0 || res.Writes[1].Version != 0 {
		t.Fatalf("single-shard transaction: %+v, %v", res, err)
	}

	// One whose keys span shards is refused, and no controller hears of it.
	heard := func() (n uint64) {
		for _, node := range mc.Nodes {
			st := node.Controller.Stats().Snapshot()
			n += st.TxCommits + st.TxAborts
		}
		return n
	}
	before := heard()
	if res, err := r.Transact(ctx, []string{foreign}, []client.BatchPutOp{put(accounts[0], 0)}); err == nil || res != nil {
		t.Fatalf("cross-shard transaction: %+v, %v", res, err)
	}
	if res, err := r.Transact(ctx, nil, []client.BatchPutOp{put(accounts[0], 0), put(foreign, 0)}); err == nil || res != nil {
		t.Fatalf("cross-shard transaction: %+v, %v", res, err)
	}
	if after := heard(); after != before {
		t.Errorf("a refused cross-shard transaction reached a controller: %d transaction requests, was %d", after, before)
	}

	// transfer is one committed transfer: the version it wrote to both
	// accounts, the balances it read and the balances it wrote.
	type transfer struct {
		version int64
		read    [2]int
		wrote   [2]int
	}
	// A worker moves amount from one account to the other until told to
	// stop: a read-only transaction snapshots both balances and versions,
	// a writing one commits on condition that neither moved, a version
	// conflict starts over. Every commit is acknowledged on acks.
	acks := make(chan transfer)
	errs := make(chan error, 4) // one per worker: a worker's failure is its last word
	stop := make(chan struct{})
	var wg sync.WaitGroup
	work := func(r *cluster.Router, amount int) {
		defer wg.Done()
		for {
			snap, err := r.Transact(ctx, accounts, nil)
			if err != nil {
				errs <- fmt.Errorf("snapshot: %w", err)
				return
			}
			var tr transfer
			ops := make([]client.BatchPutOp, 2)
			for i, rd := range snap.Reads {
				if rd.Err != nil {
					errs <- fmt.Errorf("snapshot of %q: %w", rd.Key, rd.Err)
					return
				}
				tr.read[i], _ = strconv.Atoi(string(rd.Value))
				tr.wrote[i] = tr.read[i] + amount*(1-2*i)
				ops[i] = put(accounts[i], tr.wrote[i])
				ops[i].Version, ops[i].HasVersion = rd.Version+1, true
			}
			res, err := r.Transact(ctx, nil, ops)
			var opErr *client.OpError
			if errors.As(err, &opErr) && opErr.Code == string(core.CodeVersionConflict) {
				select {
				case <-stop:
					return
				default:
					continue
				}
			}
			if err != nil {
				errs <- fmt.Errorf("transfer: %w", err)
				return
			}
			if res.Writes[0].Version != res.Writes[1].Version {
				errs <- fmt.Errorf("one transfer wrote versions %d and %d", res.Writes[0].Version, res.Writes[1].Version)
				return
			}
			tr.version = res.Writes[0].Version
			select {
			case acks <- tr:
			case <-stop:
				// Committed all the same: the chain below must have it.
				acks <- tr
				return
			}
		}
	}
	var chain []transfer
	// finish stops the workers and collects what they still acknowledge.
	finish := func() {
		close(stop)
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		for {
			select {
			case tr := <-acks:
				chain = append(chain, tr)
			case <-done:
				return
			}
		}
	}
	// await collects n more acknowledgements.
	await := func(n int) {
		for ; n > 0; n-- {
			select {
			case tr := <-acks:
				chain = append(chain, tr)
			case err := <-errs:
				finish()
				t.Fatal(err)
			}
		}
	}
	routers := []*cluster.Router{newRouter("w0"), newRouter("w1"), newRouter("w2")}
	late := newRouter("late") // holds the first map until the partition
	for i, r := range routers {
		wg.Add(1)
		go work(r, 1+i)
	}

	await(10) // baseline
	if _, err := mc.Handoff(ctx, 0, 1, moved); err != nil {
		t.Fatalf("handoff: %v", err)
	}
	await(10) // the range has a new owner; each worker is redirected once
	link.Cut()
	wg.Add(1)
	go work(late, -2) // its map still names the old owner, now unreachable
	await(20)
	finish()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}

	// One chain: versions 1..n, each transfer reading what the one before
	// it wrote and conserving the sum.
	sort.Slice(chain, func(i, j int) bool { return chain[i].version < chain[j].version })
	prev := [2]int{total / 2, total / 2}
	for i, tr := range chain {
		if tr.version != int64(i+1) || tr.read != prev || tr.wrote[0]+tr.wrote[1] != total {
			t.Fatalf("transfer %d of %d: %+v after balances %v — not a serial history", i+1, len(chain), tr, prev)
		}
		prev = tr.wrote
	}
	// Every acknowledged commit is readable, and nothing else was written.
	r = newRouter("auditor")
	for i, k := range accounts {
		for _, tr := range chain {
			val, meta, err := r.Get(ctx, k, client.GetOptions{Version: tr.version, HasVersion: true})
			if err != nil || string(val) != strconv.Itoa(tr.wrote[i]) {
				t.Errorf("%q v%d: %q (%+v, %v), acknowledged as %d", k, tr.version, val, meta, err, tr.wrote[i])
			}
		}
		val, meta, err := r.Get(ctx, k, client.GetOptions{})
		if err != nil || meta.Version != int64(len(chain)) || string(val) != strconv.Itoa(prev[i]) {
			t.Errorf("%q: head v%d %q (%v), want v%d %d", k, meta.Version, val, err, len(chain), prev[i])
		}
	}

	// The phases happened: the workers followed the handoff by redirect,
	// the late one found the old owner gone and refreshed its way round.
	var redirects uint64
	for _, r := range routers {
		redirects += r.Stats().Redirects.Load()
		if got := r.Stats().MaxRedirectsPerOp.Load(); got > 1 {
			t.Errorf("a transaction needed %d redirects, want <= 1", got)
		}
	}
	if redirects == 0 {
		t.Error("no worker was redirected by the handoff")
	}
	if late.Stats().Retargets.Load() == 0 {
		t.Error("the late router never met the cut link")
	}
}
