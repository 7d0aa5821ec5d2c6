package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"sync"

	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/testbed"
)

// depth names how far down the stack an operation enters the system.
// The traced run rotates every worker through all three so each depth
// sees the same contention; the end-to-end run only uses depthRouter.
type depth int

const (
	depthRouter  depth = iota // cluster.Router: the full stack
	depthClient               // client.Client on the owning node: no router
	depthSession              // core.Session on the owning node: no HTTP/TLS/REST
	numDepths
)

func (d depth) String() string {
	return [...]string{"router", "client", "session"}[d]
}

// errDenied is the one error class the workloads expect: a policy
// denial, whichever depth reported it.
var errDenied = errors.New("denied by policy")

// putReq is one write in the benchmark's depth-neutral shape.
type putReq struct {
	key        string
	value      []byte
	version    int64
	hasVersion bool
	policy     string
}

// endpoint is the part of the v2 API the workloads use, at one depth.
// The three implementations translate to cluster.Router, client.Client
// and core.Session calls and normalise their results, so a workload's
// operations and checks are written once.
type endpoint interface {
	get(ctx context.Context, key string) (value []byte, version int64, err error)
	put(ctx context.Context, p putReq) (version int64, err error)
	del(ctx context.Context, key string) error
	// list returns one page per shard consulted: a single merged page
	// at router depth, one unmerged page per node below it.
	list(ctx context.Context, start string, limit int, token string) (keys []string, next string, err error)
	putStream(ctx context.Context, key string, body io.Reader, policy string) (version int64, err error)
	getStream(ctx context.Context, key string, w io.Writer) (version int64, err error)
}

func opErr(e *client.OpError) error {
	if e == nil {
		return nil
	}
	if e.Code == string(core.CodeDenied) {
		return fmt.Errorf("%w: %s", errDenied, e.Message)
	}
	return e
}

func clientErr(err error) error {
	if errors.Is(err, client.ErrDenied) {
		return fmt.Errorf("%w: %v", errDenied, err)
	}
	return err
}

func coreErr(err error) error {
	if errors.Is(err, core.ErrDenied) {
		return fmt.Errorf("%w: %v", errDenied, err)
	}
	return err
}

func wireErr(e *core.WireError) error {
	if e == nil {
		return nil
	}
	if e.Code == core.CodeDenied {
		return fmt.Errorf("%w: %s", errDenied, e.Message)
	}
	return e
}

func clientPutOpts(p putReq) client.PutOptions {
	return client.PutOptions{PolicyID: p.policy, Version: p.version, HasVersion: p.hasVersion}
}

func listKeys(page *client.ListPage) []string {
	keys := make([]string, len(page.Entries))
	for i, e := range page.Entries {
		keys[i] = string(e.Key)
	}
	return keys
}

// drainStream copies a streamed GET into w and closes it.
func drainStream(body io.ReadCloser, w io.Writer) error {
	_, err := io.Copy(w, body)
	if cerr := body.Close(); err == nil {
		err = cerr
	}
	return err
}

// routerEP is the full stack.
type routerEP struct{ r *cluster.Router }

func (e routerEP) get(ctx context.Context, key string) ([]byte, int64, error) {
	v, m, err := e.r.Get(ctx, key, client.GetOptions{})
	if err != nil {
		return nil, 0, clientErr(err)
	}
	return v, m.Version, nil
}

func (e routerEP) put(ctx context.Context, p putReq) (int64, error) {
	res, err := e.r.Put(ctx, p.key, p.value, clientPutOpts(p))
	if err != nil {
		return 0, clientErr(err)
	}
	return res.Version, opErr(res.Err)
}

func (e routerEP) del(ctx context.Context, key string) error {
	res, err := e.r.Delete(ctx, key)
	if err != nil {
		return clientErr(err)
	}
	return opErr(res.Err)
}

func (e routerEP) list(ctx context.Context, start string, limit int, token string) ([]string, string, error) {
	page, err := e.r.List(ctx, client.ListOptions{Start: start, Limit: limit, Token: token})
	if err != nil {
		return nil, "", clientErr(err)
	}
	return listKeys(page), page.NextToken, nil
}

func (e routerEP) putStream(ctx context.Context, key string, body io.Reader, policy string) (int64, error) {
	res, err := e.r.PutStream(ctx, key, func() (io.Reader, error) { return body, nil },
		client.PutOptions{PolicyID: policy})
	if err != nil {
		return 0, clientErr(err)
	}
	return res.Version, opErr(res.Err)
}

func (e routerEP) getStream(ctx context.Context, key string, w io.Writer) (int64, error) {
	body, meta, err := e.r.GetStream(ctx, key, client.GetOptions{})
	if err != nil {
		return 0, clientErr(err)
	}
	return meta.Version, drainStream(body, w)
}

// batchPut is router-only: splitting a batch per shard is the router's
// own work, so the lower depths have no equivalent call to time.
func (e routerEP) batchPut(ctx context.Context, ops []putReq) ([]int64, error) {
	wire := make([]client.BatchPutOp, len(ops))
	for i, p := range ops {
		wire[i] = client.BatchPutOp{
			Key: core.JSONKey(p.key), Value: p.value,
			Version: p.version, HasVersion: p.hasVersion, PolicyID: p.policy,
		}
	}
	res, err := e.r.BatchPut(ctx, wire)
	if err != nil {
		return nil, clientErr(err)
	}
	versions := make([]int64, len(res))
	for i, r := range res {
		if err := opErr(r.Err); err != nil {
			return nil, fmt.Errorf("batch op %d (%s): %w", i, ops[i].key, err)
		}
		versions[i] = r.Version
	}
	return versions, nil
}

// batchGet reads many keys through the router (used by the read-back
// check, never timed).
func (e routerEP) batchGet(ctx context.Context, keys []string) ([]client.BatchGetResult, error) {
	return e.r.BatchGet(ctx, keys)
}

// ownerOf resolves the node index owning key under the deployment's
// map. The map never changes during a run (no handoffs), so shard i
// is node i.
func ownerOf(mc *testbed.MultiCluster, key string) (int, error) {
	s, err := mc.Map().OwnerOf(key)
	if err != nil {
		return 0, err
	}
	return s.ID, nil
}

// clientEP skips the router: it calls the owning node's REST client
// directly. Listings go to every node at once and are not merged.
type clientEP struct {
	mc      *testbed.MultiCluster
	clients []*client.Client // by node
}

func (e clientEP) owner(key string) (*client.Client, error) {
	i, err := ownerOf(e.mc, key)
	if err != nil {
		return nil, err
	}
	return e.clients[i], nil
}

func (e clientEP) get(ctx context.Context, key string) ([]byte, int64, error) {
	cl, err := e.owner(key)
	if err != nil {
		return nil, 0, err
	}
	v, m, err := cl.Get(ctx, key, client.GetOptions{})
	if err != nil {
		return nil, 0, clientErr(err)
	}
	return v, m.Version, nil
}

func (e clientEP) put(ctx context.Context, p putReq) (int64, error) {
	cl, err := e.owner(p.key)
	if err != nil {
		return 0, err
	}
	res, err := cl.PutOp(ctx, p.key, p.value, clientPutOpts(p))
	if err != nil {
		return 0, clientErr(err)
	}
	return res.Version, opErr(res.Err)
}

func (e clientEP) del(ctx context.Context, key string) error {
	cl, err := e.owner(key)
	if err != nil {
		return err
	}
	res, err := cl.DeleteOp(ctx, key, false)
	if err != nil {
		return clientErr(err)
	}
	return opErr(res.Err)
}

func (e clientEP) list(ctx context.Context, start string, limit int, _ string) ([]string, string, error) {
	return fanOutList(len(e.clients), func(i int) ([]string, error) {
		page, err := e.clients[i].List(ctx, client.ListOptions{Start: start, Limit: limit})
		if err != nil {
			return nil, clientErr(err)
		}
		return listKeys(page), nil
	})
}

func (e clientEP) putStream(ctx context.Context, key string, body io.Reader, policy string) (int64, error) {
	cl, err := e.owner(key)
	if err != nil {
		return 0, err
	}
	res, err := cl.PutStream(ctx, key, body, client.PutOptions{PolicyID: policy})
	if err != nil {
		return 0, clientErr(err)
	}
	return res.Version, opErr(res.Err)
}

func (e clientEP) getStream(ctx context.Context, key string, w io.Writer) (int64, error) {
	cl, err := e.owner(key)
	if err != nil {
		return 0, err
	}
	body, meta, err := cl.GetStream(ctx, key, client.GetOptions{})
	if err != nil {
		return 0, clientErr(err)
	}
	return meta.Version, drainStream(body, w)
}

// sessionEP skips HTTP, TLS and the REST handler: it calls the owning
// controller's session API in-process. Without the REST server there
// is no trace root, so each call opens one on the controller's tracer
// under the id the context carries — the program's existing spans then
// hang off it exactly as they do under a REST request.
type sessionEP struct {
	mc *testbed.MultiCluster
	fp string // the session's principal
}

func (e sessionEP) session(key string) (*core.Controller, *core.Session, error) {
	i, err := ownerOf(e.mc, key)
	if err != nil {
		return nil, nil, err
	}
	ctl := e.mc.Nodes[i].Controller
	return ctl, ctl.Session(e.fp), nil
}

// root opens the trace root a REST request would have opened.
func root(ctx context.Context, ctl *core.Controller, name string) (context.Context, *obs.ActiveSpan) {
	id := obs.TraceID(ctx)
	if id == 0 {
		return ctx, nil
	}
	return ctl.Tracer().Start(ctx, name, id)
}

func (e sessionEP) get(ctx context.Context, key string) ([]byte, int64, error) {
	ctl, s, err := e.session(key)
	if err != nil {
		return nil, 0, err
	}
	ctx, span := root(ctx, ctl, "get")
	defer span.End()
	v, m, err := s.Get(ctx, key, core.GetOptions{})
	if err != nil {
		return nil, 0, coreErr(err)
	}
	return v, m.Version, nil
}

func (e sessionEP) put(ctx context.Context, p putReq) (int64, error) {
	ctl, s, err := e.session(p.key)
	if err != nil {
		return 0, err
	}
	ctx, span := root(ctx, ctl, "put")
	defer span.End()
	// The REST handler routes every v2 PUT through the streaming entry
	// point; do the same so the depths differ only by the layers
	// skipped.
	res := s.PutStream(ctx, p.key, bytes.NewReader(p.value),
		core.PutOptions{PolicyID: p.policy, Version: p.version, HasVersion: p.hasVersion})
	return res.Version, wireErr(res.Err)
}

func (e sessionEP) del(ctx context.Context, key string) error {
	ctl, s, err := e.session(key)
	if err != nil {
		return err
	}
	ctx, span := root(ctx, ctl, "delete")
	defer span.End()
	return wireErr(s.DeleteOp(ctx, key, core.DeleteOptions{}).Err)
}

func (e sessionEP) list(ctx context.Context, start string, limit int, _ string) ([]string, string, error) {
	return fanOutList(len(e.mc.Nodes), func(i int) ([]string, error) {
		ctl := e.mc.Nodes[i].Controller
		ctx, span := root(ctx, ctl, "scan")
		defer span.End()
		page, err := ctl.Session(e.fp).Scan(ctx, core.ScanOptions{Start: start, Limit: limit})
		if err != nil {
			return nil, coreErr(err)
		}
		keys := make([]string, len(page.Entries))
		for j, en := range page.Entries {
			keys[j] = string(en.Key)
		}
		return keys, nil
	})
}

func (e sessionEP) putStream(ctx context.Context, key string, body io.Reader, policy string) (int64, error) {
	ctl, s, err := e.session(key)
	if err != nil {
		return 0, err
	}
	ctx, span := root(ctx, ctl, "put")
	defer span.End()
	res := s.PutStream(ctx, key, body, core.PutOptions{PolicyID: policy})
	return res.Version, wireErr(res.Err)
}

func (e sessionEP) getStream(ctx context.Context, key string, w io.Writer) (int64, error) {
	ctl, s, err := e.session(key)
	if err != nil {
		return 0, err
	}
	ctx, span := root(ctx, ctl, "get")
	defer span.End()
	meta, send, err := s.GetStream(ctx, key, core.GetOptions{})
	if err != nil {
		return 0, coreErr(err)
	}
	return meta.Version, coreErr(send(w))
}

// fanOutList asks n nodes for their page concurrently and concatenates
// the answers in node order — what a listing costs below the router,
// without the router's merge and cursor vector.
func fanOutList(n int, one func(i int) ([]string, error)) ([]string, string, error) {
	pages := make([][]string, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			pages[i], errs[i] = one(i)
		}(i)
	}
	wg.Wait()
	var all []string
	for i := range pages {
		if errs[i] != nil {
			return nil, "", errs[i]
		}
		all = append(all, pages[i]...)
	}
	return all, "", nil
}
