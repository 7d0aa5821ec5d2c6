// The object routes: every put, read, delete, listing and poll rides
// /v2 — scan/list with pagination, multi-key batch operations,
// transactions, streaming puts and gets of arbitrarily large objects,
// and the unified OpResult shape for every mutation (async included — it
// is an option on the call, not a separate method family). Put, Get and
// Delete in client.go are folds over these, not a second transport.
package client

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"

	"repro/internal/authority"
	"repro/internal/core"
)

// OpError is an error the controller answered: a non-2xx reply to a
// request, with its HTTP status, or one operation's failure inside a
// reply, with Status 0. Code is the machine-readable taxonomy of the
// error envelope ("" only when a reply's body was not one — an
// intermediary's, say).
type OpError struct {
	Status  int    `json:"-"`
	Code    string `json:"code"`
	Message string `json:"message"`
}

// Error implements error.
func (e *OpError) Error() string {
	switch {
	case e.Status == 0:
		return fmt.Sprintf("pesos client: [%s] %s", e.Code, e.Message)
	case e.Code == "":
		return fmt.Sprintf("pesos client: HTTP %d: %s", e.Status, e.Message)
	}
	return fmt.Sprintf("pesos client: HTTP %d [%s]: %s", e.Status, e.Code, e.Message)
}

// Is makes errors.Is(err, ErrDenied) hold for a policy denial: the
// denied code, or a 403 whatever its body said.
func (e *OpError) Is(target error) bool {
	return target == ErrDenied && (e.Code == string(core.CodeDenied) || e.Status == http.StatusForbidden)
}

// OpResult is the outcome of one mutation. Version is int64 for puts
// and deletes alike (a delete reports the destroyed head version). Op
// is set when the operation ran async.
type OpResult struct {
	Key     core.JSONKey `json:"key"`
	Version int64        `json:"version"`
	Op      uint64       `json:"op,omitempty"`
	Err     *OpError     `json:"error,omitempty"`
}

// opError and opResult carry the codec's decoded values (core's types)
// into the client's.
func opError(e *core.WireError) *OpError {
	if e == nil {
		return nil
	}
	return &OpError{Code: string(e.Code), Message: e.Message}
}

func opResult(r core.OpResult) OpResult {
	return OpResult{Key: r.Key, Version: r.Version, Op: r.OpID, Err: opError(r.Err)}
}

// failure folds a mutation's two failure channels into one error: the
// transport's, else the operation's own.
func (r OpResult) failure(err error) error {
	if err == nil && r.Err != nil {
		return r.Err
	}
	return err
}

// PutOp stores an object through /v2, returning the unified result.
// With opts.Async the call returns immediately and the result carries
// the operation id to poll with ResultOp.
func (c *Client) PutOp(ctx context.Context, key string, value []byte, opts PutOptions) (OpResult, error) {
	return c.putV2(ctx, key, bytes.NewReader(value), opts)
}

// PutStream stores an object of unknown size from r through /v2.
// Values above the 1 MB inline limit are chunked server-side; there
// is no client-visible size cap besides the server's stream budget.
// Streaming is incompatible with Async (the server must see the whole
// body within the request).
func (c *Client) PutStream(ctx context.Context, key string, r io.Reader, opts PutOptions) (OpResult, error) {
	if opts.Async {
		return OpResult{}, errors.New("pesos client: streaming put cannot be async")
	}
	return c.putV2(ctx, key, r, opts)
}

func (c *Client) putV2(ctx context.Context, key string, body io.Reader, opts PutOptions) (OpResult, error) {
	q := url.Values{}
	if opts.PolicyID != "" {
		q.Set("policy", opts.PolicyID)
	}
	if opts.HasVersion {
		q.Set("version", strconv.FormatInt(opts.Version, 10))
	}
	if opts.Async {
		q.Set("async", "1")
	}
	return c.doOpResult(ctx, http.MethodPut, key, q, body, opts.Certs)
}

// DeleteOp removes an object through /v2; the result's Version is the
// destroyed head version.
func (c *Client) DeleteOp(ctx context.Context, key string, async bool, certs ...*authority.Certificate) (OpResult, error) {
	q := url.Values{}
	if async {
		q.Set("async", "1")
	}
	return c.doOpResult(ctx, http.MethodDelete, key, q, nil, certs)
}

// doOpResult executes a mutation of one object, whose reply is an
// OpResult regardless of status: per-op failures land in OpResult.Err
// (with the taxonomy code), transport failures in the error.
func (c *Client) doOpResult(ctx context.Context, method, key string, q url.Values, body io.Reader, certs []*authority.Certificate) (OpResult, error) {
	resp, err := c.send(ctx, method, "/v2/objects/", key, q, body, certs)
	if err != nil {
		return OpResult{}, err
	}
	var out core.OpResult
	if err := ReadJSON(resp, &out); err != nil {
		return OpResult{}, fmt.Errorf("pesos client: HTTP %d with undecodable body: %w", resp.StatusCode, err)
	}
	return opResult(out), nil
}

// GetStream opens an object for reading through /v2. The returned
// reader streams the payload (chunked objects included); the caller
// must Close it, and keeps the connection for the next request only by
// reading it to EOF first. An integrity failure mid-object surfaces as
// a read error before EOF — the server aborts the connection rather
// than completing a corrupt transfer.
func (c *Client) GetStream(ctx context.Context, key string, opts GetOptions) (io.ReadCloser, *ObjectMeta, error) {
	body, _, meta, err := c.open(ctx, key, opts)
	return body, meta, err
}

// open starts a read: the body, its declared size (-1 if none) and the
// object's metadata.
func (c *Client) open(ctx context.Context, key string, opts GetOptions) (io.ReadCloser, int64, *ObjectMeta, error) {
	var q url.Values
	if opts.HasVersion {
		q = url.Values{"version": {strconv.FormatInt(opts.Version, 10)}}
	}
	resp, err := c.send(ctx, http.MethodGet, "/v2/objects/", key, q, nil, opts.Certs)
	if err != nil {
		return nil, 0, nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, 0, nil, decodeError(resp)
	}
	ver, _ := strconv.ParseInt(resp.Header.Get("X-Pesos-Version"), 10, 64)
	return resp.Body, resp.ContentLength, &ObjectMeta{Version: ver, PolicyID: resp.Header.Get("X-Pesos-Policy")}, nil
}

// ResultOp polls an async v2 operation. ok=false means the result
// aged out of the window and the request must be re-issued.
func (c *Client) ResultOp(ctx context.Context, opID uint64) (res OpResult, done, ok bool, err error) {
	var out struct {
		Done   bool     `json:"done"`
		Result OpResult `json:"result"`
	}
	err = c.call(ctx, http.MethodGet, "/v2/results/"+strconv.FormatUint(opID, 10), "", nil, nil, nil, &out)
	var opErr *OpError
	if errors.As(err, &opErr) && opErr.Status == http.StatusNotFound {
		return OpResult{}, false, false, nil
	}
	if err != nil {
		return OpResult{}, false, false, err
	}
	return out.Result, out.Done, true, nil
}

// ListOptions parameterizes one page of a listing, ListEntry is one
// listed object and ListPage one page: the controller's own types, so
// the two ends of a listing cannot drift.
type (
	ListOptions = core.ScanOptions
	ListEntry   = core.ScanEntry
	ListPage    = core.ScanPage
)

// List fetches one page of the policy-filtered object listing.
func (c *Client) List(ctx context.Context, opts ListOptions) (*ListPage, error) {
	q := url.Values{}
	if opts.Prefix != "" {
		q.Set("prefix", opts.Prefix)
	}
	if opts.Start != "" {
		q.Set("start", opts.Start)
	}
	if opts.Limit > 0 {
		q.Set("limit", strconv.Itoa(opts.Limit))
	}
	if opts.Token != "" {
		q.Set("token", opts.Token)
	}
	out := new(ListPage)
	if err := c.call(ctx, http.MethodGet, "/v2/objects", "", q, nil, opts.Certs, out); err != nil {
		return nil, err
	}
	return out, nil
}

// ListAll drains a listing from the current position.
func (c *Client) ListAll(ctx context.Context, opts ListOptions) ([]ListEntry, error) {
	return Drain(ctx, c.List, opts)
}

// Drain follows a listing's pagination tokens from opts to exhaustion;
// list serves one page (a Client's List, or the cluster router's).
func Drain(ctx context.Context, list func(context.Context, ListOptions) (*ListPage, error), opts ListOptions) ([]ListEntry, error) {
	var all []ListEntry
	for {
		page, err := list(ctx, opts)
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

// BatchGetResult is one read outcome of a batch get.
type BatchGetResult struct {
	Key      core.JSONKey `json:"key"`
	Value    []byte       `json:"value"`
	Version  int64        `json:"version"`
	PolicyID string       `json:"policy"`
	Err      *OpError     `json:"error,omitempty"`
}

// BatchGet reads many objects in one request, with per-op results in
// request order.
func (c *Client) BatchGet(ctx context.Context, keys []string, certs ...*authority.Certificate) ([]BatchGetResult, error) {
	req := core.BatchGetRequest{Keys: jsonKeys(keys)}
	var out core.BatchGetReply
	if err := c.call(ctx, http.MethodPost, "/v2/batch/get", "", nil, bytes.NewReader(core.AppendREST(nil, &req)), certs, &out); err != nil {
		return nil, err
	}
	return batchGetResults(out.Results), nil
}

func jsonKeys(keys []string) []core.JSONKey {
	out := make([]core.JSONKey, len(keys))
	for i, k := range keys {
		out[i] = core.JSONKey(k)
	}
	return out
}

// batchGetResults and opResults carry the codec's decoded results into
// the client's types.
func batchGetResults(in []core.BatchGetResult) []BatchGetResult {
	out := make([]BatchGetResult, len(in))
	for i, r := range in {
		out[i] = BatchGetResult{Key: r.Key, Value: r.Value, Version: r.Version, PolicyID: r.PolicyID, Err: opError(r.Err)}
	}
	return out
}

func opResults(in []core.OpResult) []OpResult {
	out := make([]OpResult, len(in))
	for i, r := range in {
		out[i] = opResult(r)
	}
	return out
}

// BatchPutOp is one write of a batch put.
type BatchPutOp = core.BatchPutOp

// BatchPut writes many objects in one request. Each op succeeds or
// fails independently (version rules, policy checks); the surviving
// writes commit through one atomic batch stream per drive.
func (c *Client) BatchPut(ctx context.Context, ops []BatchPutOp, certs ...*authority.Certificate) ([]OpResult, error) {
	var out core.BatchPutReply
	if err := c.call(ctx, http.MethodPost, "/v2/batch/put", "", nil, bytes.NewReader(core.AppendREST(nil, &core.BatchPutRequest{Ops: ops})), certs, &out); err != nil {
		return nil, err
	}
	return opResults(out.Results), nil
}

// TxResult is what a committed transaction answered: one result per
// read key and one per write, each in the order declared.
type TxResult struct {
	Reads  []BatchGetResult
	Writes []OpResult
}

// Transact runs one transaction (§4.4) in one request: keys are read
// and ops written atomically and in isolation, under certs. A read key
// that does not exist fails alone, in its result; anything else that
// fails — a denial, a version conflict, a key of another shard — aborts
// the transaction with no effect and is the error returned.
func (c *Client) Transact(ctx context.Context, keys []string, ops []BatchPutOp, certs ...*authority.Certificate) (*TxResult, error) {
	req := core.TxRequest{Keys: jsonKeys(keys), Ops: ops}
	var out core.TxReply
	if err := c.call(ctx, http.MethodPost, "/v2/tx", "", nil, bytes.NewReader(core.AppendREST(nil, &req)), certs, &out); err != nil {
		return nil, err
	}
	return &TxResult{Reads: batchGetResults(out.Reads), Writes: opResults(out.Writes)}, nil
}

// Tx builds a transaction with the paper's verbs (§4.4: createTx,
// addRead, addWrite, commitTx, abortTx, checkResults). It is local
// state: only Commit touches the network, as one Transact.
type Tx struct {
	c      *Client
	keys   []string
	ops    []BatchPutOp
	certs  []*authority.Certificate
	result *TxResult
}

// CreateTx opens a transaction.
func (c *Client) CreateTx() *Tx { return &Tx{c: c} }

// AddRead declares a read key.
func (t *Tx) AddRead(key string) { t.keys = append(t.keys, key) }

// AddWrite declares a write: unconditional, or — with Version and
// HasVersion — of exactly the object's next version, which makes a
// transaction built on earlier reads fail instead of losing an update.
func (t *Tx) AddWrite(op BatchPutOp) { t.ops = append(t.ops, op) }

// AddCertificates attaches certified facts to the policy checks of
// every operation in the transaction.
func (t *Tx) AddCertificates(certs ...*authority.Certificate) { t.certs = append(t.certs, certs...) }

// Commit executes the transaction, once.
func (t *Tx) Commit(ctx context.Context) (err error) {
	if t.result != nil {
		return errors.New("pesos client: transaction already committed")
	}
	t.result, err = t.c.Transact(ctx, t.keys, t.ops, t.certs...)
	return err
}

// Abort discards what was declared.
func (t *Tx) Abort() { *t = Tx{c: t.c} }

// Results returns the per-operation outcomes Commit answered, nil
// before it has.
func (t *Tx) Results() *TxResult { return t.result }
