// Package client is a Go client for the Pesos REST interface (§4.1).
// Pesos deliberately needs no special client library — any HTTPS
// client works — but examples, tools and benchmarks share this thin
// wrapper, and it is the only code outside the controller that names a
// route. It authenticates with a TLS client certificate and, before
// trusting a controller, can verify the controller's attestation
// transcript out of band.
//
// Every route is under /v2: objects are put, read, deleted, listed and
// polled, in batches and transactions too, with the unified OpResult
// shape for every mutation (async included — it is an option on the
// call, not a separate method family); an object's versions, integrity
// evidence and repair, policies, and the operator's status, metrics,
// traces and cluster map. Put, Get and Delete are folds over PutOp,
// GetStream and DeleteOp, not a second transport.
package client

import (
	"bytes"
	"context"
	"crypto/tls"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"strings"

	"repro/internal/authority"
	"repro/internal/core"
	"repro/internal/obs"
)

// Client talks to one Pesos controller.
type Client struct {
	base    *url.URL // Config.BaseURL, parsed once
	baseErr error    // why it could not be
	http    *http.Client
}

// ErrDenied is what a policy denial matches: errors.Is(err, ErrDenied)
// holds for an *OpError with the denied code or the 403 status.
var ErrDenied = errors.New("pesos client: denied by policy")

// Config configures a client.
type Config struct {
	// BaseURL is the controller endpoint, e.g. "https://pesos:8443".
	BaseURL string
	// TLS is the mutual-TLS configuration (client cert + root CA).
	TLS *tls.Config
	// DialContext overrides the transport dialer (in-memory networks).
	DialContext func(ctx context.Context, network, addr string) (net.Conn, error)
}

// New creates a client.
func New(cfg Config) *Client {
	tr := &http.Transport{
		TLSClientConfig:     cfg.TLS,
		MaxIdleConnsPerHost: 128,
	}
	if cfg.DialContext != nil {
		tr.DialContext = cfg.DialContext
	}
	base, err := url.Parse(cfg.BaseURL)
	return &Client{base: base, baseErr: err, http: &http.Client{Transport: tr}}
}

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

// PutOptions are core.PutOptions, carried over the wire.
type PutOptions = core.PutOptions

// Put stores an object and returns its new version: PutOp with the
// per-op failure folded into the error, as an *OpError. It is
// synchronous; asynchronous execution is PutOp + ResultOp.
func (c *Client) Put(ctx context.Context, key string, value []byte, opts PutOptions) (int64, error) {
	if opts.Async {
		return 0, errors.New("pesos client: Put cannot be async; use PutOp and ResultOp")
	}
	res, err := c.PutOp(ctx, key, value, opts)
	return res.Version, res.failure(err)
}

// PutOp stores an object, returning the unified result. With
// opts.Async the call returns immediately and the result carries the
// operation id to poll with ResultOp.
func (c *Client) PutOp(ctx context.Context, key string, value []byte, opts PutOptions) (OpResult, error) {
	return c.put(ctx, key, bytes.NewReader(value), opts)
}

// PutStream stores an object of unknown size from r. Values above the
// 1 MB inline limit are chunked server-side; there is no client-visible
// size cap besides the server's stream budget. Streaming is
// incompatible with Async (the server must see the whole body within
// the request).
func (c *Client) PutStream(ctx context.Context, key string, r io.Reader, opts PutOptions) (OpResult, error) {
	if opts.Async {
		return OpResult{}, errors.New("pesos client: streaming put cannot be async")
	}
	return c.put(ctx, key, r, opts)
}

func (c *Client) put(ctx context.Context, key string, body io.Reader, opts PutOptions) (OpResult, error) {
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

// GetOptions are core.GetOptions, carried over the wire.
type GetOptions = core.GetOptions

// ObjectMeta is the metadata returned with a get.
type ObjectMeta struct {
	Version  int64
	PolicyID string
}

// Get fetches an object whole, into a slice of its declared size.
func (c *Client) Get(ctx context.Context, key string, opts GetOptions) ([]byte, *ObjectMeta, error) {
	body, size, meta, err := c.open(ctx, key, opts)
	if err != nil {
		return nil, nil, err
	}
	defer body.Close()
	var value []byte
	if size < 0 || size > maxBufferedReply {
		value, err = io.ReadAll(body)
	} else {
		value = make([]byte, size)
		_, err = io.ReadFull(body, value)
	}
	if err != nil {
		return nil, nil, err
	}
	return value, meta, nil
}

// GetStream opens an object for reading. The returned reader streams
// the payload (chunked objects included); the caller must Close it, and
// keeps the connection for the next request only by reading it to EOF
// first. An integrity failure mid-object surfaces as a read error before
// EOF — the server aborts the connection rather than completing a
// corrupt transfer.
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

// Delete removes an object and its history: synchronous DeleteOp with
// the per-op failure folded into the error, as an *OpError.
func (c *Client) Delete(ctx context.Context, key string, certs ...*authority.Certificate) error {
	res, err := c.DeleteOp(ctx, key, false, certs...)
	return res.failure(err)
}

// DeleteOp removes an object; the result's Version is the destroyed
// head version.
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

// ResultOp polls an async operation. ok=false means the result aged
// out of the window and the request must be re-issued.
func (c *Client) ResultOp(ctx context.Context, opID uint64) (res OpResult, done, ok bool, err error) {
	var out core.ResultReply
	err = c.call(ctx, http.MethodGet, "/v2/results/", strconv.FormatUint(opID, 10), nil, nil, nil, &out)
	var opErr *OpError
	if errors.As(err, &opErr) && opErr.Status == http.StatusNotFound {
		return OpResult{}, false, false, nil
	}
	if err != nil {
		return OpResult{}, false, false, err
	}
	return opResult(out.Result), out.Done, true, nil
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

// ListVersions returns an object's stored versions.
func (c *Client) ListVersions(ctx context.Context, key string, certs ...*authority.Certificate) ([]int64, error) {
	var out core.VersionsReply
	err := c.call(ctx, http.MethodGet, "/v2/versions/", key, nil, nil, certs, &out)
	return out.Versions, err
}

// VerifyInfo is the integrity evidence for one stored version.
type VerifyInfo = core.VerifyInfo

// Verify fetches integrity-checked metadata for a stored version.
func (c *Client) Verify(ctx context.Context, key string, version int64) (*VerifyInfo, error) {
	q := url.Values{"version": {strconv.FormatInt(version, 10)}}
	var out VerifyInfo
	if err := c.call(ctx, http.MethodGet, "/v2/verify/", key, q, nil, nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Repair restores an object's missing or corrupt replicas (§4.5),
// reporting how many versions were examined and how many records were
// rewritten. A report that names another key is an error.
func (c *Client) Repair(ctx context.Context, key string) (versions, restored int, err error) {
	var out core.RepairReply
	err = c.call(ctx, http.MethodPost, "/v2/repair/", key, nil, nil, nil, &out)
	if err == nil && string(out.Key) != key {
		err = fmt.Errorf("pesos client: repair of %q reported on %q", key, out.Key)
	}
	return out.Versions, out.Restored, err
}

// PutPolicy uploads policy source, returning the policy id.
func (c *Client) PutPolicy(ctx context.Context, src string) (string, error) {
	var out core.PolicyReply
	err := c.call(ctx, http.MethodPost, "/v2/policies", "", nil, strings.NewReader(src), nil, &out)
	return out.ID, err
}

// GetPolicy fetches the canonical source of a stored policy.
func (c *Client) GetPolicy(ctx context.Context, id string) (string, error) {
	b, err := c.raw(ctx, "/v2/policies/", id)
	return string(b), err
}

// Status decodes the controller's statistics into out: a struct naming
// the members it wants, a map, or a json.RawMessage for the document
// whole.
func (c *Client) Status(ctx context.Context, out any) error {
	return c.call(ctx, http.MethodGet, "/v2/status", "", nil, nil, nil, out)
}

// Metrics fetches the controller's Prometheus text exposition; the
// client certificate is the scrape credential.
func (c *Client) Metrics(ctx context.Context) (string, error) {
	b, err := c.raw(ctx, "/metrics", "")
	return string(b), err
}

// Trace fetches a completed operation's span tree by its hex trace id,
// the one an X-Pesos-Trace response header carries.
func (c *Client) Trace(ctx context.Context, id string) (*obs.TraceDump, error) {
	out := new(obs.TraceDump)
	if err := c.call(ctx, http.MethodGet, "/v2/trace/", id, nil, nil, nil, out); err != nil {
		return nil, err
	}
	return out, nil
}

// ClusterMap fetches the signed cluster shard map document the
// controller distributes, unverified: checking its signature takes the
// map key (internal/cluster).
func (c *Client) ClusterMap(ctx context.Context) ([]byte, error) {
	return c.raw(ctx, "/v2/cluster/map", "")
}

// send issues one request and returns the reply as it came, whatever
// its status, body unread: the client's one way onto the wire. The URL is
// the parsed base plus route plus, where the route is addressed by one,
// the key: itself in Path, escaped in RawPath, nothing parsed.
func (c *Client) send(ctx context.Context, method, route, key string, q url.Values, body io.Reader, certs []*authority.Certificate) (*http.Response, error) {
	if c.baseErr != nil {
		return nil, c.baseErr
	}
	req, err := http.NewRequestWithContext(ctx, method, "", body)
	if err != nil {
		return nil, err
	}
	u := req.URL
	*u = *c.base
	u.Path += route + key
	if esc := escapeKey(key); esc != key {
		u.RawPath = c.base.EscapedPath() + route + esc
	}
	u.RawQuery, req.Host = q.Encode(), u.Host
	for _, cert := range certs {
		raw, err := cert.Marshal()
		if err != nil {
			return nil, err
		}
		req.Header.Add(core.CertHeader, base64.StdEncoding.EncodeToString(raw))
	}
	// Forward trace context so the controller's trace adopts the
	// caller's id, and the router's attempt info if this dispatch goes
	// through the cluster router.
	if id := obs.TraceID(ctx); id != 0 {
		req.Header.Set(obs.TraceHeader, obs.FormatTraceID(id))
	}
	if ri, ok := obs.RouteInfoFromContext(ctx); ok {
		req.Header.Set(obs.RouteHeader, ri.String())
	}
	return c.http.Do(req)
}

// call serves every route that answers 200 with a JSON document, which
// out receives (nil discards it); any other status is the error it
// decodes to.
func (c *Client) call(ctx context.Context, method, route, key string, q url.Values, body io.Reader, certs []*authority.Certificate, out any) error {
	resp, err := c.send(ctx, method, route, key, q, body, certs)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return decodeError(resp)
	}
	return ReadJSON(resp, out)
}

// raw serves the GET routes that answer 200 with a document that is not
// JSON — a policy's text, the metrics exposition, the signed map — which
// it returns whole.
func (c *Client) raw(ctx context.Context, route, key string) ([]byte, error) {
	resp, err := c.send(ctx, http.MethodGet, route, key, nil, nil, nil)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, decodeError(resp)
	}
	defer resp.Body.Close()
	return io.ReadAll(resp.Body)
}

// maxBufferedReply bounds what is allocated on a declared length alone;
// maxDrain what ReadJSON reads past a streamed value to reach the end of
// a reply: beyond it, a new connection costs less than the bytes.
const maxBufferedReply, maxDrain = 1 << 20, 256 << 10

// ReadJSON consumes a JSON reply into out (nil skips decoding) and closes
// it. One of the codec's shapes (core.RESTShape) arriving with its length
// is read once, whole. Anything else — a cold route's reply, a shape from
// a server that chunks it — is decoded as a stream and then read on to
// EOF, which is what keeps the connection: a json.Decoder stops short of
// a chunked reply's terminating chunk, and net/http discards a connection
// whose body was closed unfinished. A reply with more than maxDrain left
// over is closed where it stands.
func ReadJSON(resp *http.Response, out any) error {
	defer resp.Body.Close()
	if shape, ok := out.(core.RESTShape); ok && resp.ContentLength >= 0 && resp.ContentLength <= maxBufferedReply {
		return core.ReadREST(resp.Body, resp.ContentLength, shape)
	}
	var err error
	if out != nil {
		err = json.NewDecoder(resp.Body).Decode(out)
	}
	// A drain that fails or falls short costs the connection, nothing
	// else: Close then discards it.
	io.Copy(io.Discard, io.LimitReader(resp.Body, maxDrain))
	return err
}

// decodeError consumes a non-200 reply into the *OpError it stands for,
// a denial included. Every route fails in the one envelope
// {"error":{"code","message"}}.
func decodeError(resp *http.Response) error {
	var e core.ErrorReply
	ReadJSON(resp, &e) // an undecodable body leaves the status to speak
	opErr := &OpError{Status: resp.StatusCode, Code: string(e.Error.Code), Message: e.Error.Message}
	if opErr.Message == "" {
		opErr.Message = resp.Status
	}
	return opErr
}

// escapeKey renders an object key as one URL path segment that
// round-trips through the server's mux for every key the API accepts:
// slashes, percent signs, non-UTF-8 bytes, and dot segments ("..",
// "a/../b") included. url.PathEscape is not enough — it leaves '.'
// bare, and a key like ".." would be path-cleaned away before routing
// — so everything outside the unreserved set is percent-encoded. A key
// that is all unreserved is its own escape and costs no allocation.
func escapeKey(key string) string {
	const upperhex = "0123456789ABCDEF"
	unreserved := func(c byte) bool {
		return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' ||
			c == '-' || c == '_' || c == '~'
	}
	i := 0
	for i < len(key) && unreserved(key[i]) {
		i++
	}
	if i == len(key) {
		return key
	}
	var b strings.Builder
	b.Grow(len(key))
	b.WriteString(key[:i])
	for ; i < len(key); i++ {
		c := key[i]
		if unreserved(c) {
			b.WriteByte(c)
			continue
		}
		b.WriteByte('%')
		b.WriteByte(upperhex[c>>4])
		b.WriteByte(upperhex[c&15])
	}
	return b.String()
}
