package core

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/authority"
	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/tlsutil"
)

// RESTServer exposes the controller over the paper's REST interface
// (§4.1): plain HTTPS with mutual TLS, no special client library
// required. Clients are identified by the public key of their TLS
// certificate; certified facts ride along in headers. Every route is
// under /v2 (and /metrics beside it), is mounted by route, and reports
// failure in the one envelope of writeError. Every mutation answers with
// an OpResult.
type RESTServer struct {
	ctl *Controller
	mux *http.ServeMux
}

// CertHeader carries base64-encoded certified facts, repeatable.
const CertHeader = "X-Pesos-Certificate"

// NewREST builds the REST front end for a controller: the one route
// table. Each route names its latency-histogram op class where it is
// mounted; "" leaves a route untraced and unobserved (status, metrics,
// the trace API itself).
func NewREST(ctl *Controller) *RESTServer {
	s := &RESTServer{ctl: ctl, mux: http.NewServeMux()}
	s.route("GET /v2/objects", "scan", s.handleList)
	s.route("GET /v2/objects/{key...}", "get", s.handleGet)
	s.route("PUT /v2/objects/{key...}", "put", s.handlePut)
	s.route("POST /v2/objects/{key...}", "put", s.handlePut)
	s.route("DELETE /v2/objects/{key...}", "delete", s.handleDelete)
	s.route("POST /v2/batch/get", "batch", s.handleBatchGet)
	s.route("POST /v2/batch/put", "batch", s.handleBatchPut)
	s.route("POST /v2/tx", "tx", s.handleTx)
	s.route("GET /v2/results/{op}", "other", s.handleResult)
	s.route("GET /v2/versions/{key...}", "other", s.handleVersions)
	s.route("GET /v2/verify/{key...}", "other", s.handleVerify)
	s.route("POST /v2/repair/{key...}", "other", s.handleRepair)
	s.route("POST /v2/policies", "other", s.handlePutPolicy)
	s.route("GET /v2/policies/{id}", "other", s.handleGetPolicy)
	s.route("GET /v2/status", "", s.handleStatus)
	s.route("GET /v2/cluster/map", "", s.handleClusterMap)
	s.route("GET /v2/trace/{id}", "", s.handleTrace)
	s.route("GET /metrics", "", s.handleMetrics)
	return s
}

// Server returns the HTTP server every deployment serves the REST
// interface with (the daemon and the in-process testbed alike): the
// handler plus a per-connection identity slot, so the client
// fingerprint is derived from the peer certificate once per TLS
// connection rather than once per request.
func (s *RESTServer) Server() *http.Server {
	return &http.Server{
		Handler: s,
		ConnContext: func(ctx context.Context, _ net.Conn) context.Context {
			return context.WithValue(ctx, connIdentityKey{}, new(connIdentity))
		},
	}
}

// connIdentity holds one connection's client fingerprint. It lives and
// dies with the connection's context; a peer certificate cannot change
// within a connection, so neither can what is derived from it.
type connIdentity struct {
	once sync.Once
	fp   string
	err  error
}

type connIdentityKey struct{}

// peerFingerprint returns the fingerprint of the request's client
// certificate, through the connection's identity slot when the server
// came from Server.
func peerFingerprint(r *http.Request) (string, error) {
	ci, _ := r.Context().Value(connIdentityKey{}).(*connIdentity)
	if ci == nil {
		return tlsutil.CertFingerprint(r.TLS.PeerCertificates[0])
	}
	ci.once.Do(func() { ci.fp, ci.err = tlsutil.CertFingerprint(r.TLS.PeerCertificates[0]) })
	return ci.fp, ci.err
}

// ServeHTTP implements http.Handler.
func (s *RESTServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	// Each request costs syscall hand-offs through the shielded
	// runtime (receive + send).
	s.ctl.cost.Syscall()
	defer s.ctl.cost.Syscall()
	s.mux.ServeHTTP(w, r)
}

// handler is what a route does for an authenticated caller, its request
// parsed. It writes its own success reply; an error it returns — before
// anything was written — becomes the route's failure reply.
type handler func(w http.ResponseWriter, r *http.Request, sess *Session, req request) error

// route mounts h behind what every route shares: its trace root and
// latency histogram under op, the session check and the parse of the
// request, whose failures no handler sees.
func (s *RESTServer) route(pattern, op string, h handler) {
	keyed := strings.HasSuffix(pattern, "/{key...}")
	s.mux.HandleFunc(pattern, s.traced(op, func(w http.ResponseWriter, r *http.Request) {
		sess, err := s.session(r)
		var req request
		if err == nil {
			req, err = parseRequest(r, keyed)
		}
		if err == nil {
			err = h(w, r, sess, req)
		}
		if err != nil {
			writeError(w, err)
		}
	}))
}

// traced wraps a route in its trace root and latency observation.
func (s *RESTServer) traced(op string, next http.HandlerFunc) http.HandlerFunc {
	if op == "" || s.ctl.tracer == nil {
		return next
	}
	return func(w http.ResponseWriter, r *http.Request) {
		// Adopt the caller's trace id (router or client ahead of us) so
		// their attempts and our work stitch into one trace; otherwise the
		// controller is the trace root — head-sampled, because only an
		// explicit id promises someone is watching this particular request.
		id, _ := obs.ParseTraceID(r.Header.Get(obs.TraceHeader))
		if id == 0 && !s.ctl.tracer.Sampled() {
			started := time.Now()
			next(w, r)
			s.ctl.observeOp(op, time.Since(started))
			return
		}
		ctx, root := s.ctl.tracer.Start(r.Context(), op, id)
		if ri, ok := obs.ParseRouteInfo(r.Header.Get(obs.RouteHeader)); ok {
			// The routing already happened client-side; the span carries
			// its attempt counters, not a duration.
			obs.RecordSpan(ctx, "router", time.Now(), 0,
				obs.Attr{Key: "attempt", Value: strconv.Itoa(ri.Attempt)},
				obs.Attr{Key: "redirects", Value: strconv.Itoa(ri.Redirects)},
				obs.Attr{Key: "retargets", Value: strconv.Itoa(ri.Retargets)})
		}
		w.Header().Set(obs.TraceHeader, obs.FormatTraceID(obs.TraceID(ctx)))
		started := time.Now()
		next(w, r.WithContext(ctx))
		root.End()
		s.ctl.observeOp(op, time.Since(started))
	}
}

// errUnauthenticated refuses a request that proved no identity.
var errUnauthenticated = errors.New("pesos: client certificate required")

// session authenticates the request and returns its session context.
func (s *RESTServer) session(r *http.Request) (*Session, error) {
	if r.TLS != nil && len(r.TLS.PeerCertificates) > 0 {
		fp, err := peerFingerprint(r)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", errUnauthenticated, err)
		}
		return s.ctl.Session(fp), nil
	}
	return nil, errUnauthenticated
}

// request is what every route parses the same way: the certified facts
// attached to it, its query and — on a route addressed by an object key —
// the key and the optional ?version selector.
type request struct {
	certs      []*authority.Certificate
	query      url.Values
	key        string
	version    int64
	hasVersion bool
}

// parseRequest parses r, refusing what is malformed as invalid_argument
// before the handler (or the store) sees it. A keyed route's pattern
// ends in {key...}.
func parseRequest(r *http.Request, keyed bool) (req request, err error) {
	if r.URL.RawQuery != "" {
		req.query = r.URL.Query()
	}
	if req.certs, err = certsFrom(r); err != nil || !keyed {
		return req, err
	}
	req.key = r.PathValue("key")
	if err = validKey(req.key); err != nil {
		return req, err
	}
	if v := req.query.Get("version"); v != "" {
		if req.version, err = strconv.ParseInt(v, 10, 64); err != nil {
			return req, fmt.Errorf("%w: bad version: %v", ErrInvalidArgument, err)
		}
		req.hasVersion = true
	}
	return req, nil
}

// certsFrom decodes attached certified facts.
func certsFrom(r *http.Request) ([]*authority.Certificate, error) {
	hdrs := r.Header.Values(CertHeader)
	if len(hdrs) == 0 {
		return nil, nil
	}
	out := make([]*authority.Certificate, 0, len(hdrs))
	for _, h := range hdrs {
		raw, err := base64.StdEncoding.DecodeString(h)
		if err != nil {
			return nil, fmt.Errorf("%w: bad %s header: %v", ErrInvalidArgument, CertHeader, err)
		}
		c, err := authority.UnmarshalCertificate(raw)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrInvalidArgument, err)
		}
		out = append(out, c)
	}
	return out, nil
}

// handleList serves one page of a prefix/range listing.
//
//	GET /v2/objects?prefix=P&start=S&limit=N&token=T
func (s *RESTServer) handleList(w http.ResponseWriter, r *http.Request, sess *Session, req request) error {
	opts := ScanOptions{
		Prefix: req.query.Get("prefix"),
		Start:  req.query.Get("start"),
		Token:  req.query.Get("token"),
		Certs:  req.certs,
	}
	if l := req.query.Get("limit"); l != "" {
		n, err := strconv.Atoi(l)
		if err != nil || n < 0 {
			return fmt.Errorf("%w: bad limit %q", ErrInvalidArgument, l)
		}
		opts.Limit = n
	}
	page, err := sess.Scan(r.Context(), opts)
	if err != nil {
		return err
	}
	return reply(w, page)
}

// handleGet streams an object. Headers carry the metadata; the body
// is the raw payload, chunked objects streamed chunk by chunk. An
// integrity failure mid-stream aborts the connection (the client sees
// a truncated transfer, never silently wrong bytes).
func (s *RESTServer) handleGet(w http.ResponseWriter, r *http.Request, sess *Session, req request) error {
	opts := GetOptions{Certs: req.certs, Version: req.version, HasVersion: req.hasVersion}
	meta, send, err := sess.GetStream(r.Context(), req.key, opts)
	if err != nil {
		return err
	}
	w.Header().Set("X-Pesos-Version", strconv.FormatInt(meta.Version, 10))
	w.Header().Set("X-Pesos-Policy", meta.PolicyID)
	w.Header().Set("X-Pesos-Content-Hash", hex.EncodeToString(meta.ContentHash[:]))
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.FormatInt(meta.Size, 10))
	w.WriteHeader(http.StatusOK)
	if err := send(w); err != nil {
		// Headers are gone; panicking with the sentinel aborts the
		// connection so the truncation is observable client-side.
		panic(http.ErrAbortHandler)
	}
	return nil
}

// handlePut stores an object from the (streamed) request body.
// Values above the inline limit become chunked records transparently;
// ?async=1 defers execution (inline-sized values only) and returns an
// operation id inside the OpResult.
func (s *RESTServer) handlePut(w http.ResponseWriter, r *http.Request, sess *Session, req request) error {
	opts := PutOptions{
		PolicyID: req.query.Get("policy"), Certs: req.certs, Async: req.query.Get("async") != "",
		Version: req.version, HasVersion: req.hasVersion,
	}
	if !opts.Async {
		return replyOp(w, sess.PutStream(r.Context(), req.key, r.Body, opts))
	}
	// Deferred execution outlives the request, so the body must be
	// buffered; the inline value limit applies.
	body, err := readLimit(r.Body)
	if err != nil {
		return err
	}
	return replyOp(w, sess.PutOp(r.Context(), req.key, body, opts))
}

// handleDelete removes an object, reporting the destroyed version.
func (s *RESTServer) handleDelete(w http.ResponseWriter, r *http.Request, sess *Session, req request) error {
	opts := DeleteOptions{Certs: req.certs, Async: req.query.Get("async") != ""}
	return replyOp(w, sess.DeleteOp(r.Context(), req.key, opts))
}

// handleBatchGet serves POST /v2/batch/get {"keys":[...]}.
func (s *RESTServer) handleBatchGet(w http.ResponseWriter, r *http.Request, sess *Session, req request) error {
	var body BatchGetRequest
	if err := decodeBody(r, &body); err != nil {
		return err
	}
	results, err := sess.BatchGet(r.Context(), keyStrings(body.Keys), req.certs)
	if err != nil {
		return err
	}
	return reply(w, &BatchGetReply{Results: results})
}

func keyStrings(keys []JSONKey) []string {
	out := make([]string, len(keys))
	for i, k := range keys {
		out[i] = string(k)
	}
	return out
}

// handleBatchPut serves POST /v2/batch/put {"ops":[...]}.
func (s *RESTServer) handleBatchPut(w http.ResponseWriter, r *http.Request, sess *Session, req request) error {
	var body BatchPutRequest
	if err := decodeBody(r, &body); err != nil {
		return err
	}
	results, err := sess.BatchPut(r.Context(), body.Ops, req.certs)
	if err != nil {
		return err
	}
	return reply(w, &BatchPutReply{Results: results})
}

// handleTx serves POST /v2/tx {"keys":[...],"ops":[...]}: one
// transaction, whole. It commits and answers {"reads":[...],"writes":[...]}
// or aborts and answers the error envelope.
func (s *RESTServer) handleTx(w http.ResponseWriter, r *http.Request, sess *Session, req request) error {
	var body TxRequest
	if err := decodeBody(r, &body); err != nil {
		return err
	}
	reads, writes, err := sess.Tx(r.Context(), keyStrings(body.Keys), body.Ops, req.certs)
	if err != nil {
		return err
	}
	return reply(w, &TxReply{Reads: reads, Writes: writes})
}

// ResultReply answers GET /v2/results/{op}: whether the asynchronous
// operation has run, and its result.
type ResultReply struct {
	Done   bool     `json:"done"`
	Result OpResult `json:"result"`
}

// handleResult polls an asynchronous operation.
func (s *RESTServer) handleResult(w http.ResponseWriter, r *http.Request, sess *Session, _ request) error {
	opID, err := strconv.ParseUint(r.PathValue("op"), 10, 64)
	if err != nil {
		return fmt.Errorf("%w: bad op id: %v", ErrInvalidArgument, err)
	}
	res, done, ok := sess.ResultOp(opID)
	if !ok {
		return fmt.Errorf("%w: result unknown or aged out; re-issue the request", ErrNotFound)
	}
	return reply(w, &ResultReply{Done: done, Result: res})
}

// VersionsReply answers GET /v2/versions/{key...}: the object's stored
// versions.
type VersionsReply struct {
	Versions []int64 `json:"versions"`
}

func (s *RESTServer) handleVersions(w http.ResponseWriter, r *http.Request, sess *Session, req request) error {
	vers, err := sess.ListVersions(r.Context(), req.key, req.certs)
	if err != nil {
		return err
	}
	return reply(w, &VersionsReply{Versions: vers})
}

// VerifyInfo answers GET /v2/verify/{key...}?version=N: the integrity
// evidence for one stored version, its hashes in hex.
type VerifyInfo struct {
	Key         JSONKey `json:"key"`
	Version     int64   `json:"version"`
	Size        int64   `json:"size"`
	ContentHash string  `json:"contentHash"`
	Policy      string  `json:"policy"`
	PolicyHash  string  `json:"policyHash"`
}

func (s *RESTServer) handleVerify(w http.ResponseWriter, r *http.Request, sess *Session, req request) error {
	meta, err := sess.Verify(r.Context(), req.key, req.version, req.certs...)
	if err != nil {
		return err
	}
	return reply(w, &VerifyInfo{
		Key:         JSONKey(meta.Key),
		Version:     meta.Version,
		Size:        meta.Size,
		ContentHash: hex.EncodeToString(meta.ContentHash[:]),
		Policy:      meta.PolicyID,
		PolicyHash:  hex.EncodeToString(meta.PolicyHash[:]),
	})
}

// RepairReply answers POST /v2/repair/{key...}: how many versions were
// examined and how many records rewritten.
type RepairReply struct {
	Key      JSONKey `json:"key"`
	Versions int     `json:"versions"`
	Restored int     `json:"restored"`
}

func (s *RESTServer) handleRepair(w http.ResponseWriter, r *http.Request, sess *Session, req request) error {
	report, err := sess.Repair(r.Context(), req.key)
	if err != nil {
		return err
	}
	return reply(w, &RepairReply{Key: JSONKey(report.Key), Versions: report.Versions, Restored: report.Restored})
}

// PolicyReply answers POST /v2/policies: the stored policy's id.
type PolicyReply struct {
	ID string `json:"id"`
}

func (s *RESTServer) handlePutPolicy(w http.ResponseWriter, r *http.Request, sess *Session, _ request) error {
	src, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
	if err != nil {
		return fmt.Errorf("%w: %v", ErrInvalidArgument, err)
	}
	id, err := sess.PutPolicy(r.Context(), string(src))
	if err != nil {
		return err
	}
	return reply(w, &PolicyReply{ID: id})
}

func (s *RESTServer) handleGetPolicy(w http.ResponseWriter, r *http.Request, _ *Session, _ request) error {
	src, err := s.ctl.GetPolicySource(r.Context(), r.PathValue("id"))
	if err != nil {
		return err
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, src)
	return nil
}

// handleStatus serves the controller's statistics: a map, because the
// counters' keys come from the Stats table (obs.go).
func (s *RESTServer) handleStatus(w http.ResponseWriter, _ *http.Request, _ *Session, _ request) error {
	lats := make(map[string]map[string]any, s.ctl.drives.Len())
	for _, dl := range s.ctl.DriveLatencies() {
		lats[dl.Name] = map[string]any{
			"ewmaUs":  dl.EWMA.Microseconds(),
			"p95Us":   dl.P95.Microseconds(),
			"samples": dl.Samples,
		}
	}
	body := map[string]any{
		"epcResident":  s.ctl.epc.Resident(),
		"epcFaults":    s.ctl.epc.Faults(),
		"caches":       s.ctl.CacheStats(),
		"driveLatency": lats,
		"load":         s.ctl.LoadStatus(),
		"driveHealth":  s.ctl.DriveHealth(),
		"sweeper":      s.ctl.SweeperStatus(),
	}
	for _, d := range s.ctl.stats.counters() {
		body[d.status] = d.word.Load()
	}
	if shard := s.ctl.ShardStatus(); shard != nil {
		body["shard"] = shard
	}
	return reply(w, body)
}

// handleClusterMap serves the signed cluster shard map document this
// controller holds, for routers bootstrapping or refreshing their map.
// 404 on unsharded controllers.
func (s *RESTServer) handleClusterMap(w http.ResponseWriter, _ *http.Request, _ *Session, _ request) error {
	doc := s.ctl.ClusterMapDoc()
	if len(doc) == 0 {
		return fmt.Errorf("%w: controller holds no cluster map", ErrNotFound)
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(doc)
	return nil
}

// handleTrace serves a completed trace's span tree by hex id.
func (s *RESTServer) handleTrace(w http.ResponseWriter, r *http.Request, _ *Session, _ request) error {
	id, ok := obs.ParseTraceID(r.PathValue("id"))
	if !ok {
		return fmt.Errorf("%w: bad trace id (want 16 hex digits)", ErrInvalidArgument)
	}
	d := s.ctl.TraceDump(id)
	if d == nil {
		return fmt.Errorf("%w: trace unknown or aged out", ErrNotFound)
	}
	return reply(w, d)
}

// handleMetrics serves the Prometheus text format on the mTLS API
// port. Deployments that scrape without client certificates use the
// daemons' side listener (obs.Serve) instead.
func (s *RESTServer) handleMetrics(w http.ResponseWriter, _ *http.Request, _ *Session, _ request) error {
	reg := s.ctl.Registry()
	if reg == nil {
		return fmt.Errorf("%w: observability disabled", ErrNotFound)
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	reg.WritePrometheus(w)
	return nil
}

// readLimit buffers a request body up to the inline value limit.
func readLimit(body io.Reader) ([]byte, error) {
	b, err := io.ReadAll(io.LimitReader(body, store.MaxObjectSize+1))
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalidArgument, err)
	}
	if int64(len(b)) > store.MaxObjectSize {
		return nil, store.ErrTooLarge
	}
	return b, nil
}

// writeError is how every route reports failure: the envelope
// {"error":{"code","message"}} under the taxonomy of opresult.go, the
// HTTP status fixed by the code.
func writeError(w http.ResponseWriter, err error) {
	we := wireError(err)
	writeShape(w, we.Code.HTTPStatus(), &ErrorReply{Error: *we})
}

// writeShape answers in one of the codec's shapes (restcodec.go).
func writeShape(w http.ResponseWriter, code int, v RESTShape) {
	bp := getBuf(0)
	*bp = append(v.appendJSON(*bp), '\n')
	writeBody(w, code, *bp)
	putBuf(bp)
}

// reply writes a route's 200 JSON answer: through the codec when v is one
// of its shapes, through encoding/json on the cold routes.
func reply(w http.ResponseWriter, v any) error {
	if shape, ok := v.(RESTShape); ok {
		writeShape(w, http.StatusOK, shape)
	} else {
		writeJSON(w, http.StatusOK, v)
	}
	return nil
}

// writeJSON is the cold routes' writer: encoding/json, into a buffer
// first, so a value that does not encode is a 500 and not an empty 200.
func writeJSON(w http.ResponseWriter, code int, v any) {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		writeError(w, fmt.Errorf("encoding the reply: %w", err))
		return
	}
	writeBody(w, code, buf.Bytes())
}

// writeBody sends a JSON body whole: its length in the header, one Write.
func writeBody(w http.ResponseWriter, code int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(code)
	w.Write(body)
}

// replyOp renders a mutation outcome: the HTTP status follows the
// embedded error's taxonomy code (200 on success), the body is always
// the full OpResult.
func replyOp(w http.ResponseWriter, res OpResult) error {
	status := http.StatusOK
	if res.Err != nil {
		status = res.Err.Code.HTTPStatus()
	}
	writeShape(w, status, &res)
	return nil
}

// decodeBody reads a bounded JSON request body, once, and parses it. A
// body that declares itself over the bound is refused unread.
func decodeBody(r *http.Request, v RESTShape) error {
	if r.ContentLength > maxBatchBody {
		return fmt.Errorf("%w: request body of %d bytes exceeds %d", ErrInvalidArgument, r.ContentLength, maxBatchBody)
	}
	if err := ReadREST(http.MaxBytesReader(nil, r.Body, maxBatchBody), r.ContentLength, v); err != nil {
		return fmt.Errorf("%w: bad request body: %v", ErrInvalidArgument, err)
	}
	return nil
}

// maxBatchBody bounds a batch or transaction request: the op cap worth
// of inline values at base64's 4/3 inflation, plus JSON overhead — a
// maximal legal batch (256 ops × 1 MB) must fit.
const maxBatchBody = (MaxBatchRequestOps*4/3 + 64) << 20
