package core

import (
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
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
// certificate; certified facts ride along in headers.
type RESTServer struct {
	ctl *Controller
	mux *http.ServeMux

	// InsecureIdentityHeader, when true, accepts the client identity
	// from the X-Pesos-Identity header on connections without client
	// certificates. Only for tests; never enable in production.
	InsecureIdentityHeader bool
}

// CertHeader carries base64-encoded certified facts, repeatable.
const CertHeader = "X-Pesos-Certificate"

// NewREST builds the REST front end for a controller.
func NewREST(ctl *Controller) *RESTServer {
	s := &RESTServer{ctl: ctl, mux: http.NewServeMux()}
	s.mux.HandleFunc("PUT /v1/objects/{key...}", s.handlePut)
	s.mux.HandleFunc("POST /v1/objects/{key...}", s.handlePut)
	s.mux.HandleFunc("GET /v1/objects/{key...}", s.handleGet)
	s.mux.HandleFunc("DELETE /v1/objects/{key...}", s.handleDelete)
	s.mux.HandleFunc("GET /v1/versions/{key...}", s.handleVersions)
	s.mux.HandleFunc("GET /v1/verify/{key...}", s.handleVerify)
	s.mux.HandleFunc("POST /v1/repair/{key...}", s.handleRepair)
	s.mux.HandleFunc("POST /v1/policies", s.handlePutPolicy)
	s.mux.HandleFunc("GET /v1/policies/{id}", s.handleGetPolicy)
	s.mux.HandleFunc("GET /v1/results/{op}", s.handleResult)
	s.mux.HandleFunc("POST /v1/tx", s.handleTxCreate)
	s.mux.HandleFunc("POST /v1/tx/{id}/read", s.handleTxRead)
	s.mux.HandleFunc("POST /v1/tx/{id}/write", s.handleTxWrite)
	s.mux.HandleFunc("POST /v1/tx/{id}/commit", s.handleTxCommit)
	s.mux.HandleFunc("POST /v1/tx/{id}/abort", s.handleTxAbort)
	s.mux.HandleFunc("GET /v1/tx/{id}/results", s.handleTxResults)
	s.mux.HandleFunc("GET /v1/status", s.handleStatus)
	s.mux.HandleFunc("GET /v1/cluster/map", s.handleClusterMap)
	s.mux.HandleFunc("GET /v1/trace/{id}", s.handleTrace)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.registerV2()
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
	op := opForRequest(r)
	if op == "" || s.ctl.tracer == nil {
		s.mux.ServeHTTP(w, r)
		return
	}
	// Adopt the caller's trace id (router or client ahead of us) so
	// their attempts and our work stitch into one trace; otherwise the
	// controller is the trace root — head-sampled, because only an
	// explicit id promises someone is watching this particular request.
	id, _ := obs.ParseTraceID(r.Header.Get(obs.TraceHeader))
	if id == 0 && !s.ctl.tracer.Sampled() {
		started := time.Now()
		s.mux.ServeHTTP(w, r)
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
	s.mux.ServeHTTP(w, r.WithContext(ctx))
	root.End()
	s.ctl.observeOp(op, time.Since(started))
}

// opForRequest classifies a request into the latency-histogram op
// buckets; "" for endpoints not traced (status, metrics, the trace
// API itself).
func opForRequest(r *http.Request) string {
	p := r.URL.Path
	switch {
	case strings.HasPrefix(p, "/v1/objects/"), strings.HasPrefix(p, "/v2/objects/"):
		switch r.Method {
		case http.MethodGet:
			return "get"
		case http.MethodDelete:
			return "delete"
		default:
			return "put"
		}
	case p == "/v2/objects":
		return "scan"
	case strings.HasPrefix(p, "/v2/batch/"):
		return "batch"
	case strings.HasPrefix(p, "/v1/tx"):
		return "tx"
	case strings.HasPrefix(p, "/v1/versions/"), strings.HasPrefix(p, "/v1/verify/"),
		strings.HasPrefix(p, "/v1/repair/"), strings.HasPrefix(p, "/v1/policies"),
		strings.HasPrefix(p, "/v1/results/"), strings.HasPrefix(p, "/v2/results/"):
		return "other"
	}
	return ""
}

// handleTrace serves a completed trace's span tree by hex id.
func (s *RESTServer) handleTrace(w http.ResponseWriter, r *http.Request) {
	if _, err := s.session(r); err != nil {
		httpError(w, http.StatusUnauthorized, err)
		return
	}
	id, ok := obs.ParseTraceID(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusBadRequest, errors.New("bad trace id (want 16 hex digits)"))
		return
	}
	d := s.ctl.TraceDump(id)
	if d == nil {
		httpError(w, http.StatusNotFound, errors.New("trace unknown or aged out"))
		return
	}
	writeJSON(w, http.StatusOK, d)
}

// handleMetrics serves the Prometheus text format on the mTLS API
// port. Deployments that scrape without client certificates use the
// daemons' side listener (obs.Serve) instead.
func (s *RESTServer) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if _, err := s.session(r); err != nil {
		httpError(w, http.StatusUnauthorized, err)
		return
	}
	reg := s.ctl.Registry()
	if reg == nil {
		httpError(w, http.StatusNotFound, errors.New("observability disabled"))
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	reg.WritePrometheus(w)
}

// session authenticates the request and returns its session context.
func (s *RESTServer) session(r *http.Request) (*Session, error) {
	if r.TLS != nil && len(r.TLS.PeerCertificates) > 0 {
		fp, err := peerFingerprint(r)
		if err != nil {
			return nil, err
		}
		return s.ctl.Session(fp), nil
	}
	if s.InsecureIdentityHeader {
		if id := r.Header.Get("X-Pesos-Identity"); id != "" {
			return s.ctl.Session(id), nil
		}
	}
	return nil, errors.New("client certificate required")
}

// certs decodes attached certified facts.
func certsFrom(r *http.Request) ([]*authority.Certificate, error) {
	hdrs := r.Header.Values(CertHeader)
	if len(hdrs) == 0 {
		return nil, nil
	}
	out := make([]*authority.Certificate, 0, len(hdrs))
	for _, h := range hdrs {
		raw, err := base64.StdEncoding.DecodeString(h)
		if err != nil {
			return nil, fmt.Errorf("bad %s header: %w", CertHeader, err)
		}
		c, err := authority.UnmarshalCertificate(raw)
		if err != nil {
			return nil, err
		}
		out = append(out, c)
	}
	return out, nil
}

func objectKeyFrom(r *http.Request) (string, error) {
	key := r.PathValue("key")
	if key == "" {
		return "", errors.New("empty object key")
	}
	if strings.ContainsRune(key, 0) {
		return "", errors.New("object keys must not contain NUL")
	}
	return key, nil
}

// handlePut is the v1 shim over the unified put entry point: same
// controller path as /v2, legacy response shapes.
func (s *RESTServer) handlePut(w http.ResponseWriter, r *http.Request) {
	sess, err := s.session(r)
	if err != nil {
		httpError(w, http.StatusUnauthorized, err)
		return
	}
	key, err := objectKeyFrom(r)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	certs, err := certsFrom(r)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	body, err := readLimit(r.Body)
	if err != nil {
		httpError(w, statusFor(err), err)
		return
	}
	opts := PutOptions{
		PolicyID: r.URL.Query().Get("policy"), Certs: certs,
		Async: r.URL.Query().Get("async") != "",
	}
	if v := r.URL.Query().Get("version"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			httpError(w, http.StatusBadRequest, fmt.Errorf("bad version: %w", err))
			return
		}
		opts.Version, opts.HasVersion = n, true
	}
	res := sess.PutOp(r.Context(), key, body, opts)
	switch {
	case res.Err != nil:
		httpError(w, res.Err.Code.HTTPStatus(), errors.New(res.Err.Message))
	case opts.Async:
		writeJSON(w, http.StatusOK, map[string]any{"op": res.OpID})
	default:
		writeJSON(w, http.StatusOK, map[string]any{"version": res.Version})
	}
}

// handleGet is the v1 shim over the streaming read entry point, so v1
// clients transparently read chunked objects too.
func (s *RESTServer) handleGet(w http.ResponseWriter, r *http.Request) {
	sess, err := s.session(r)
	if err != nil {
		httpError(w, http.StatusUnauthorized, err)
		return
	}
	key, err := objectKeyFrom(r)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	certs, err := certsFrom(r)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	opts := GetOptions{Certs: certs}
	if v := r.URL.Query().Get("version"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			httpError(w, http.StatusBadRequest, fmt.Errorf("bad version: %w", err))
			return
		}
		opts.Version, opts.HasVersion = n, true
	}
	meta, send, err := sess.GetStream(r.Context(), key, opts)
	if err != nil {
		httpError(w, statusFor(err), err)
		return
	}
	w.Header().Set("X-Pesos-Version", strconv.FormatInt(meta.Version, 10))
	w.Header().Set("X-Pesos-Policy", meta.PolicyID)
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.FormatInt(meta.Size, 10))
	w.WriteHeader(http.StatusOK)
	if err := send(w); err != nil {
		panic(http.ErrAbortHandler) // integrity failure mid-stream
	}
}

// handleDelete is the v1 shim over the unified delete entry point.
func (s *RESTServer) handleDelete(w http.ResponseWriter, r *http.Request) {
	sess, err := s.session(r)
	if err != nil {
		httpError(w, http.StatusUnauthorized, err)
		return
	}
	key, err := objectKeyFrom(r)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	certs, err := certsFrom(r)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	opts := DeleteOptions{Certs: certs, Async: r.URL.Query().Get("async") != ""}
	res := sess.DeleteOp(r.Context(), key, opts)
	switch {
	case res.Err != nil:
		httpError(w, res.Err.Code.HTTPStatus(), errors.New(res.Err.Message))
	case opts.Async:
		writeJSON(w, http.StatusOK, map[string]any{"op": res.OpID})
	default:
		writeJSON(w, http.StatusOK, map[string]any{"deleted": true})
	}
}

func (s *RESTServer) handleVersions(w http.ResponseWriter, r *http.Request) {
	sess, err := s.session(r)
	if err != nil {
		httpError(w, http.StatusUnauthorized, err)
		return
	}
	key, err := objectKeyFrom(r)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	certs, err := certsFrom(r)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	vers, err := sess.ListVersions(r.Context(), key, certs)
	if err != nil {
		httpError(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"versions": vers})
}

func (s *RESTServer) handleVerify(w http.ResponseWriter, r *http.Request) {
	sess, err := s.session(r)
	if err != nil {
		httpError(w, http.StatusUnauthorized, err)
		return
	}
	key, err := objectKeyFrom(r)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	ver := int64(0)
	if v := r.URL.Query().Get("version"); v != "" {
		if ver, err = strconv.ParseInt(v, 10, 64); err != nil {
			httpError(w, http.StatusBadRequest, err)
			return
		}
	}
	meta, err := sess.Verify(r.Context(), key, ver)
	if err != nil {
		httpError(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"key":         meta.Key,
		"version":     meta.Version,
		"size":        meta.Size,
		"contentHash": fmt.Sprintf("%x", meta.ContentHash),
		"policy":      meta.PolicyID,
		"policyHash":  fmt.Sprintf("%x", meta.PolicyHash),
	})
}

func (s *RESTServer) handleRepair(w http.ResponseWriter, r *http.Request) {
	sess, err := s.session(r)
	if err != nil {
		httpError(w, http.StatusUnauthorized, err)
		return
	}
	key, err := objectKeyFrom(r)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	report, err := sess.Repair(r.Context(), key)
	if err != nil {
		httpError(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"key": report.Key, "versions": report.Versions, "restored": report.Restored,
	})
}

func (s *RESTServer) handlePutPolicy(w http.ResponseWriter, r *http.Request) {
	sess, err := s.session(r)
	if err != nil {
		httpError(w, http.StatusUnauthorized, err)
		return
	}
	src, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	id, err := sess.PutPolicy(r.Context(), string(src))
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"id": id})
}

func (s *RESTServer) handleGetPolicy(w http.ResponseWriter, r *http.Request) {
	if _, err := s.session(r); err != nil {
		httpError(w, http.StatusUnauthorized, err)
		return
	}
	src, err := s.ctl.GetPolicySource(r.Context(), r.PathValue("id"))
	if err != nil {
		httpError(w, statusFor(err), err)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, src)
}

func (s *RESTServer) handleResult(w http.ResponseWriter, r *http.Request) {
	sess, err := s.session(r)
	if err != nil {
		httpError(w, http.StatusUnauthorized, err)
		return
	}
	opID, err := strconv.ParseUint(r.PathValue("op"), 10, 64)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	res, ok := sess.Result(opID)
	if !ok {
		httpError(w, http.StatusNotFound, errors.New("result unknown or aged out; re-issue the request"))
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"op": res.OpID, "done": res.Done, "error": res.Err, "version": res.Version,
	})
}

func (s *RESTServer) handleTxCreate(w http.ResponseWriter, r *http.Request) {
	sess, err := s.session(r)
	if err != nil {
		httpError(w, http.StatusUnauthorized, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"tx": sess.CreateTx()})
}

func (s *RESTServer) txID(r *http.Request) (uint64, error) {
	return strconv.ParseUint(r.PathValue("id"), 10, 64)
}

func (s *RESTServer) handleTxRead(w http.ResponseWriter, r *http.Request) {
	sess, err := s.session(r)
	if err != nil {
		httpError(w, http.StatusUnauthorized, err)
		return
	}
	id, err := s.txID(r)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	key := r.URL.Query().Get("key")
	if key == "" {
		httpError(w, http.StatusBadRequest, errors.New("missing key parameter"))
		return
	}
	if err := sess.AddRead(id, key); err != nil {
		httpError(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"ok": true})
}

func (s *RESTServer) handleTxWrite(w http.ResponseWriter, r *http.Request) {
	sess, err := s.session(r)
	if err != nil {
		httpError(w, http.StatusUnauthorized, err)
		return
	}
	id, err := s.txID(r)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	key := r.URL.Query().Get("key")
	if key == "" {
		httpError(w, http.StatusBadRequest, errors.New("missing key parameter"))
		return
	}
	body, err := readLimit(r.Body)
	if err != nil {
		httpError(w, statusFor(err), err)
		return
	}
	if err := sess.AddWrite(id, key, body); err != nil {
		httpError(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"ok": true})
}

func (s *RESTServer) handleTxCommit(w http.ResponseWriter, r *http.Request) {
	sess, err := s.session(r)
	if err != nil {
		httpError(w, http.StatusUnauthorized, err)
		return
	}
	id, err := s.txID(r)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	if err := sess.CommitTx(r.Context(), id); err != nil {
		httpError(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"committed": true})
}

func (s *RESTServer) handleTxAbort(w http.ResponseWriter, r *http.Request) {
	sess, err := s.session(r)
	if err != nil {
		httpError(w, http.StatusUnauthorized, err)
		return
	}
	id, err := s.txID(r)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	if err := sess.AbortTx(id); err != nil {
		httpError(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"aborted": true})
}

func (s *RESTServer) handleTxResults(w http.ResponseWriter, r *http.Request) {
	sess, err := s.session(r)
	if err != nil {
		httpError(w, http.StatusUnauthorized, err)
		return
	}
	id, err := s.txID(r)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	res, err := sess.CheckResults(id)
	if err != nil {
		httpError(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"results": res})
}

func (s *RESTServer) handleStatus(w http.ResponseWriter, r *http.Request) {
	if _, err := s.session(r); err != nil {
		httpError(w, http.StatusUnauthorized, err)
		return
	}
	st := s.ctl.stats.Snapshot()
	lats := make(map[string]map[string]any, len(s.ctl.drives))
	for _, dl := range s.ctl.DriveLatencies() {
		lats[dl.Name] = map[string]any{
			"ewmaUs":  dl.EWMA.Microseconds(),
			"p95Us":   dl.P95.Microseconds(),
			"samples": dl.Samples,
		}
	}
	body := map[string]any{
		"puts": st.Puts, "gets": st.Gets, "deletes": st.Deletes,
		"scans": st.Scans, "scanFiltered": st.ScanFiltered,
		"batchOps": st.BatchOps, "streams": st.Streams,
		"policyChecks": st.PolicyChecks, "policyDenials": st.PolicyDenials,
		"policyEvals":         st.PolicyEvals,
		"residualHits":        st.ResidualHits,
		"indexSkippedClauses": st.IndexSkippedClauses,
		"txCommits":           st.TxCommits, "txAborts": st.TxAborts,
		"readHedges":      st.ReadHedges,
		"coalescedReads":  st.CoalescedReads,
		"wrongShard":      st.WrongShard,
		"groupBatches":    st.GroupBatches,
		"groupedWrites":   st.GroupedWrites,
		"trailingFlushes": st.TrailingFlushes,
		"readBytes":       st.ReadBytes,
		"writeBytes":      st.WriteBytes,
		"repairs":         st.Repairs,
		"repairSweeps":    st.RepairSweeps,
		"repairBytes":     st.RepairBytes,
		"sweepTicks":      st.SweepTicks,
		"driveDeaths":     st.DriveDeaths,
		"driveRevives":    st.DriveRevives,
		"ecObjects":       st.ECObjects,
		"ecParityBytes":   st.ECParityBytes,
		"ecDecodes":       st.ECDecodes,
		"ecShardRepairs":  st.ECShardRepairs,
		"epcResident":     s.ctl.epc.Resident(),
		"epcFaults":       s.ctl.epc.Faults(),
		"caches":          s.ctl.CacheStats(),
		"driveLatency":    lats,
		"load":            s.ctl.LoadStatus(),
		"driveHealth":     s.ctl.DriveHealth(),
		"sweeper":         s.ctl.SweeperStatus(),
	}
	if shard := s.ctl.ShardStatus(); shard != nil {
		body["shard"] = shard
	}
	writeJSON(w, http.StatusOK, body)
}

// handleClusterMap serves the signed cluster shard map document this
// controller holds, for routers bootstrapping or refreshing their map.
// 404 on unsharded controllers.
func (s *RESTServer) handleClusterMap(w http.ResponseWriter, r *http.Request) {
	if _, err := s.session(r); err != nil {
		httpError(w, http.StatusUnauthorized, err)
		return
	}
	doc := s.ctl.ClusterMapDoc()
	if len(doc) == 0 {
		httpError(w, http.StatusNotFound, errors.New("controller holds no cluster map"))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(doc)
}

// statusFor maps controller errors to HTTP status codes through the
// v2 error taxonomy, so v1 and v2 can never disagree on a status.
func statusFor(err error) int {
	return CodeFor(err).HTTPStatus()
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

func httpError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]any{"error": err.Error()})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}
