package core

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"strconv"
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
// certificate; certified facts ride along in headers. Objects are put,
// read, deleted, listed and polled, and transactions run, under /v2
// (restv2.go); what has no /v2 form — versions, verify, repair,
// policies, status, the cluster map, traces — is served under /v1. Every
// route reports failure in the one envelope of writeError.
type RESTServer struct {
	ctl *Controller
	mux *http.ServeMux
}

// CertHeader carries base64-encoded certified facts, repeatable.
const CertHeader = "X-Pesos-Certificate"

// NewREST builds the REST front end for a controller. Each route names
// its latency-histogram op class where it is mounted; "" leaves a route
// untraced and unobserved (status, metrics, the trace API itself).
func NewREST(ctl *Controller) *RESTServer {
	s := &RESTServer{ctl: ctl, mux: http.NewServeMux()}
	s.registerV2()
	s.object("GET /v1/versions/{key...}", "other", s.handleVersions)
	s.object("GET /v1/verify/{key...}", "other", s.handleVerify)
	s.object("POST /v1/repair/{key...}", "other", s.handleRepair)
	s.route("POST /v1/policies", "other", s.handlePutPolicy)
	s.route("GET /v1/policies/{id}", "other", s.handleGetPolicy)
	s.route("GET /v1/status", "", s.handleStatus)
	s.route("GET /v1/cluster/map", "", s.handleClusterMap)
	s.route("GET /v1/trace/{id}", "", s.handleTrace)
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

// handler is what a route does for an authenticated caller. It writes
// its own success reply; an error it returns — before anything was
// written — becomes the route's failure reply.
type handler func(w http.ResponseWriter, r *http.Request, sess *Session) error

// route mounts h behind the session check every route shares, under op's
// trace root and latency histogram.
func (s *RESTServer) route(pattern, op string, h handler) {
	s.mux.HandleFunc(pattern, s.traced(op, func(w http.ResponseWriter, r *http.Request) {
		sess, err := s.session(r)
		if err == nil {
			err = h(w, r, sess)
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

// objectReq is what every route addressed by an object key parses the
// same way: the key, the certified facts attached to the request, and
// the optional ?version selector.
type objectReq struct {
	key        string
	certs      []*authority.Certificate
	query      url.Values
	version    int64
	hasVersion bool
}

// object mounts a route addressed by an object key: route, plus the
// shared parse of the request, refused as invalid_argument before the
// handler (or the store) sees it.
func (s *RESTServer) object(pattern, op string, h func(http.ResponseWriter, *http.Request, *Session, objectReq) error) {
	s.route(pattern, op, func(w http.ResponseWriter, r *http.Request, sess *Session) error {
		o := objectReq{key: r.PathValue("key")}
		if r.URL.RawQuery != "" {
			o.query = r.URL.Query()
		}
		err := validKey(o.key)
		if err != nil {
			return err
		}
		if o.certs, err = certsFrom(r); err != nil {
			return err
		}
		if v := o.query.Get("version"); v != "" {
			if o.version, err = strconv.ParseInt(v, 10, 64); err != nil {
				return fmt.Errorf("%w: bad version: %v", ErrInvalidArgument, err)
			}
			o.hasVersion = true
		}
		return h(w, r, sess, o)
	})
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

func (s *RESTServer) handleVersions(w http.ResponseWriter, r *http.Request, sess *Session, o objectReq) error {
	vers, err := sess.ListVersions(r.Context(), o.key, o.certs)
	if err != nil {
		return err
	}
	return reply(w, map[string]any{"versions": vers})
}

func (s *RESTServer) handleVerify(w http.ResponseWriter, r *http.Request, sess *Session, o objectReq) error {
	meta, err := sess.Verify(r.Context(), o.key, o.version, o.certs...)
	if err != nil {
		return err
	}
	return reply(w, map[string]any{
		"key":         JSONKey(meta.Key),
		"version":     meta.Version,
		"size":        meta.Size,
		"contentHash": fmt.Sprintf("%x", meta.ContentHash),
		"policy":      meta.PolicyID,
		"policyHash":  fmt.Sprintf("%x", meta.PolicyHash),
	})
}

func (s *RESTServer) handleRepair(w http.ResponseWriter, r *http.Request, sess *Session, o objectReq) error {
	report, err := sess.Repair(r.Context(), o.key)
	if err != nil {
		return err
	}
	return reply(w, map[string]any{
		"key": JSONKey(report.Key), "versions": report.Versions, "restored": report.Restored,
	})
}

func (s *RESTServer) handlePutPolicy(w http.ResponseWriter, r *http.Request, sess *Session) error {
	src, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
	if err != nil {
		return fmt.Errorf("%w: %v", ErrInvalidArgument, err)
	}
	id, err := sess.PutPolicy(r.Context(), string(src))
	if err != nil {
		return err
	}
	return reply(w, map[string]any{"id": id})
}

func (s *RESTServer) handleGetPolicy(w http.ResponseWriter, r *http.Request, _ *Session) error {
	src, err := s.ctl.GetPolicySource(r.Context(), r.PathValue("id"))
	if err != nil {
		return err
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, src)
	return nil
}

func (s *RESTServer) handleStatus(w http.ResponseWriter, _ *http.Request, _ *Session) error {
	lats := make(map[string]map[string]any, len(s.ctl.drives))
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
func (s *RESTServer) handleClusterMap(w http.ResponseWriter, _ *http.Request, _ *Session) error {
	doc := s.ctl.ClusterMapDoc()
	if len(doc) == 0 {
		return fmt.Errorf("%w: controller holds no cluster map", ErrNotFound)
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(doc)
	return nil
}

// handleTrace serves a completed trace's span tree by hex id.
func (s *RESTServer) handleTrace(w http.ResponseWriter, r *http.Request, _ *Session) error {
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
func (s *RESTServer) handleMetrics(w http.ResponseWriter, _ *http.Request, _ *Session) error {
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
