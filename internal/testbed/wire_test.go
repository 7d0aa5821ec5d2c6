package testbed

import (
	"crypto/tls"
	"crypto/x509"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strings"
	"testing"

	"repro/internal/core"
)

// wireRoutes is the controller's wire surface: every route, and the
// malformed requests it documents an answer for (docs/api.md). url is a
// well-formed instance of the pattern, used for the 401 row.
var wireRoutes = []struct {
	pattern, url string
	bad          []wireCase
}{
	{"GET /v2/objects", "/v2/objects", []wireCase{
		{"bad limit", "/v2/objects?limit=many", "", 400, core.CodeInvalidArgument},
		{"bad token", "/v2/objects?token=garbage", "", 400, core.CodeBadToken}}},
	{"GET /v2/objects/{key...}", "/v2/objects/k", []wireCase{
		{"bad version", "/v2/objects/k?version=latest", "", 400, core.CodeInvalidArgument},
		{"NUL key", "/v2/objects/a%00b", "", 400, core.CodeInvalidArgument},
		{"missing object", "/v2/objects/absent", "", 404, core.CodeNotFound}}},
	{"PUT /v2/objects/{key...}", "/v2/objects/k", []wireCase{
		{"bad version", "/v2/objects/k?version=next", "v", 400, core.CodeInvalidArgument},
		{"NUL key", "/v2/objects/a%00b", "v", 400, core.CodeInvalidArgument},
		{"unknown policy", "/v2/objects/k?policy=nope", "v", 404, core.CodeNoSuchPolicy}}},
	{"POST /v2/objects/{key...}", "/v2/objects/k", []wireCase{
		{"bad version", "/v2/objects/k?version=next", "v", 400, core.CodeInvalidArgument},
		{"NUL key", "/v2/objects/a%00b", "v", 400, core.CodeInvalidArgument}}},
	{"DELETE /v2/objects/{key...}", "/v2/objects/k", []wireCase{
		{"NUL key", "/v2/objects/a%00b", "", 400, core.CodeInvalidArgument},
		{"missing object", "/v2/objects/absent", "", 404, core.CodeNotFound}}},
	{"POST /v2/batch/get", "/v2/batch/get", []wireCase{
		{"undecodable body", "/v2/batch/get", `{"keys":`, 400, core.CodeInvalidArgument}}},
	{"POST /v2/batch/put", "/v2/batch/put", []wireCase{
		{"undecodable body", "/v2/batch/put", `not json`, 400, core.CodeInvalidArgument}}},
	{"POST /v2/tx", "/v2/tx", []wireCase{
		{"undecodable body", "/v2/tx", `{"ops":`, 400, core.CodeInvalidArgument},
		{"NUL key", "/v2/tx", `{"ops":[{"key":"a\u0000b","value":"dg=="}]}`, 400, core.CodeInvalidArgument},
		{"key read and written", "/v2/tx", `{"keys":["k"],"ops":[{"key":"k","value":"dg=="}]}`, 400, core.CodeInvalidArgument},
		{"version conflict", "/v2/tx", `{"ops":[{"key":"fresh","value":"dg==","version":3,"hasVersion":true}]}`, 409, core.CodeVersionConflict}}},
	{"GET /v2/results/{op}", "/v2/results/1", []wireCase{
		{"bad op id", "/v2/results/first", "", 400, core.CodeInvalidArgument},
		{"unknown op id", "/v2/results/99999", "", 404, core.CodeNotFound}}},
	{"GET /v2/versions/{key...}", "/v2/versions/k", []wireCase{
		{"NUL key", "/v2/versions/a%00b", "", 400, core.CodeInvalidArgument},
		{"missing object", "/v2/versions/absent", "", 404, core.CodeNotFound}}},
	{"GET /v2/verify/{key...}", "/v2/verify/k", []wireCase{
		{"bad version", "/v2/verify/k?version=head", "", 400, core.CodeInvalidArgument},
		{"missing object", "/v2/verify/absent?version=0", "", 404, core.CodeNotFound}}},
	{"POST /v2/repair/{key...}", "/v2/repair/k", []wireCase{
		{"NUL key", "/v2/repair/a%00b", "", 400, core.CodeInvalidArgument},
		{"missing object", "/v2/repair/absent", "", 404, core.CodeNotFound}}},
	{"POST /v2/policies", "/v2/policies", []wireCase{
		{"malformed policy", "/v2/policies", "read :- nonsense(", 400, core.CodeInvalidArgument}}},
	{"GET /v2/policies/{id}", "/v2/policies/p", []wireCase{
		{"unknown policy", "/v2/policies/nope", "", 404, core.CodeNoSuchPolicy}}},
	{"GET /v2/status", "/v2/status", nil},
	{"GET /v2/cluster/map", "/v2/cluster/map", []wireCase{
		{"unsharded controller", "/v2/cluster/map", "", 404, core.CodeNotFound}}},
	{"GET /v2/trace/{id}", "/v2/trace/00000000000000ff", []wireCase{
		{"bad trace id", "/v2/trace/xyz", "", 400, core.CodeInvalidArgument},
		{"unknown trace", "/v2/trace/00000000000000ff", "", 404, core.CodeNotFound}}},
	{"GET /metrics", "/metrics", nil},
}

// wireCase is one malformed request and the answer it must get.
type wireCase struct {
	name, url, body string
	status          int
	code            core.ErrorCode
}

// TestWireSurface holds every route to the one failure contract: without
// a client certificate it answers 401 — an identity claimed in a header
// is no identity — a malformed request gets its documented status, and in
// both cases the body is {"error":{"code","message"}} with the status the
// code maps to. The table, the routes rest.go mounts and the route table
// of docs/api.md are one list. Every /v1 route of the controller is gone,
// not redirected.
func TestWireSurface(t *testing.T) {
	c, err := Start(Options{Drives: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	id, err := c.CA.IssueClient("wire")
	if err != nil {
		t.Fatal(err)
	}
	// The requests skip the TLS listener — mutual TLS would refuse the
	// anonymous ones at the handshake — and reach the handler the way a
	// terminated connection hands them over.
	do := func(method, url, body string, authenticated bool) *httptest.ResponseRecorder {
		req := httptest.NewRequest(method, url, strings.NewReader(body))
		if authenticated {
			req.TLS = &tls.ConnectionState{PeerCertificates: []*x509.Certificate{id.Cert}}
		} else {
			req.Header.Set("X-Pesos-Identity", Fingerprint(id))
		}
		rec := httptest.NewRecorder()
		c.REST.ServeHTTP(rec, req)
		return rec
	}
	checkEnvelope := func(what string, rec *httptest.ResponseRecorder, status int, code core.ErrorCode) {
		t.Helper()
		var env struct {
			Error *struct {
				Code    core.ErrorCode `json:"code"`
				Message string         `json:"message"`
			} `json:"error"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || env.Error == nil {
			t.Errorf("%s: body %q is not the error envelope (%v)", what, rec.Body.String(), err)
			return
		}
		if rec.Code != status || env.Error.Code != code || env.Error.Message == "" {
			t.Errorf("%s: HTTP %d %+v, want %d [%s] with a message", what, rec.Code, *env.Error, status, code)
		}
		if got := env.Error.Code.HTTPStatus(); got != rec.Code {
			t.Errorf("%s: code %q maps to %d, answered %d", what, env.Error.Code, got, rec.Code)
		}
	}

	tabled := make(map[string]bool)
	for _, rt := range wireRoutes {
		tabled[rt.pattern] = true
		method, _, _ := strings.Cut(rt.pattern, " ")
		checkEnvelope(rt.pattern+" unauthenticated", do(method, rt.url, "", false), http.StatusUnauthorized, core.CodeUnauthenticated)
		for _, bc := range rt.bad {
			checkEnvelope(rt.pattern+" "+bc.name, do(method, bc.url, bc.body, true), bc.status, bc.code)
		}
	}

	// The table is the whole surface: every pattern the server mounts has
	// a row, and a row in docs/api.md's route table, and every route the
	// document lists is mounted.
	mounted := mountedRoutes(t)
	documented := make(map[string]bool)
	for _, route := range documentedRoutes(t) {
		documented[route] = true
	}
	for _, pattern := range mounted {
		if !tabled[pattern] {
			t.Errorf("route %q is mounted but has no row in wireRoutes", pattern)
		}
		doc := strings.ReplaceAll(pattern, "{key...}", "{key}")
		if !documented[doc] {
			t.Errorf("route %q is mounted but docs/api.md's route table does not list %q", pattern, doc)
		}
		delete(documented, doc)
	}
	for route := range documented {
		t.Errorf("docs/api.md lists %q, which is not mounted", route)
	}
	if len(mounted) != len(wireRoutes) {
		t.Errorf("%d routes mounted, %d tabled", len(mounted), len(wireRoutes))
	}

	// The deleted routes: the /v1 object and transaction routes, and the
	// eight that moved to /v2 unchanged. Each answers 404.
	for _, gone := range []string{
		"PUT /v1/objects/x", "POST /v1/objects/x", "GET /v1/objects/x", "DELETE /v1/objects/x", "GET /v1/results/1",
		"POST /v1/tx", "POST /v1/tx/1/read?key=k", "POST /v1/tx/1/write?key=k", "POST /v1/tx/1/commit", "POST /v1/tx/1/abort", "GET /v1/tx/1/results",
		"GET /v1/versions/k", "GET /v1/verify/k?version=0", "POST /v1/repair/k", "POST /v1/policies", "GET /v1/policies/p",
		"GET /v1/status", "GET /v1/cluster/map", "GET /v1/trace/00000000000000ff",
	} {
		method, url, _ := strings.Cut(gone, " ")
		if rec := do(method, url, "v", true); rec.Code != http.StatusNotFound {
			t.Errorf("%s: HTTP %d, want 404 — the route is deleted", gone, rec.Code)
		}
	}
}

// mountedRoutes reads the patterns the controller mounts off its one
// route table: the route calls in core's rest.go (the mux keeps no list).
func mountedRoutes(t *testing.T) []string {
	t.Helper()
	src, err := os.ReadFile("../core/rest.go")
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, m := range regexp.MustCompile(`s\.route\("([A-Z]+ /[^"]*)"`).FindAllStringSubmatch(string(src), -1) {
		out = append(out, m[1])
	}
	if len(out) == 0 {
		t.Fatal("rest.go mounts no route")
	}
	return out
}

// documentedRoutes reads the route table of docs/api.md's "Routes"
// section: the first cell of each row, "METHOD /path", a key spelled
// {key}.
func documentedRoutes(t *testing.T) []string {
	t.Helper()
	src, err := os.ReadFile("../../docs/api.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(src), "\n## Routes\n")
	if !ok {
		t.Fatal(`docs/api.md has no "## Routes" section`)
	}
	section, _, _ = strings.Cut(section, "\n## ")
	var out []string
	for _, m := range regexp.MustCompile("(?m)^\\| `([A-Z]+ /[^`]*)` \\|").FindAllStringSubmatch(section, -1) {
		out = append(out, m[1])
	}
	return out
}
