package testbed

import (
	"context"
	"crypto/tls"
	"crypto/x509"
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/tlsutil"
)

// apiStatus extracts the HTTP status of a client error, 0 if none.
func apiStatus(err error) int {
	var opErr *client.OpError
	if errors.As(err, &opErr) {
		return opErr.Status
	}
	return 0
}

// opCode extracts the taxonomy code of a mutation's per-op failure, ""
// if err is not one.
func opCode(err error) core.ErrorCode {
	var opErr *client.OpError
	if errors.As(err, &opErr) {
		return core.ErrorCode(opErr.Code)
	}
	return ""
}

func TestRESTErrorMapping(t *testing.T) {
	c, err := Start(Options{Drives: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cl, _, err := c.NewClient("tester")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	// 404 for a missing object.
	_, _, err = cl.Get(ctx, "missing", client.GetOptions{})
	if apiStatus(err) != http.StatusNotFound {
		t.Errorf("missing object: %v", err)
	}
	// 404 for an unknown policy id on put.
	_, err = cl.Put(ctx, "k", []byte("v"), client.PutOptions{PolicyID: "nope"})
	if code := opCode(err); code != core.CodeNoSuchPolicy || code.HTTPStatus() != http.StatusNotFound {
		t.Errorf("unknown policy: %v", err)
	}
	// 409 for version conflicts.
	if _, err := cl.Put(ctx, "k", []byte("v"), client.PutOptions{}); err != nil {
		t.Fatal(err)
	}
	_, err = cl.Put(ctx, "k", []byte("v"), client.PutOptions{Version: 9, HasVersion: true})
	if code := opCode(err); code != core.CodeVersionConflict || code.HTTPStatus() != http.StatusConflict {
		t.Errorf("version conflict: %v", err)
	}
	// 400 for malformed policies.
	_, err = cl.PutPolicy(ctx, "read :- nonsense(")
	if apiStatus(err) != http.StatusBadRequest {
		t.Errorf("bad policy: %v", err)
	}
	// 403 surfaces as ErrDenied (tested throughout); a denied delete
	// is one too, under the denied code.
	pid, err := cl.PutPolicy(ctx, "read :- sessionKeyIs(U)")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Put(ctx, "sealed", []byte("x"), client.PutOptions{PolicyID: pid}); err != nil {
		t.Fatal(err)
	}
	if err := cl.Delete(ctx, "sealed"); !errors.Is(err, client.ErrDenied) || opCode(err) != core.CodeDenied {
		t.Errorf("denied delete: %v", err)
	}
	// NUL bytes in keys are rejected before touching the store.
	_, err = cl.Put(ctx, "bad\x00key", []byte("v"), client.PutOptions{})
	if code := opCode(err); code != core.CodeInvalidArgument || code.HTTPStatus() != http.StatusBadRequest {
		t.Errorf("NUL key: %v", err)
	}
	if _, _, err = cl.Get(ctx, "bad\x00key", client.GetOptions{}); apiStatus(err) != http.StatusBadRequest {
		t.Errorf("NUL key read: %v", err)
	}
}

func TestRESTPolicyAudit(t *testing.T) {
	c, err := Start(Options{Drives: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cl, _, err := c.NewClient("auditor")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	src := "read :- sessionKeyIs(k'abcd')\n"
	pid, err := cl.PutPolicy(ctx, src)
	if err != nil {
		t.Fatal(err)
	}
	text, err := cl.GetPolicy(ctx, pid)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text, "sessionKeyIs(k'abcd')") {
		t.Errorf("audited policy text: %q", text)
	}
	// Policy ids are content addressed: re-uploading returns the same id.
	pid2, err := cl.PutPolicy(ctx, src)
	if err != nil || pid2 != pid {
		t.Errorf("content addressing: %s vs %s (%v)", pid, pid2, err)
	}
	if _, err := cl.GetPolicy(ctx, "unknown"); apiStatus(err) != http.StatusNotFound {
		t.Errorf("unknown policy fetch: %v", err)
	}
}

func TestRESTVerifyEndpoint(t *testing.T) {
	c, err := Start(Options{Drives: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cl, _, err := c.NewClient("v")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := cl.Put(ctx, "k", []byte("content"), client.PutOptions{}); err != nil {
		t.Fatal(err)
	}
	info, err := cl.Verify(ctx, "k", 0)
	if err != nil {
		t.Fatal(err)
	}
	if info.Size != int64(len("content")) || len(info.ContentHash) != 64 {
		t.Errorf("verify info: %+v", info)
	}
}

// TestRESTVerifyOfADeniedObject: verification reads the object, so a
// session its policy grants no read gets the 403 envelope and none of
// the object's size, hash or policy id.
func TestRESTVerifyOfADeniedObject(t *testing.T) {
	c, err := Start(Options{Drives: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	owner, ownerID, err := c.NewClient("owner")
	if err != nil {
		t.Fatal(err)
	}
	eve, eveID, err := c.NewClient("eve")
	if err != nil {
		t.Fatal(err)
	}
	fp := Fingerprint(ownerID)
	pid, err := owner.PutPolicy(ctx, "read :- sessionKeyIs(k'"+fp+"')\nupdate :- sessionKeyIs(k'"+fp+"')")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := owner.Put(ctx, "secret", []byte("TOP SECRET"), client.PutOptions{PolicyID: pid}); err != nil {
		t.Fatal(err)
	}
	if info, err := owner.Verify(ctx, "secret", 0); err != nil || info.Policy != pid {
		t.Fatalf("owner verify: %+v, %v", info, err)
	}
	if info, err := eve.Verify(ctx, "secret", 0); !errors.Is(err, client.ErrDenied) || info != nil {
		t.Fatalf("verify of a denied object: %+v, %v", info, err)
	}
	// The reply itself, as the handler writes it.
	req := httptest.NewRequest(http.MethodGet, "/v2/verify/secret?version=0", nil)
	req.TLS = &tls.ConnectionState{PeerCertificates: []*x509.Certificate{eveID.Cert}}
	rec := httptest.NewRecorder()
	c.REST.ServeHTTP(rec, req)
	var env core.ErrorReply
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || rec.Code != http.StatusForbidden || env.Error.Code != core.CodeDenied {
		t.Fatalf("HTTP %d %q (%v), want the 403 denied envelope", rec.Code, rec.Body.String(), err)
	}
	if body := rec.Body.String(); strings.Contains(body, pid) || strings.Contains(body, "contentHash") {
		t.Fatalf("denial discloses the object: %q", body)
	}
}

func TestRESTRejectsAnonymous(t *testing.T) {
	c, err := Start(Options{Drives: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// A client without a certificate fails the TLS handshake (mutual
	// TLS) — the request never reaches the handler.
	anon := client.New(client.Config{
		BaseURL: "https://pesos",
		TLS:     tlsutil.ClientConfig(nil, c.CA.Pool(), "pesos"),
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			return c.restLn.DialContext(ctx)
		},
	})
	_, _, err = anon.Get(context.Background(), "k", client.GetOptions{})
	if err == nil {
		t.Fatal("anonymous client served")
	}
}
