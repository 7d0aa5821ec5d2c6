package core

import (
	"context"
	"crypto/tls"
	"crypto/x509"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"repro/internal/tlsutil"
)

// TestSessionBoundPerConnection serves the REST interface the way the
// daemon and the testbed do (RESTServer.Server over mutual TLS) and
// checks the identity slot: one per connection, filled from that
// connection's certificate, distinct principals kept apart, and no way
// in without a certificate.
func TestSessionBoundPerConnection(t *testing.T) {
	h := newHarness(t, 1, nil)
	rest := NewREST(h.ctl)
	ca, err := tlsutil.NewCA("test-ca")
	if err != nil {
		t.Fatal(err)
	}
	serverID, err := ca.IssueServer("pesos", "127.0.0.1")
	if err != nil {
		t.Fatal(err)
	}
	srv := rest.Server()
	var mu sync.Mutex
	var slots []*connIdentity
	bind := srv.ConnContext
	srv.ConnContext = func(ctx context.Context, c net.Conn) context.Context {
		ctx = bind(ctx, c)
		mu.Lock()
		slots = append(slots, ctx.Value(connIdentityKey{}).(*connIdentity))
		mu.Unlock()
		return ctx
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(tls.NewListener(ln, tlsutil.ServerConfig(serverID, ca.Pool())))
	t.Cleanup(func() { srv.Close() })
	base := "https://" + ln.Addr().String()

	status := func(id *tlsutil.Identity) (int, error) {
		cl := &http.Client{Transport: &http.Transport{TLSClientConfig: tlsutil.ClientConfig(id, ca.Pool(), "127.0.0.1")}}
		defer cl.CloseIdleConnections()
		code := 0
		for i := 0; i < 2; i++ { // two requests, one kept-alive connection
			resp, err := cl.Get(base + "/v2/status")
			if err != nil {
				return 0, err
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			code = resp.StatusCode
		}
		return code, nil
	}
	alice, _ := ca.IssueClient("alice")
	bob, _ := ca.IssueClient("bob")
	for _, id := range []*tlsutil.Identity{alice, bob} {
		if code, err := status(id); err != nil || code != http.StatusOK {
			t.Fatalf("status as %s: HTTP %d, %v", id.Cert.Subject.CommonName, code, err)
		}
	}
	mu.Lock()
	seen := append([]*connIdentity(nil), slots...) // the server keeps appending to slots
	mu.Unlock()
	if len(seen) != 2 {
		t.Fatalf("4 requests over 2 clients opened %d connections, want 2", len(seen))
	}
	for i, id := range []*tlsutil.Identity{alice, bob} {
		want, _ := tlsutil.CertFingerprint(id.Cert)
		if seen[i].fp != want {
			t.Errorf("connection %d bound to %q, want %s's fingerprint %q", i, seen[i].fp, id.Cert.Subject.CommonName, want)
		}
		h.ctl.mu.Lock()
		_, ok := h.ctl.sessions[want]
		h.ctl.mu.Unlock()
		if !ok {
			t.Errorf("no session for %s", id.Cert.Subject.CommonName)
		}
	}
	if seen[0].fp == seen[1].fp {
		t.Error("two client certificates share one identity")
	}

	// Without a certificate: refused by the handshake over TLS, and by
	// the handler when it is reached some other way.
	if _, err := status(nil); err == nil {
		t.Error("request without a client certificate was served")
	}
	rec := httptest.NewRecorder()
	rest.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v2/status", nil))
	if rec.Code != http.StatusUnauthorized {
		t.Errorf("certificate-less request: HTTP %d, want 401", rec.Code)
	}
}

// TestPeerFingerprintDerivedOnce: with the connection slot in the
// context the fingerprint costs nothing after the first request;
// without it every request re-marshals and re-hashes the public key.
func TestPeerFingerprintDerivedOnce(t *testing.T) {
	ca, err := tlsutil.NewCA("test-ca")
	if err != nil {
		t.Fatal(err)
	}
	alice, err := ca.IssueClient("alice")
	if err != nil {
		t.Fatal(err)
	}
	want, _ := tlsutil.CertFingerprint(alice.Cert)
	bare := httptest.NewRequest(http.MethodGet, "/v2/status", nil)
	bare.TLS = &tls.ConnectionState{PeerCertificates: []*x509.Certificate{alice.Cert}}
	bound := bare.WithContext(context.WithValue(bare.Context(), connIdentityKey{}, new(connIdentity)))

	for _, r := range []*http.Request{bare, bound} {
		if fp, err := peerFingerprint(r); err != nil || fp != want {
			t.Fatalf("peerFingerprint = %q, %v; want %q", fp, err, want)
		}
	}
	if n := testing.AllocsPerRun(100, func() { peerFingerprint(bound) }); n != 0 {
		t.Errorf("fingerprint on a bound connection: %.0f allocs per request, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { peerFingerprint(bare) }); n == 0 {
		t.Error("unbound request derived the fingerprint for free; the bound case proves nothing")
	}
}
