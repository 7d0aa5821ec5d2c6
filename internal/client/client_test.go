package client

import (
	"bytes"
	"context"
	"crypto/tls"
	"crypto/x509"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/core"
)

// fakeController answers the handful of routes these tests use the way
// a third-party server may: JSON written through a json.Encoder straight
// to the wire, long replies chunked. Only ?prefix=sized is answered as
// the controller itself answers, whole and with Content-Length.
func fakeController(t *testing.T) (*Client, *atomic.Int64) {
	t.Helper()
	mux := http.NewServeMux()
	writeJSON := func(w http.ResponseWriter, code int, v any) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(code)
		json.NewEncoder(w).Encode(v)
	}
	mux.HandleFunc("GET /v2/objects", func(w http.ResponseWriter, r *http.Request) {
		page := ListPage{NextToken: "more"}
		for i := 0; i < 100; i++ {
			page.Entries = append(page.Entries, ListEntry{Key: core.JSONKey(fmt.Sprintf("user%06d/record", i)), Version: int64(i), Size: 1024, PolicyID: strings.Repeat("p", 64)})
		}
		switch r.URL.Query().Get("prefix") {
		case "endless":
		case "sized":
			body := append(core.AppendREST(nil, &page), '\n')
			w.Header().Set("Content-Length", strconv.Itoa(len(body)))
			w.Write(body)
			return
		default:
			writeJSON(w, http.StatusOK, page)
			return
		}
		// A reply that goes on long past its JSON value.
		writeJSON(w, http.StatusOK, page)
		pad := bytes.Repeat([]byte{' '}, 64<<10)
		for i := 0; i < 64; i++ { // 4 MiB, sixteen times the drain bound
			if _, err := w.Write(pad); err != nil {
				return
			}
		}
	})
	mux.HandleFunc("POST /v2/batch/put", func(w http.ResponseWriter, r *http.Request) {
		var in struct {
			Ops []BatchPutOp `json:"ops"`
		}
		if err := json.NewDecoder(r.Body).Decode(&in); err != nil {
			writeJSON(w, http.StatusBadRequest, map[string]any{"error": OpError{Code: "invalid_argument", Message: err.Error()}})
			return
		}
		out := make([]OpResult, len(in.Ops))
		for i, op := range in.Ops {
			out[i] = OpResult{Key: op.Key, Version: 1}
		}
		writeJSON(w, http.StatusOK, map[string]any{"results": out})
	})
	mux.HandleFunc("GET /v2/objects/{key...}", func(w http.ResponseWriter, r *http.Request) {
		refusal := map[string]OpError{
			"denied": {Code: "denied", Message: "pesos: denied by policy"},
			"moved":  {Code: "wrong_shard", Message: "pesos: key not owned by this shard"},
			"absent": {Code: "not_found", Message: "no such object"},
		}[r.PathValue("key")]
		writeJSON(w, core.ErrorCode(refusal.Code).HTTPStatus(), map[string]any{"error": refusal})
	})
	srv := httptest.NewTLSServer(mux)
	t.Cleanup(srv.Close)

	pool := x509.NewCertPool()
	pool.AddCert(srv.Certificate())
	dials := new(atomic.Int64)
	cl := New(Config{
		BaseURL: srv.URL,
		TLS:     &tls.Config{RootCAs: pool},
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			dials.Add(1)
			var d net.Dialer
			return d.DialContext(ctx, network, addr)
		},
	})
	return cl, dials
}

// TestChunkedRepliesKeepTheConnection: a List page and a 64-record
// BatchPut reply are longer than net/http buffers, so they are chunked,
// and a decoder stops short of the terminating chunk. Sixty of them in
// a row must ride one connection — one dial, one TLS handshake.
func TestChunkedRepliesKeepTheConnection(t *testing.T) {
	cl, dials := fakeController(t)
	ctx := context.Background()
	for i := 0; i < 50; i++ {
		page, err := cl.List(ctx, ListOptions{Limit: 100})
		if err != nil || len(page.Entries) != 100 || page.NextToken != "more" {
			t.Fatalf("list %d: %d entries, %v", i, len(page.Entries), err)
		}
	}
	ops := make([]BatchPutOp, 64)
	for i := range ops {
		ops[i] = BatchPutOp{Key: core.JSONKey(fmt.Sprintf("user%06d/record", i)), Value: make([]byte, 1024)}
	}
	for i := 0; i < 10; i++ {
		res, err := cl.BatchPut(ctx, ops)
		if err != nil || len(res) != len(ops) {
			t.Fatalf("batch put %d: %d results, %v", i, len(res), err)
		}
	}
	// A reply with Content-Length is read once, to its length, and that
	// too leaves the connection ready for the next request.
	for i := 0; i < 15; i++ {
		page, err := cl.List(ctx, ListOptions{Prefix: "sized"})
		if err != nil || len(page.Entries) != 100 || page.NextToken != "more" {
			t.Fatalf("sized list %d: %d entries, %v", i, len(page.Entries), err)
		}
	}
	if n := dials.Load(); n != 1 {
		t.Errorf("50 chunked lists, 10 batch puts and 15 sized lists dialled %d times, want 1", n)
	}
}

// TestErrorRepliesKeepTheConnection: a refusal is a reply like any
// other; the connection outlives it.
func TestErrorRepliesKeepTheConnection(t *testing.T) {
	cl, dials := fakeController(t)
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if _, _, err := cl.Get(ctx, "denied", GetOptions{}); !errors.Is(err, ErrDenied) {
			t.Fatalf("403: %v, want ErrDenied", err)
		}
		var opErr *OpError
		if _, _, err := cl.Get(ctx, "moved", GetOptions{}); !errors.As(err, &opErr) || opErr.Status != http.StatusMisdirectedRequest || opErr.Code != "wrong_shard" {
			t.Fatalf("421: %v, want a wrong_shard OpError", err)
		}
		if _, _, err := cl.Get(ctx, "absent", GetOptions{}); !errors.As(err, &opErr) || opErr.Code != "not_found" {
			t.Fatalf("404: %v, want not_found", err)
		}
		// A denied read is an answer like the others: an *OpError with
		// its status and code (docs/perf.md, "A denial is an answer").
		if _, _, err := cl.Get(ctx, "denied", GetOptions{}); !errors.As(err, &opErr) || opErr.Status != http.StatusForbidden || opErr.Code != "denied" {
			t.Fatalf("403: %v, want a denied OpError", err)
		}
		if _, _, err := cl.GetStream(ctx, "denied", GetOptions{}); !errors.Is(err, ErrDenied) {
			t.Fatalf("streamed 403: %v, want ErrDenied", err)
		}
	}
	if n := dials.Load(); n != 1 {
		t.Errorf("fifteen refused requests dialled %d times, want 1", n)
	}
}

// TestOverlongReplyIsClosedNotDrained: past the bound, reading on costs
// more than a handshake. The reply still decodes; its connection is
// dropped, so the next request dials.
func TestOverlongReplyIsClosedNotDrained(t *testing.T) {
	cl, dials := fakeController(t)
	ctx := context.Background()
	if _, err := cl.List(ctx, ListOptions{}); err != nil {
		t.Fatal(err)
	}
	page, err := cl.List(ctx, ListOptions{Prefix: "endless"})
	if err != nil || len(page.Entries) != 100 {
		t.Fatalf("over-long reply: %d entries, %v", len(page.Entries), err)
	}
	if n := dials.Load(); n != 1 {
		t.Fatalf("dialled %d times before the over-long reply was finished with, want 1", n)
	}
	if _, err := cl.List(ctx, ListOptions{}); err != nil {
		t.Fatal(err)
	}
	if n := dials.Load(); n != 2 {
		t.Errorf("dialled %d times after an over-long reply, want 2: it was read to its end instead of closed", n)
	}
}

// FuzzEscapeKey: escapeKey is the only way an object key enters a URL.
// For any key the API accepts — non-empty, no NUL — its escaped form is
// unreserved characters and %XX only, never a dot segment the mux would
// clean away, and a net/http mux hands the handler back the key itself.
func FuzzEscapeKey(f *testing.F) {
	for _, seed := range []string{
		"plain", "a/b", "a/../b", "..", ".", "trail/", "/lead", "pct%2Fkey", "q?uery#frag",
		"sp ace", "plus+and&amp", "\xff\xfe\x80bin", "co:lon;semi", "~tilde_-", "%", "%%%zz",
	} {
		f.Add(seed)
	}
	var got string
	mux := http.NewServeMux()
	mux.HandleFunc("GET /{key...}", func(_ http.ResponseWriter, r *http.Request) { got = r.PathValue("key") })
	f.Fuzz(func(t *testing.T, key string) {
		if key == "" || strings.ContainsRune(key, 0) {
			t.Skip()
		}
		esc := escapeKey(key)
		for i := 0; i < len(esc); i++ {
			c := esc[i]
			switch {
			case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '-', c == '_', c == '~':
			case c == '%' && i+2 < len(esc) && isUpperHex(esc[i+1]) && isUpperHex(esc[i+2]):
				i += 2
			default:
				t.Fatalf("escapeKey(%q) = %q: byte %d is neither unreserved nor a %%XX escape", key, esc, i)
			}
		}
		if esc == "." || esc == ".." {
			t.Fatalf("escapeKey(%q) = %q is a dot segment", key, esc)
		}
		req, err := http.NewRequest(http.MethodGet, "https://pesos/"+esc, nil)
		if err != nil {
			t.Fatalf("escapeKey(%q) = %q does not parse as a URL: %v", key, esc, err)
		}
		got = "\x00unrouted"
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK || got != key {
			t.Fatalf("key %q as %q reached the handler as %q (HTTP %d)", key, esc, got, rec.Code)
		}
	})
}

func isUpperHex(c byte) bool { return c >= '0' && c <= '9' || c >= 'A' && c <= 'F' }
