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
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/core"
)

// fakeController answers the handful of routes these tests use with
// replies shaped like the controller's: JSON written through a
// json.Encoder, long ones chunked.
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
		if r.URL.Query().Get("prefix") != "endless" {
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
			writeJSON(w, http.StatusBadRequest, map[string]any{"error": err.Error()})
			return
		}
		out := make([]OpResult, len(in.Ops))
		for i, op := range in.Ops {
			out[i] = OpResult{Key: op.Key, Version: 1}
		}
		writeJSON(w, http.StatusOK, map[string]any{"results": out})
	})
	refuse := func(w http.ResponseWriter, r *http.Request) {
		switch r.PathValue("key") {
		case "denied":
			writeJSON(w, http.StatusForbidden, map[string]any{"error": "pesos: denied by policy"})
		case "moved": // v1 shape: a message, no taxonomy code
			writeJSON(w, http.StatusMisdirectedRequest, map[string]any{"error": "pesos: key not owned by this shard"})
		default:
			writeJSON(w, http.StatusNotFound, map[string]any{"error": map[string]string{"code": "not_found", "message": "no such object"}})
		}
	}
	mux.HandleFunc("GET /v1/objects/{key...}", refuse)
	mux.HandleFunc("GET /v2/objects/{key...}", refuse)
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
	if n := dials.Load(); n != 1 {
		t.Errorf("50 lists and 10 batch puts dialled %d times, want 1", n)
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
		var apiErr *APIError
		if _, _, err := cl.Get(ctx, "moved", GetOptions{}); !errors.As(err, &apiErr) || apiErr.Status != http.StatusMisdirectedRequest || apiErr.Code != "" {
			t.Fatalf("421: %v, want a code-less APIError", err)
		}
		if _, _, err := cl.Get(ctx, "absent", GetOptions{}); !errors.As(err, &apiErr) || apiErr.Code != "not_found" {
			t.Fatalf("404: %v, want not_found", err)
		}
		if _, _, err := cl.GetStream(ctx, "denied", GetOptions{}); !errors.Is(err, ErrDenied) {
			t.Fatalf("streamed 403: %v, want ErrDenied", err)
		}
	}
	if n := dials.Load(); n != 1 {
		t.Errorf("twelve refused requests dialled %d times, want 1", n)
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
