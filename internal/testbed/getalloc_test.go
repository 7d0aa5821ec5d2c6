//go:build !race

// Not under the race detector: there sync.Pool drops a quarter of what it
// is handed, and net/http's pooled readers and writers are reallocated.

package testbed

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/client"
)

// TestGetAllocBudget pins what a cached 1 KiB read costs in allocations
// through the real hop — client, TLS over the in-memory network,
// net/http on both sides, session, object cache — counting both ends,
// which share the process. Most of it is net/http's (go1.24: header maps
// and values, the request and its URL on either side, contexts). Measured
// 109 before the request URL stopped being formatted and re-parsed, the
// server stopped building an empty query map, and the value was read into
// a slice of its declared length; 106 since; 105 once a key with nothing
// to escape stopped being copied into its URL segment.
func TestGetAllocBudget(t *testing.T) {
	c, err := Start(Options{Drives: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cl, _, err := c.NewClient("reader")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	want := bytes.Repeat([]byte("v"), 1024)
	if _, err := cl.Put(ctx, "user000000001234", want, client.PutOptions{}); err != nil {
		t.Fatal(err)
	}
	get := func() {
		got, _, err := cl.Get(ctx, "user000000001234", client.GetOptions{})
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("get: %d bytes, %v", len(got), err)
		}
	}
	get() // connection, handshake, caches
	n := testing.AllocsPerRun(200, get)
	if n > 105 {
		t.Errorf("a cached 1 KiB Get allocates %.1f times, budget 105", n)
	}
}
