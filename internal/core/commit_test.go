package core

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"repro/internal/obs"
	"repro/internal/store"
)

// TestCommitShapes holds every shape of write to the one commit's
// contract on a 3-replica harness: one atomic object+meta group per
// placement drive under one replicate span, the new head served from
// the caches with no drive read, the counters moved once per logical
// write, a foreign CAS bump surfaced as a version conflict with the
// metadata invalidated, and a dead replica failing the write with
// nothing published.
func TestCommitShapes(t *testing.T) {
	bg := context.Background()
	streamed := bytes.Repeat([]byte("s"), 2*int(store.MaxObjectSize)+5)
	// write performs one request of the row's shape, putting val(i) under
	// keys[i], and reports the outcome as its error code.
	for _, shape := range []struct {
		name  string
		keys  int
		write func(ctx context.Context, s *Session, keys []string, val func(i int) []byte) ErrorCode
	}{
		{"single put", 1, func(ctx context.Context, s *Session, keys []string, val func(int) []byte) ErrorCode {
			_, err := s.Put(ctx, keys[0], val(0), PutOptions{})
			return CodeFor(err)
		}},
		{"batch of one", 1, batchShape},
		{"batch of N", 5, batchShape},
		{"transaction", 4, func(ctx context.Context, s *Session, keys []string, val func(int) []byte) ErrorCode {
			_, _, err := s.Tx(ctx, nil, writeOps(keys, val), nil)
			return CodeFor(err)
		}},
		{"stream", 1, func(ctx context.Context, s *Session, keys []string, val func(int) []byte) ErrorCode {
			res := s.PutStream(ctx, keys[0], bytes.NewReader(append(val(0), streamed...)), PutOptions{})
			if res.Err != nil {
				return res.Err.Code
			}
			return CodeNone
		}},
	} {
		t.Run(shape.name, func(t *testing.T) {
			h := newKillableHarness(t, 3, func(c *Config) { c.Replicas = 3 })
			s := h.ctl.Session("w")
			keys := make([]string, shape.keys)
			for i := range keys {
				keys[i] = fmt.Sprintf("shape/%d", i) // distinct stripes and load buckets, mostly
			}
			gen := 0
			val := func(i int) []byte { return []byte(fmt.Sprintf("g%d-k%d", gen, i)) }
			var wrote uint64 // payload bytes of one request
			for i := range keys {
				wrote += uint64(len(val(i)))
			}
			if shape.name == "stream" {
				wrote += uint64(len(streamed))
			}
			if code := shape.write(bg, s, keys, val); code != CodeNone {
				t.Fatalf("create: %s", code)
			}

			type counts struct {
				batches, groups, ops, gets [3]uint64
				puts, writeBytes           uint64
				bucketWrites, bucketBytes  uint64
			}
			snap := func() (c counts) {
				for di, d := range h.drives {
					st := d.Stats()
					c.batches[di], c.groups[di] = st.Batches.Load(), st.BatchGroups.Load()
					c.ops[di], c.gets[di] = st.BatchOps.Load(), st.Gets.Load()
				}
				st := h.ctl.Stats().Snapshot()
				c.puts, c.writeBytes = st.Puts, st.WriteBytes
				for _, b := range h.ctl.loadBuckets() {
					c.bucketWrites += b.Writes
					c.bucketBytes += b.WriteBytes
				}
				return c
			}

			// The update: version 1 of every key.
			gen = 1
			before := snap()
			ctx, root := h.ctl.Tracer().Start(bg, "write", 0)
			if code := shape.write(ctx, s, keys, val); code != CodeNone {
				t.Fatalf("update: %s", code)
			}
			root.End()
			after := snap()
			spans := make(map[string]int)
			for _, sp := range h.ctl.TraceDump(obs.TraceID(ctx)).Spans {
				spans[sp.Name]++
			}
			if spans["replicate"] != 1 || spans["gcommit_wait"] != len(h.drives) {
				t.Errorf("spans %v, want one replicate over %d gcommit_wait", spans, len(h.drives))
			}
			for di := range h.drives {
				if got := after.batches[di] - before.batches[di]; got != 1 {
					t.Errorf("drive %d: %d batches, want 1", di, got)
				}
				if got := after.groups[di] - before.groups[di]; got != 1 {
					t.Errorf("drive %d: %d groups, want 1", di, got)
				}
				if got := after.ops[di] - before.ops[di]; got != uint64(2*len(keys)) {
					t.Errorf("drive %d: %d batch sub-ops, want %d (object+meta per key)", di, got, 2*len(keys))
				}
			}
			if got := after.puts - before.puts; got != uint64(len(keys)) {
				t.Errorf("Puts moved by %d, want %d", got, len(keys))
			}
			if got := after.writeBytes - before.writeBytes; got != wrote {
				t.Errorf("WriteBytes moved by %d, want %d", got, wrote)
			}
			if w, b := after.bucketWrites-before.bucketWrites, after.bucketBytes-before.bucketBytes; w != uint64(len(keys)) || b != wrote {
				t.Errorf("load buckets moved by %d writes / %d bytes, want %d / %d", w, b, len(keys), wrote)
			}

			// The new head is served from the caches: no drive GET.
			for i, k := range keys {
				m, err := h.ctl.loadMeta(bg, k)
				if err != nil || m.Version != 1 {
					t.Fatalf("loadMeta(%q): %+v, %v", k, m, err)
				}
				rec, err := h.ctl.loadPlanned(bg, m, 1)
				if err != nil {
					t.Fatalf("loadPlanned(%q, 1): %v", k, err)
				}
				if shape.name == "stream" {
					if rec.Meta.Chunks != 3 || rec.Meta.Size != int64(wrote) {
						t.Errorf("chunk stub of %q: %+v", k, rec.Meta)
					}
				} else if !bytes.Equal(rec.Payload, val(i)) {
					t.Errorf("record of %q: %q", k, rec.Payload)
				}
			}
			if served := snap(); served.gets != after.gets {
				t.Errorf("reading the new heads went to the drives: GETs %v → %v", after.gets, served.gets)
			}

			// A foreign controller bumps keys[0]'s metadata on the drives:
			// the commit's CAS fails everywhere, nothing is counted, and
			// every touched key's cached metadata is dropped.
			foreign := func(token int64) {
				rec, _, err := h.ctl.drives[0].pick().Get(bg, store.MetaKey(keys[0]))
				if err != nil {
					t.Fatal(err)
				}
				for di := range h.drives {
					if err := h.ctl.drives[di].pick().Put(bg, store.MetaKey(keys[0]), rec, nil, encodeVer(token), true); err != nil {
						t.Fatal(err)
					}
				}
			}
			failed := func(what string, before counts) {
				t.Helper()
				after := snap()
				if after.puts != before.puts || after.writeBytes != before.writeBytes || after.bucketWrites != before.bucketWrites {
					t.Errorf("%s: a failed write was counted", what)
				}
				for _, k := range keys {
					if _, ok := h.ctl.metaCache.Get(k); ok {
						t.Errorf("%s: metadata of %q still cached", what, k)
					}
					if rec, ok := h.ctl.objectCache.Get(k); ok && rec.Meta.Version == 2 {
						t.Errorf("%s: version 2 of %q published", what, k)
					}
				}
			}
			gen = 2
			foreign(99)
			before = snap()
			if code := shape.write(bg, s, keys, val); code != CodeVersionConflict {
				t.Fatalf("write over a foreign CAS bump: %q, want %q", code, CodeVersionConflict)
			}
			failed("CAS conflict", before)
			foreign(1) // the foreign writer goes away

			// A dead replica fails the write; nothing is published.
			for _, k := range keys { // re-warm, so the failure has something to invalidate
				if _, err := h.ctl.loadMeta(bg, k); err != nil {
					t.Fatal(err)
				}
			}
			h.kill(1)
			before = snap()
			if code := shape.write(bg, s, keys, val); code == CodeNone {
				t.Fatal("write succeeded with a dead replica")
			}
			failed("dead replica", before)
		})
	}
}

// writeOps is one unconditional write of val(i) per key.
func writeOps(keys []string, val func(i int) []byte) []BatchPutOp {
	ops := make([]BatchPutOp, len(keys))
	for i, k := range keys {
		ops[i] = BatchPutOp{Key: JSONKey(k), Value: val(i)}
	}
	return ops
}

func batchShape(ctx context.Context, s *Session, keys []string, val func(i int) []byte) ErrorCode {
	results, err := s.BatchPut(ctx, writeOps(keys, val), nil)
	if err != nil {
		return CodeFor(err)
	}
	for _, r := range results {
		if r.Err != nil {
			return r.Err.Code
		}
	}
	return CodeNone
}
