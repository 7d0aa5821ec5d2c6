package core

import (
	"bytes"
	"context"
	"testing"
	"time"

	"repro/internal/kinetic"
)

// TestVerifyLeavesObjectCacheAlone: chunk records never pass through
// the object cache. Verifying a streamed version of either class costs
// the cache the one lookup of the version's stub and nothing else — no
// miss, no eviction — and a hot inline record stays cached however many
// megabytes of chunks the verification read.
func TestVerifyLeavesObjectCacheAlone(t *testing.T) {
	for _, class := range []struct {
		name   string
		drives int
		cfg    func(*Config)
		ec     bool
	}{
		{"8-chunk replicated", 2, func(c *Config) { c.Replicas = 2 }, false},
		{"erasure-coded", 6, ecConfig, true},
	} {
		t.Run(class.name, func(t *testing.T) {
			h := newHarness(t, class.drives, func(c *Config) {
				class.cfg(c)
				c.ObjectCacheBytes = 2 * streamChunkSize // a verification's chunks would flush it
			})
			s := h.ctl.Session("w")
			ctx := context.Background()
			if _, err := s.Put(ctx, "hot", []byte("an inline record"), PutOptions{}); err != nil {
				t.Fatal(err)
			}
			if res := s.PutStream(ctx, "big", bytes.NewReader(streamPayload(8*streamChunkSize)), PutOptions{}); res.Err != nil {
				t.Fatal(res.Err)
			}
			before := h.ctl.CacheStats()["object"]
			meta, err := s.Verify(ctx, "big", 0)
			if err != nil || meta.Chunks != 8 || (meta.ECK > 0) != class.ec {
				t.Fatalf("verify: %+v %v", meta, err)
			}
			after := h.ctl.CacheStats()["object"]
			if want := [3]uint64{before[0] + 1, before[1], before[2]}; after != want {
				t.Errorf("object cache hits/misses/evictions %v → %v, want %v (the stub's lookup only)", before, after, want)
			}
			if rec, ok := h.ctl.objectCache.Get("hot"); !ok || rec.Meta.Version != 0 {
				t.Error("the verification evicted a cached inline record")
			}
		})
	}
}

// TestRepairCopiesReplicaChunkVerbatim: a chunk one replica lost comes
// back as the surviving replica's record, byte for byte — copied, never
// opened and sealed again under a fresh nonce — and is counted once.
func TestRepairCopiesReplicaChunkVerbatim(t *testing.T) {
	r := newTamperRig(t, 3, true, func(c *Config) { c.Replicas = 2 })
	r.put("obj", streamPayload(2*streamChunkSize+7))
	placement := r.h.ctl.placement("obj")
	survivor := r.raw(placement[0], "obj", 0, 1)
	if err := driveConn(t, r.h.ctl, placement[1]).Delete(r.ctx, r.h.chunkKey(t, "obj", 0, 1), nil, true); err != nil {
		t.Fatal(err)
	}
	report, err := r.s.Repair(r.ctx, "obj")
	if err != nil || report.Restored != 1 || report.RestoredBytes != int64(len(survivor)) {
		t.Fatalf("repair: %+v %v, want 1 record of %d bytes", report, err, len(survivor))
	}
	if restored := r.raw(placement[1], "obj", 0, 1); !bytes.Equal(restored, survivor) {
		t.Error("the restored chunk is not the survivor's record")
	}
	if st := r.h.ctl.stats.Snapshot(); st.ECShardRepairs != 0 || st.ECDecodes != 0 {
		t.Errorf("a replicated repair counted %d shard repairs, %d decodes", st.ECShardRepairs, st.ECDecodes)
	}
}

// TestReplicatedStreamReadsAroundSlowDrive: the replicated class reads
// through the stripe reader, so a placement drive that answers late is
// hedged around chunk by chunk — the stream completes off the other
// copy — and a layout without parity never reaches the decoder.
func TestReplicatedStreamReadsAroundSlowDrive(t *testing.T) {
	h := newHarness(t, 3, func(c *Config) { c.Replicas = 2 })
	s := h.ctl.Session("w")
	payload := streamPayload(3*streamChunkSize + 11)
	if res := s.PutStream(context.Background(), "obj", bytes.NewReader(payload), PutOptions{}); res.Err != nil {
		t.Fatal(res.Err)
	}
	// Slow down the replica the reader asks first: the one it believes
	// faster. (The put's own metadata probe left both with a read sample,
	// so that is not always placement[0].)
	placement := h.ctl.placement("obj")
	slow := placement[0]
	if h.ctl.drives.FirstChoices()(placement) != slow {
		slow = placement[1]
	}
	const delay = time.Second
	h.drives[slow].SetFaults(kinetic.Faults{ExtraDelay: delay})
	t0 := time.Now()
	got, _ := readStream(t, s, "obj", GetOptions{})
	if !bytes.Equal(got, payload) {
		t.Fatal("payload diverges reading around a slow replica")
	}
	if took := time.Since(t0); took >= delay {
		t.Errorf("the read took %v: it waited for the slow replica", took)
	}
	st := h.ctl.stats.Snapshot()
	if st.ReadHedges == 0 {
		t.Error("no hedge fired past the slow replica")
	}
	if st.ECDecodes != 0 {
		t.Errorf("a replicated read decoded %d stripes", st.ECDecodes)
	}
}
