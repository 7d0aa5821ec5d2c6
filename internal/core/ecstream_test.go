package core

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"math/bits"
	"testing"
	"time"

	"repro/internal/store"
)

// ecConfig switches a harness to the erasure-coded storage class with
// a threshold low enough that test-sized streams qualify. The hedge and
// patience clocks of a stripe read are wall-clock (capped at
// maxHedgeDelay); pinned far out, a parity shard is fetched only when a
// data shard's read has failed, never because a healthy one was slow on
// a loaded box — so whether a stripe decodes depends on the faults a
// test injects and on nothing else.
func ecConfig(c *Config) {
	c.Replicas = 2
	c.EC = true
	c.ECMinBytes = 2 * streamChunkSize
	c.hedgeDelay = time.Minute
}

// ecDataHome returns the home drive of data chunk idx under group.
func ecDataHome(group []int, idx int64, k int) int {
	return ecShardDrive(group, int(idx%int64(k)), idx/int64(k))
}

func TestECStreamRoundTrip(t *testing.T) {
	h := newHarness(t, 7, ecConfig)
	s := h.ctl.Session("w")
	ctx := context.Background()

	// 9.5 chunks at k=4: two full stripes, a partial third (kt=2)
	// whose final chunk is short.
	payload := streamPayload(9*streamChunkSize + streamChunkSize/2)
	if res := s.PutStream(ctx, "big", bytes.NewReader(payload), PutOptions{}); res.Err != nil {
		t.Fatalf("PutStream: %v", res.Err)
	}

	got, meta := readStream(t, s, "big", GetOptions{})
	if !bytes.Equal(got, payload) {
		t.Fatalf("payload mismatch: %d bytes vs %d", len(got), len(payload))
	}
	if meta.ECK != 4 || meta.ECM != 2 || meta.Chunks != 10 {
		t.Fatalf("meta: eck=%d ecm=%d chunks=%d", meta.ECK, meta.ECM, meta.Chunks)
	}
	if meta.StorageClass() != "ec:4+2" {
		t.Fatalf("storage class %q", meta.StorageClass())
	}

	// Capacity: each data chunk lands on exactly one drive, plus m
	// parity records per stripe — 10 + 3*2 = 16 chunk records total,
	// against 20 for the 2-way replicated class.
	cstart, cend := store.ChunkKeyRange("big")
	records := 0
	for di := range h.ctl.drives.Len() {
		keys, err := driveKeys(t, h.ctl, di, cstart, cend)
		if err != nil {
			t.Fatal(err)
		}
		records += len(keys)
	}
	if records != 16 {
		t.Errorf("%d chunk records across drives, want 16 (10 data + 6 parity)", records)
	}

	// Verification recomputes the whole-object hash via the stripe
	// reader; the healthy path must never have decoded.
	if _, err := s.Verify(ctx, "big", 0); err != nil {
		t.Errorf("verify: %v", err)
	}
	st := h.ctl.stats.Snapshot()
	if st.ECObjects != 1 || st.ECParityBytes == 0 {
		t.Errorf("stats: ecObjects=%d ecParityBytes=%d", st.ECObjects, st.ECParityBytes)
	}
	if st.ECDecodes != 0 {
		t.Errorf("healthy read decoded %d stripes", st.ECDecodes)
	}

	// The listing reports the class.
	page, err := s.Scan(ctx, ScanOptions{})
	if err != nil || len(page.Entries) != 1 {
		t.Fatalf("scan: %+v %v", page, err)
	}
	if page.Entries[0].Class != "ec:4+2" {
		t.Errorf("scan class %q", page.Entries[0].Class)
	}
}

func TestECStreamSingleChunkFinalStripe(t *testing.T) {
	h := newHarness(t, 6, ecConfig)
	s := h.ctl.Session("w")
	ctx := context.Background()

	// Chunks 0-3 fill stripe 0; chunk 4 is a short, lone chunk in
	// stripe 1 — its parity shrinks to the chunk's length.
	payload := streamPayload(4*streamChunkSize + 100)
	if res := s.PutStream(ctx, "lone", bytes.NewReader(payload), PutOptions{}); res.Err != nil {
		t.Fatal(res.Err)
	}
	got, meta := readStream(t, s, "lone", GetOptions{})
	if !bytes.Equal(got, payload) || meta.Chunks != 5 {
		t.Fatalf("round trip: %d bytes, %d chunks", len(got), meta.Chunks)
	}
	// Reconstructing the lone short chunk from its parity exercises
	// the virtual-zero-shard model on both ends.
	group := h.ctl.ecGroup("lone", 6)
	home := ecDataHome(group, 4, 4)
	if err := driveConn(t, h.ctl, home).Delete(ctx, h.chunkKey(t, "lone", 0, 4), nil, true); err != nil {
		t.Fatal(err)
	}
	h.ctl.objectCache.Clear()
	got, _ = readStream(t, s, "lone", GetOptions{})
	if !bytes.Equal(got, payload) {
		t.Fatal("short lone chunk diverges after parity reconstruction")
	}
	if st := h.ctl.stats.Snapshot(); st.ECDecodes == 0 {
		t.Error("reconstruction did not decode")
	}
}

func TestECStreamBelowThresholdStaysReplicated(t *testing.T) {
	h := newHarness(t, 6, ecConfig)
	s := h.ctl.Session("w")
	ctx := context.Background()

	// Chunked, but under ECMinBytes: stays fully replicated.
	payload := streamPayload(streamChunkSize + 50)
	if res := s.PutStream(ctx, "small", bytes.NewReader(payload), PutOptions{}); res.Err != nil {
		t.Fatal(res.Err)
	}
	got, meta := readStream(t, s, "small", GetOptions{})
	if !bytes.Equal(got, payload) {
		t.Fatal("payload mismatch")
	}
	if meta.ECK != 0 || meta.ECM != 0 || meta.StorageClass() != "" {
		t.Fatalf("small stream erasure-coded: %+v", meta)
	}
	// Both replicas hold both chunks.
	cstart, cend := store.ChunkKeyRange("small")
	for _, di := range h.ctl.placement("small") {
		keys, err := driveKeys(t, h.ctl, di, cstart, cend)
		if err != nil || len(keys) != 2 {
			t.Errorf("replica %d holds %d chunks, want 2 (%v)", di, len(keys), err)
		}
	}
}

func TestECStreamReadSurvivesDeadDrives(t *testing.T) {
	h := newHarness(t, 8, ecConfig)
	s := h.ctl.Session("w")
	ctx := context.Background()

	payload := streamPayload(8 * streamChunkSize)
	if res := s.PutStream(ctx, "kill", bytes.NewReader(payload), PutOptions{}); res.Err != nil {
		t.Fatal(res.Err)
	}
	// Lose two shard-holding drives entirely (m=2): every stripe is
	// down two shards, data or parity depending on the rotation. The
	// victims sit outside the replica window (group[0:2]) so the
	// metadata itself stays readable.
	group := h.ctl.ecGroup("kill", 6)
	for _, victim := range group[2:4] {
		if err := eraseDrive(h, victim); err != nil {
			t.Fatal(err)
		}
	}
	h.ctl.objectCache.Clear()
	got, _ := readStream(t, s, "kill", GetOptions{})
	if !bytes.Equal(got, payload) {
		t.Fatal("payload diverges with m drives lost")
	}
	if st := h.ctl.stats.Snapshot(); st.ECDecodes == 0 {
		t.Error("no stripe decoded despite lost data shards")
	}

	// Losing a third drive exceeds the code's budget: stripes missing
	// more than m shards must fail loudly, never serve wrong bytes.
	if err := eraseDrive(h, group[4]); err != nil {
		t.Fatal(err)
	}
	h.ctl.objectCache.Clear()
	_, send, err := s.GetStream(ctx, "kill", GetOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := send(&bytes.Buffer{}); err == nil {
		t.Fatal("stream with m+1 drives lost served data")
	}
}

func TestECShardCorruptionCaught(t *testing.T) {
	h := newHarness(t, 6, ecConfig)
	s := h.ctl.Session("w")
	ctx := context.Background()

	payload := streamPayload(4 * streamChunkSize)
	if res := s.PutStream(ctx, "flip", bytes.NewReader(payload), PutOptions{}); res.Err != nil {
		t.Fatal(res.Err)
	}
	// Flip one byte of a shard record on its drive: the authenticated
	// chunk record rejects it, and the read heals over it from parity
	// — correct bytes, never the corrupt ones.
	group := h.ctl.ecGroup("flip", 6)
	flip := func(idx int64, home int) {
		cl := driveConn(t, h.ctl, home)
		dk := h.chunkKey(t, "flip", 0, idx)
		blob, _, err := cl.Get(ctx, dk)
		if err != nil {
			t.Fatal(err)
		}
		blob[len(blob)/2] ^= 0x40
		if err := cl.Put(ctx, dk, blob, nil, []byte{9}, true); err != nil {
			t.Fatal(err)
		}
	}
	flip(0, ecDataHome(group, 0, 4))
	h.ctl.objectCache.Clear()
	got, _ := readStream(t, s, "flip", GetOptions{})
	if !bytes.Equal(got, payload) {
		t.Fatal("corrupt shard leaked into the stream")
	}
	if st := h.ctl.stats.Snapshot(); st.ECDecodes == 0 {
		t.Error("corruption was not detected (no decode)")
	}

	// Corrupt past the parity budget (m+1 shards of one stripe): the
	// read must fail rather than reconstruct garbage.
	flip(1, ecDataHome(group, 1, 4))
	flip(2, ecDataHome(group, 2, 4))
	h.ctl.objectCache.Clear()
	_, send, err := s.GetStream(ctx, "flip", GetOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := send(&bytes.Buffer{}); err == nil {
		t.Fatal("stripe with m+1 corrupt shards served data")
	}
}

func TestECStreamDeleteCollectsAllShards(t *testing.T) {
	h := newHarness(t, 7, ecConfig)
	s := h.ctl.Session("w")
	ctx := context.Background()

	payload := streamPayload(6 * streamChunkSize)
	if res := s.PutStream(ctx, "gone", bytes.NewReader(payload), PutOptions{}); res.Err != nil {
		t.Fatal(res.Err)
	}
	if err := s.Delete(ctx, "gone", DeleteOptions{}); err != nil {
		t.Fatal(err)
	}
	// No shard record — data or parity — survives on any drive; the
	// group fanout reaches beyond the replica placement.
	cstart, cend := store.ChunkKeyRange("gone")
	for di := range h.ctl.drives.Len() {
		keys, err := driveKeys(t, h.ctl, di, cstart, cend)
		if err != nil {
			t.Fatal(err)
		}
		if len(keys) != 0 {
			t.Errorf("drive %d retains %d shard records after delete", di, len(keys))
		}
	}
	if _, _, err := s.GetStream(ctx, "gone", GetOptions{}); !errors.Is(err, ErrNotFound) {
		t.Errorf("get after delete: %v", err)
	}
}

// TestECDeleteRejectsNoGroup: a destruction walks the erasure-coding
// window as well as the placement, and the window's other drives hold no
// head for a guarded delete to find. Whatever the object's class, no
// drive rejects a group of it.
func TestECDeleteRejectsNoGroup(t *testing.T) {
	h := newHarness(t, 7, ecConfig)
	s := h.ctl.Session("w")
	ctx := context.Background()
	for key, size := range map[string]int{
		"ec":         6 * streamChunkSize,
		"replicated": streamChunkSize + 1,
		"inline":     100,
	} {
		if res := s.PutStream(ctx, key, bytes.NewReader(streamPayload(size)), PutOptions{}); res.Err != nil {
			t.Fatalf("PutStream(%q): %v", key, res.Err)
		}
		if err := s.Delete(ctx, key, DeleteOptions{}); err != nil {
			t.Fatalf("Delete(%q): %v", key, err)
		}
		if _, _, err := s.GetStream(ctx, key, GetOptions{}); !errors.Is(err, ErrNotFound) {
			t.Errorf("get %q after delete: %v", key, err)
		}
	}
	for di, d := range h.drives {
		if n := d.Stats().GroupRejects.Load(); n != 0 {
			t.Errorf("drive %d rejected %d groups", di, n)
		}
	}
}

func TestECRepairRebuildsLostShards(t *testing.T) {
	h := newHarness(t, 8, ecConfig)
	s := h.ctl.Session("w")
	ctx := context.Background()

	payload := streamPayload(8 * streamChunkSize) // 2 full stripes
	if res := s.PutStream(ctx, "heal", bytes.NewReader(payload), PutOptions{}); res.Err != nil {
		t.Fatal(res.Err)
	}
	group := h.ctl.ecGroup("heal", 6)
	// Victim: a group member outside the replica placement, so only
	// shard records (one per stripe) are at stake, not meta replicas.
	victim := group[5]
	if err := eraseDrive(h, victim); err != nil {
		t.Fatal(err)
	}
	h.ctl.deadMask.Store(1 << uint(victim))
	defer h.ctl.deadMask.Store(0)

	// Snapshot per-drive put counters: repair must write only to the
	// substituted home, never rewrite healthy at-home shards.
	putsBefore := make([]uint64, len(h.drives))
	for di, d := range h.drives {
		putsBefore[di] = d.Stats().Puts.Load()
	}

	report, err := s.Repair(ctx, "heal")
	if err != nil {
		t.Fatalf("repair: %v", err)
	}
	if report.Restored != 2 {
		t.Errorf("restored %d shards, want 2 (one per stripe)", report.Restored)
	}
	newGroup := h.ctl.ecGroup("heal", 6)
	substitute := newGroup[5]
	if substitute == victim {
		t.Fatal("dead mask did not substitute the victim")
	}
	for di, d := range h.drives {
		wrote := d.Stats().Puts.Load() - putsBefore[di]
		if di == substitute {
			if wrote == 0 {
				t.Errorf("substitute drive %d received no rebuilt shards", di)
			}
		} else if wrote != 0 {
			t.Errorf("repair rewrote %d records on healthy drive %d", wrote, di)
		}
	}
	if st := h.ctl.stats.Snapshot(); st.ECShardRepairs != 2 {
		t.Errorf("ECShardRepairs=%d, want 2", st.ECShardRepairs)
	}

	// Readable through the rebuilt layout with the victim still dead.
	h.ctl.metaCache.Clear()
	h.ctl.objectCache.Clear()
	got, _ := readStream(t, s, "heal", GetOptions{})
	if !bytes.Equal(got, payload) {
		t.Fatal("payload diverges after shard rebuild")
	}
	// Idempotent.
	if report, err := s.Repair(ctx, "heal"); err != nil || report.Restored != 0 {
		t.Errorf("second repair: %+v %v", report, err)
	}

	// Revival: the mask clears, the group swings back to the original
	// window, and repair moves the shards home from the substitute —
	// a copy of a healthy record, not a decode.
	h.ctl.deadMask.Store(0)
	decodesBefore := h.ctl.stats.Snapshot().ECDecodes
	report, err = s.Repair(ctx, "heal")
	if err != nil || report.Restored != 2 {
		t.Fatalf("post-revival repair: %+v %v", report, err)
	}
	if d := h.ctl.stats.Snapshot().ECDecodes - decodesBefore; d != 0 {
		t.Errorf("post-revival repair decoded %d stripes; survivors should copy", d)
	}
	h.ctl.metaCache.Clear()
	h.ctl.objectCache.Clear()
	got, _ = readStream(t, s, "heal", GetOptions{})
	if !bytes.Equal(got, payload) {
		t.Fatal("payload diverges after shards moved home")
	}
}

// TestECStreamSurvivesEveryLossPattern is the check behind a streamed
// GET that hashes nothing but chunk tags: the stripe reader's own
// assembly — which shards it decodes from, how it trims a short final
// stripe — must return the object. For every stripe of every shape, a
// GET with any set of at most m of the stripe's shard records gone (for
// the replicated class, at most 2 of a chunk's 3 copies) serves bytes
// that hash to the stub's ContentHash, and one with any m+1 gone fails.
func TestECStreamSurvivesEveryLossPattern(t *testing.T) {
	r := newTamperRig(t, 6, true, func(c *Config) {
		ecConfig(c)
		c.Replicas = 3
	})
	ctl := r.h.ctl
	for _, tc := range []struct {
		name  string
		size  int
		class string
	}{
		{"exactly one stripe", 4 * streamChunkSize, "ec:4+2"},
		{"a stripe and a half", 6 * streamChunkSize, "ec:4+2"},
		{"short final chunk in a stripe of three", 2*streamChunkSize + 12345, "ec:4+2"},
		{"single-chunk final stripe", 4*streamChunkSize + 100, "ec:4+2"},
		{"replicated, short final chunk", 2*streamChunkSize - 1, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			key := tc.name
			payload := streamPayload(tc.size)
			r.put(key, payload)
			_, meta := readStream(t, r.s, key, GetOptions{})
			if meta.StorageClass() != tc.class || meta.ContentHash != sha256.Sum256(payload) {
				t.Fatalf("stub: class %q, hash %x", meta.StorageClass(), meta.ContentHash)
			}
			l, err := ctl.layoutOf(key, meta.ECK, meta.ECM)
			if err != nil {
				t.Fatal(err)
			}
			// lose is how many of a stripe's records a read survives.
			lose := l.m
			if l.m == 0 {
				lose = len(l.window) - 1
			}
			decodes := ctl.stats.Snapshot().ECDecodes
			type record struct {
				di       int
				dk, blob []byte
			}
			for st := int64(0); st*int64(l.k) < meta.Chunks; st++ {
				var recs []record
				for _, sh := range l.shards(st, meta.Chunks) {
					for _, di := range l.homes(sh.Idx) {
						dk := store.ChunkKey(key, meta.ChunkSet(), sh.Idx)
						recs = append(recs, record{di, dk, r.rawAt(di, dk)})
					}
				}
				for mask := 0; mask < 1<<len(recs); mask++ {
					gone := bits.OnesCount(uint(mask))
					if gone > lose+1 {
						continue
					}
					for i, rec := range recs {
						if mask&(1<<i) != 0 {
							if err := driveConn(t, ctl, rec.di).Delete(r.ctx, rec.dk, nil, true); err != nil {
								t.Fatal(err)
							}
						}
					}
					got, err := r.read(key, 0)
					if gone <= lose && (err != nil || sha256.Sum256(got) != meta.ContentHash) {
						t.Errorf("stripe %d, records %06b gone: %d bytes off the stub's hash, %v", st, mask, len(got), err)
					}
					if gone > lose && err == nil {
						t.Errorf("stripe %d, records %06b gone: %d of its %d records served the object", st, mask, len(recs)-gone, len(recs))
					}
					for i, rec := range recs {
						if mask&(1<<i) != 0 {
							r.plantAt(rec.di, rec.dk, rec.blob)
						}
					}
				}
			}
			if l.m > 0 && ctl.stats.Snapshot().ECDecodes == decodes {
				t.Error("no loss pattern was decoded around")
			}
		})
	}
}
