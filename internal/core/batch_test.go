package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/kinetic"
	"repro/internal/store"
)

func TestBatchPutPerOpResults(t *testing.T) {
	h := newHarness(t, 2, func(c *Config) { c.Replicas = 2 })
	owner := h.ctl.Session("aa")
	other := h.ctl.Session("bb")
	ctx := context.Background()

	sealed, err := h.ctl.PutPolicy(ctx, "read :- sessionKeyIs(k'aa')\nupdate :- sessionKeyIs(k'aa')")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := owner.Put(ctx, "locked", []byte("v"), PutOptions{PolicyID: sealed}); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"existing", "conflict"} {
		if _, err := owner.Put(ctx, k, []byte("v"), PutOptions{}); err != nil {
			t.Fatal(err)
		}
	}

	results, err := other.BatchPut(ctx, []BatchPutOp{
		{Key: "b/new", Value: []byte("n")},                                   // ok: creation
		{Key: "conflict", Value: []byte("n2"), Version: 9, HasVersion: true}, // version conflict
		{Key: "locked", Value: []byte("n3")},                                 // policy denied
		{Key: "b/new", Value: []byte("dup")},                                 // duplicate in batch
		{Key: "", Value: []byte("x")},                                        // invalid key
		{Key: "existing", Value: []byte("n4"), Version: 1, HasVersion: true}, // ok: correct next version
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantCodes := []ErrorCode{CodeNone, CodeVersionConflict, CodeDenied, CodeInvalidArgument, CodeInvalidArgument, CodeNone}
	for i, want := range wantCodes {
		got := CodeNone
		if results[i].Err != nil {
			got = results[i].Err.Code
		}
		if got != want {
			t.Errorf("op %d: code %q, want %q (%+v)", i, got, want, results[i])
		}
	}
	if results[0].Version != 0 || results[5].Version != 1 {
		t.Errorf("surviving versions: %d, %d", results[0].Version, results[5].Version)
	}
	// Survivors are durable and readable.
	val, _, err := other.Get(ctx, "b/new", GetOptions{})
	if err != nil || !bytes.Equal(val, []byte("n")) {
		t.Errorf("b/new after batch: %q %v", val, err)
	}
	val, meta, err := other.Get(ctx, "existing", GetOptions{})
	if err != nil || !bytes.Equal(val, []byte("n4")) || meta.Version != 1 {
		t.Errorf("existing after batch: %q v%v %v", val, meta, err)
	}
	// Failed ops left no trace.
	if val, _, _ := owner.Get(ctx, "locked", GetOptions{}); !bytes.Equal(val, []byte("v")) {
		t.Errorf("locked changed to %q", val)
	}
}

func TestBatchPutRidesAtomicBatches(t *testing.T) {
	h := newHarness(t, 2, func(c *Config) { c.Replicas = 2 })
	s := h.ctl.Session("w")
	ctx := context.Background()

	before := make([]uint64, len(h.drives))
	for i, d := range h.drives {
		before[i] = d.Stats().Batches.Load()
	}
	ops := make([]BatchPutOp, 10)
	for i := range ops {
		ops[i] = BatchPutOp{Key: JSONKey(fmt.Sprintf("bp/%02d", i)), Value: []byte("v")}
	}
	results, err := s.BatchPut(ctx, ops, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("op %d failed: %v", i, r.Err)
		}
	}
	// 10 writes × 2 replicas ride one batch message per drive, not one
	// round trip per write.
	for i, d := range h.drives {
		if got := d.Stats().Batches.Load() - before[i]; got != 1 {
			t.Errorf("drive %d received %d batch messages, want 1", i, got)
		}
	}
}

// waveHarness is three drives holding three replicas of every key, so a
// new key's head is an absence read: the replica asked first, then —
// absence takes every replica's word — the other two at once, two rounds
// and three drive GETs. The hedge is pinned far out so those are the only
// reads, and gets counts them.
func waveHarness(t *testing.T) (h *harness, gets func() uint64) {
	h = newHarness(t, 3, func(c *Config) {
		c.Replicas = 3
		c.hedgeDelay = time.Minute
	})
	return h, func() (n uint64) {
		for _, d := range h.drives {
			n += d.Stats().Gets.Load()
		}
		return n
	}
}

// readRequests counts the read requests each of h's drives has
// answered: GETs, one key each, and multi-key reads.
func readRequests(h *harness) []uint64 {
	n := make([]uint64, len(h.drives))
	for i, d := range h.drives {
		st := d.Stats()
		n[i] = st.Gets.Load() - st.GetManyKeys.Load() + st.GetManys.Load()
	}
	return n
}

// atMostTwoEach fails t unless each drive answered at most two read
// requests since before: a wave's two rounds, not a round trip per key.
func atMostTwoEach(t *testing.T, h *harness, before []uint64, what string) {
	t.Helper()
	for i, n := range readRequests(h) {
		if got := n - before[i]; got > 2 {
			t.Errorf("drive %d answered %d read requests for %s, want at most 2", i, got, what)
		}
	}
}

// slowDrives adds delay to every media wait of h's drives.
func slowDrives(h *harness, delay time.Duration) {
	for _, d := range h.drives {
		d.SetFaults(kinetic.Faults{ExtraDelay: delay})
	}
}

// TestBatchPutReadsHeadsInOneWave: a batch reads the heads of its keys in
// one concurrent wave before it plans them — the drive reads a plan of
// one key at a time issues, overlapped — and a batch whose heads are all
// cached reads none.
func TestBatchPutReadsHeadsInOneWave(t *testing.T) {
	const n, delay = 32, 20 * time.Millisecond
	h, gets := waveHarness(t)
	s, ctx := h.ctl.Session("w"), context.Background()
	ops := make([]BatchPutOp, n)
	for i := range ops {
		ops[i] = BatchPutOp{Key: JSONKey(fmt.Sprintf("wave/%02d", i)), Value: []byte("v")}
	}
	put := func() []OpResult {
		t.Helper()
		results, err := s.BatchPut(ctx, ops, nil)
		if err != nil {
			t.Fatal(err)
		}
		return results
	}
	slowDrives(h, delay)

	t.Run("new keys", func(t *testing.T) {
		before, requests, start := gets(), readRequests(h), time.Now()
		results := put()
		elapsed := time.Since(start)
		for i, r := range results {
			if r.Err != nil || r.Version != 0 {
				t.Fatalf("op %d: %+v", i, r)
			}
		}
		if got := gets() - before; got != 3*n {
			t.Errorf("%d drive GETs for %d new keys, want 3 each (%d)", got, n, 3*n)
		}
		atMostTwoEach(t, h, requests, fmt.Sprintf("%d new keys", n))
		// One key at a time, the heads alone take two rounds each.
		if sequential := 2 * n * delay; elapsed >= sequential/4 {
			t.Errorf("the batch took %v; one head at a time takes %v", elapsed, sequential)
		}
	})
	t.Run("cached heads", func(t *testing.T) {
		before, requests := gets(), readRequests(h)
		for i, r := range put() {
			if r.Err != nil || r.Version != 1 {
				t.Fatalf("op %d: %+v", i, r)
			}
		}
		if got := gets() - before; got != 0 {
			t.Errorf("%d drive GETs for a batch of cached heads, want 0", got)
		}
		for i, n := range readRequests(h) {
			if n != requests[i] {
				t.Errorf("drive %d answered %d read requests for a batch of cached heads, want 0", i, n-requests[i])
			}
		}
	})
	t.Run("one unreadable head", func(t *testing.T) {
		slowDrives(h, 0)
		bad := string(ops[0].Key)
		for di := range h.ctl.drives.Len() {
			if err := driveConn(t, h.ctl, di).Put(ctx, store.MetaKey(bad), []byte("not a head"), nil, []byte{9}, true); err != nil {
				t.Fatal(err)
			}
		}
		h.ctl.metaCache.Remove(bad)
		results := put()
		if results[0].Err == nil {
			t.Errorf("op 0 planned over a head no replica can open: %+v", results[0])
		}
		for i, r := range results[1:] {
			if r.Err != nil || r.Version != 2 {
				t.Errorf("op %d failed with the unreadable head of op 0: %+v", i+1, r)
			}
		}
	})
}

func TestBatchGetMixedResults(t *testing.T) {
	h := newHarness(t, 2, func(c *Config) { c.Replicas = 2 })
	owner := h.ctl.Session("aa")
	other := h.ctl.Session("bb")
	ctx := context.Background()

	sealed, err := h.ctl.PutPolicy(ctx, "read :- sessionKeyIs(k'aa')\nupdate :- sessionKeyIs(k'aa')")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := owner.Put(ctx, "pub", []byte("p"), PutOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := owner.Put(ctx, "sec", []byte("s"), PutOptions{PolicyID: sealed}); err != nil {
		t.Fatal(err)
	}

	results, err := other.BatchGet(ctx, []string{"pub", "sec", "missing"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Err != nil || !bytes.Equal(results[0].Value, []byte("p")) {
		t.Errorf("pub: %+v", results[0])
	}
	if results[1].Err == nil || results[1].Err.Code != CodeDenied || len(results[1].Value) != 0 {
		t.Errorf("sec: %+v", results[1])
	}
	if results[2].Err == nil || results[2].Err.Code != CodeNotFound {
		t.Errorf("missing: %+v", results[2])
	}
}

// waveLies is the fixture of one TestHeadWaveLies row: four drives,
// three replicas, keys held and keys never written, and the liar — the
// drive the wave's round 1 asks most, or, for a row that cuts it
// mid-wave, one the wave asks in both rounds.
type waveLies struct {
	h           *harness
	held, fresh []string
	liar        int
}

// plant stores val under key's head on the liar.
func (f *waveLies) plant(t *testing.T, key string, val []byte) {
	t.Helper()
	if err := driveConn(t, f.h.ctl, f.liar).Put(context.Background(), store.MetaKey(key), val, nil, []byte{9}, true); err != nil {
		t.Fatal(err)
	}
}

// firstOnLiar is the keys whose round-1 drive is the liar.
func (f *waveLies) firstOnLiar(keys []string) (out []string) {
	first := f.h.ctl.drives.FirstChoices()
	for _, k := range keys {
		if first(f.h.ctl.placement(k)) == f.liar {
			out = append(out, k)
		}
	}
	return out
}

// TestHeadWaveLies runs a head wave over keys held, and keys not held,
// on three replicas, one drive of which misanswers. The drives are
// outside the trusted base: whatever the drive does, each key's head
// must be what the fetch engine reads for it alone (ReadHead) — the
// head, a unanimous absence, or an error — and a drive whose request
// failed, or whose reply was refused, is not asked again in the wave.
func TestHeadWaveLies(t *testing.T) {
	const n = 8
	ctx := context.Background()
	lie := func(l kinetic.RangeLie) func(*testing.T, *waveLies) {
		return func(_ *testing.T, f *waveLies) { f.h.drives[f.liar].SetFaults(kinetic.Faults{RangeLie: l}) }
	}
	for _, c := range []struct {
		name  string
		setup func(t *testing.T, f *waveLies)
		// cut, when set, is the liar's request before which it dies; the
		// liar is then a drive the wave asks in both rounds.
		cut int
		// refused: the wave must have failed some request of the liar.
		refused bool
	}{
		{name: "honest", setup: func(*testing.T, *waveLies) {}},
		{name: "a drive hides a head", setup: func(t *testing.T, f *waveLies) {
			for _, k := range f.firstOnLiar(f.held) {
				if err := driveConn(t, f.h.ctl, f.liar).Delete(ctx, store.MetaKey(k), nil, true); err != nil {
					t.Fatal(err)
				}
			}
		}},
		{name: "a drive serves another key's head", setup: func(t *testing.T, f *waveLies) {
			for i, k := range f.held {
				f.plant(t, k, f.h.ctl.codec.EncodeMeta(&store.Meta{Key: f.held[(i+1)%n], Version: 7}))
			}
			f.plant(t, f.fresh[0], f.h.ctl.codec.EncodeMeta(&store.Meta{Key: f.held[0]}))
		}},
		{name: "a drive serves a corrupt head", setup: func(t *testing.T, f *waveLies) {
			for _, k := range append(slices.Clone(f.held), f.fresh[0]) {
				f.plant(t, k, []byte("not a head"))
			}
		}},
		{name: "a drive is dead", setup: func(_ *testing.T, f *waveLies) {
			f.h.drives[f.liar].SetFaults(kinetic.Faults{Blackhole: true})
		}, refused: true},
		{name: "a drive is cut mid-wave", setup: func(*testing.T, *waveLies) {}, cut: 2, refused: true},
		{name: "a reply reorders its keys", setup: lie(kinetic.RangeReorder), refused: true},
		{name: "a reply answers a key not asked", setup: lie(kinetic.RangeOvershoot), refused: true},
		{name: "a reply repeats an earlier one", setup: lie(kinetic.RangeStuck), refused: true},
		{name: "a reply is cut to nothing", setup: lie(kinetic.RangeCutToNothing), refused: true},
	} {
		t.Run(c.name, func(t *testing.T) {
			h := newHarness(t, 4, func(c *Config) {
				c.Replicas = 3
				c.hedgeDelay = time.Minute
			})
			f := &waveLies{h: h}
			s := h.ctl.Session("w")
			for i := range n {
				f.held = append(f.held, fmt.Sprintf("held/%02d", i))
				f.fresh = append(f.fresh, fmt.Sprintf("fresh/%02d", i))
				if _, err := s.Put(ctx, f.held[i], []byte("v"), PutOptions{}); err != nil {
					t.Fatal(err)
				}
			}
			h.ctl.metaCache.Clear()
			keys := append(slices.Clone(f.held), f.fresh...)
			// The fetch engine's reads of every key: the honest answers.
			// They feed the latency estimates the wave ranks drives by, so
			// they come before the liar is picked.
			oracle := func() []headLoad {
				out := make([]headLoad, len(keys))
				for i, k := range keys {
					out[i].meta, out[i].err = h.ctl.drives.ReadHead(ctx, k, h.ctl.placement(k))
					if i < n && out[i].err != nil {
						t.Errorf("%s: a held key, but the fetch engine reads %v", k, out[i].err)
					}
				}
				return out
			}
			honest := oracle()
			// Round 1 asks each key's fastest placement drive, so a drive
			// asked in round 2 too is first for fewer keys than the fastest.
			first, firsts := h.ctl.drives.FirstChoices(), make([]int, len(h.drives))
			for _, k := range keys {
				firsts[first(h.ctl.placement(k))]++
			}
			for di, m := range firsts {
				if c.cut == 0 && m > firsts[f.liar] || c.cut > 0 && m > 0 && (firsts[f.liar] == 0 || m < firsts[f.liar]) {
					f.liar = di
				}
			}
			c.setup(t, f)

			var mu sync.Mutex
			asked, failed := make([]int, len(h.drives)), make([]bool, len(h.drives))
			wrap := func(di int, read func() error) error {
				mu.Lock()
				if failed[di] {
					t.Errorf("drive %d asked again after a failed request", di)
				}
				asked[di]++
				if di == f.liar && asked[di] == c.cut {
					h.drives[f.liar].SetFaults(kinetic.Faults{Blackhole: true})
				}
				mu.Unlock()
				err := read()
				if err != nil {
					mu.Lock()
					failed[di] = true
					mu.Unlock()
				}
				return err
			}
			same := func(g, w headLoad) bool {
				switch {
				case w.err == nil:
					return g.err == nil && g.meta.Key == w.meta.Key && g.meta.Version == w.meta.Version
				case errors.Is(w.err, ErrNotFound):
					return g.meta == nil && errors.Is(g.err, ErrNotFound)
				}
				return g.meta == nil && g.err != nil && !errors.Is(g.err, ErrNotFound)
			}
			got := h.ctl.headWave(ctx, keys, wrap)
			// What the drives hold once misled, or — where a drive died
			// in the wave, after it answered — the honest answer.
			after := oracle()
			for i, k := range keys {
				if !same(got[i], after[i]) && !(c.cut > 0 && same(got[i], honest[i])) {
					t.Errorf("%s: the wave read %+v, %v; the fetch engine %+v, %v",
						k, got[i].meta, got[i].err, after[i].meta, after[i].err)
				}
			}
			for di, a := range asked {
				if a > 2 {
					t.Errorf("drive %d asked %d times in one wave", di, a)
				}
			}
			if asked[f.liar] < c.cut {
				t.Errorf("the liar was asked %d times: the wave ended before its cut", asked[f.liar])
			}
			if c.refused != failed[f.liar] {
				t.Errorf("a request of the liar failed: %t, want %t", failed[f.liar], c.refused)
			}
		})
	}
}
