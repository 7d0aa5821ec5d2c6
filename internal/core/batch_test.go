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
	"repro/internal/kinetic/kclient"
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
		for _, p := range h.ctl.drives {
			if err := p.pick().Put(ctx, store.MetaKey(bad), []byte("not a head"), nil, []byte{9}, true); err != nil {
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

// TestCheckHeads: what a multi-key read reply must look like before the
// head wave builds on it.
func TestCheckHeads(t *testing.T) {
	b := func(s ...string) [][]byte {
		out := make([][]byte, len(s))
		for i := range s {
			out[i] = []byte(s[i])
		}
		return out
	}
	asked := b("a", "b", "c")
	for _, c := range []struct {
		name      string
		keys      [][]byte
		values    [][]byte
		found     []bool
		truncated bool
		ok        bool
	}{
		{name: "every key, in turn", keys: b("a", "b", "c"), values: b("1", "", "3"), found: []bool{true, false, true}, ok: true},
		{name: "a found empty value", keys: b("a", "b", "c"), values: b("", "", ""), found: []bool{true, false, false}, ok: true},
		{name: "a prefix, cut", keys: b("a"), values: b("1"), found: []bool{true}, truncated: true, ok: true},
		{name: "a prefix, not marked cut", keys: b("a", "b"), values: b("1", "2"), found: []bool{true, true}},
		{name: "marked cut, but whole", keys: b("a", "b", "c"), values: b("", "", ""), found: []bool{false, false, false}, truncated: true},
		{name: "cut to nothing", truncated: true},
		{name: "nothing, not marked cut"},
		{name: "a key not asked", keys: b("a", "x", "c"), values: b("", "", ""), found: []bool{false, false, false}},
		{name: "a key twice", keys: b("a", "a", "b"), values: b("", "", ""), found: []bool{false, false, false}, truncated: true},
		{name: "out of turn", keys: b("b", "a", "c"), values: b("", "", ""), found: []bool{false, false, false}},
		{name: "past the last asked", keys: b("a", "b", "c", "d"), values: b("", "", "", ""), found: []bool{false, false, false, false}},
		{name: "a value for an absent key", keys: b("a", "b", "c"), values: b("", "2", ""), found: []bool{false, false, false}},
	} {
		m := kclient.Many{Keys: c.keys, Values: c.values, Found: c.found, Truncated: c.truncated}
		if err := checkHeads(m, asked); (err == nil) != c.ok {
			t.Errorf("%s: %v", c.name, err)
		}
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
	if err := f.h.ctl.drives[f.liar].pick().Put(context.Background(), store.MetaKey(key), val, nil, []byte{9}, true); err != nil {
		t.Fatal(err)
	}
}

// firstOnLiar is the keys whose round-1 drive is the liar.
func (f *waveLies) firstOnLiar(keys []string) (out []string) {
	first := f.h.ctl.firstChoices()
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
// must be what the fetch engine reads for it alone (fetchMeta) — the
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
				if err := f.h.ctl.drives[f.liar].pick().Delete(ctx, store.MetaKey(k), nil, true); err != nil {
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
					out[i].meta, out[i].err = h.ctl.fetchMeta(ctx, k)
					if i < n && out[i].err != nil {
						t.Errorf("%s: a held key, but the fetch engine reads %v", k, out[i].err)
					}
				}
				return out
			}
			honest := oracle()
			// Round 1 asks each key's fastest placement drive, so a drive
			// asked in round 2 too is first for fewer keys than the fastest.
			first, firsts := h.ctl.firstChoices(), make([]int, len(h.drives))
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
			real := h.ctl.askers()
			ask := func(ctx context.Context, di int, dks [][]byte) (kclient.Many, error) {
				mu.Lock()
				if failed[di] {
					t.Errorf("drive %d asked again after a failed request", di)
				}
				asked[di]++
				if di == f.liar && asked[di] == c.cut {
					h.drives[f.liar].SetFaults(kinetic.Faults{Blackhole: true})
				}
				mu.Unlock()
				m, err := real(ctx, di, dks)
				if err != nil {
					mu.Lock()
					failed[di] = true
					mu.Unlock()
				}
				return m, err
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
			got := h.ctl.headWave(ctx, keys, ask)
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

// FuzzHeadWave feeds the head wave's two rounds arbitrary per-drive
// replies — keys not asked, out of turn or repeated, cut, copies of
// another key's head or of no head, values for absent keys, failures —
// through the check askHeads runs, and holds it to its two promises: a
// head comes only from a copy, in a reply the check accepted, that opens
// for its own key; and a key is absent only when every placement drive
// answered it absent. Drives that answered every request acceptably and
// whole must settle every key that has an openable copy or no copy at
// all, and no drive is asked again after a failed request.
//
// The script: byte 0 the drive count, byte 1 the key count; then a
// byte per drive and key, what the drive holds under the key's head
// (bits 0-1: nothing, the head, another key's head, bytes that open as
// no head; bits 2-7 the version); then replies, each a header byte
// (bits 0-1 the drive; bit 2 cut: an honest reply drops its last key
// and says so, a scripted one only says so; bit 3 a transport failure;
// bit 4 scripted) and, for a scripted reply, a count byte followed by
// that many entries (bits 0-1 the key, bits 2-3 what it holds as
// above, bit 4 a value beside an absent key; bits 5-7 the version). A
// drive out of scripted replies answers honestly.
func FuzzHeadWave(f *testing.F) {
	f.Add([]byte{1, 0, 1, 0})                            // two honest drives, the key held on one
	f.Add([]byte{1, 2, 0, 0, 0, 0, 0, 0})                // three keys absent everywhere
	f.Add([]byte{1, 1, 5, 3, 5, 0, 8})                   // garbage beside a head, a failure
	f.Add([]byte{0, 0, 1, 16, 2, 1 << 2, 1 << 2})        // a key answered twice
	f.Add([]byte{1, 0, 0, 0, 16 + 4, 0})                 // cut to nothing
	f.Add([]byte{1, 1, 9, 6, 0, 0, 16, 2, 1, 16 + 2})    // a value beside an absent key, a key not asked
	f.Add([]byte{2, 3, 1, 1, 1, 0, 0, 0, 2, 2, 2, 4, 4}) // three drives, honest cuts
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) < 2 {
			return
		}
		nDrives, nKeys := 1+int(script[0])%3, 1+int(script[1])%4
		script = script[2:]
		codec, err := store.NewCodec([32]byte{}, false)
		if err != nil {
			t.Fatal(err)
		}
		key := func(i int) string { return fmt.Sprintf("k%d", i%4) }
		value := func(ki int, b byte) []byte {
			v := int64(b >> 2)
			switch b & 3 {
			case 1:
				return codec.EncodeMeta(&store.Meta{Key: key(ki), Version: v})
			case 2:
				return codec.EncodeMeta(&store.Meta{Key: key(ki + 1), Version: v})
			case 3:
				return []byte{0xff, byte(v)}
			}
			return nil
		}
		truth := make([][]byte, nDrives) // what a drive holds, by key
		for di := range truth {
			truth[di] = make([]byte, nKeys)
			for ki := range truth[di] {
				if len(script) > 0 {
					truth[di][ki], script = script[0], script[1:]
				}
			}
		}
		type scripted struct {
			m      kclient.Many
			err    error
			honest bool
		}
		replies := make([][]scripted, nDrives)
		for len(script) > 0 {
			head := script[0]
			script = script[1:]
			r := scripted{honest: head&16 == 0}
			r.m.Truncated = head&4 != 0
			if head&8 != 0 {
				r.err = errors.New("drive failed")
			}
			if !r.honest && len(script) > 0 {
				count := int(script[0]) % 6
				script = script[1:]
				for _, e := range script[:min(count, len(script))] {
					ki := int(e & 3)
					r.m.Keys = append(r.m.Keys, store.MetaKey(key(ki)))
					val := value(ki, e>>5<<2|e>>2&3)
					if e>>2&3 == 0 && e&16 != 0 {
						val = []byte("x")
					}
					r.m.Values, r.m.Found = append(r.m.Values, val), append(r.m.Found, e>>2&3 != 0)
				}
				script = script[min(count, len(script)):]
			}
			di := int(head&3) % nDrives
			replies[di] = append(replies[di], r)
		}

		wk := make([]waveKey, nKeys)
		for ki := range wk {
			placement := make([]int, nDrives)
			for j := range placement {
				placement[j] = (ki + j) % nDrives
			}
			wk[ki] = waveKey{key: key(ki), dk: store.MetaKey(key(ki)), placement: placement}
		}
		type answer struct {
			di    int
			found bool
			val   []byte
		}
		var mu sync.Mutex
		calls := make([]int, nDrives)
		failed := make([]bool, nDrives)
		clean := true // every request answered, accepted and whole
		answers := make([][]answer, nKeys)
		ask := func(_ context.Context, di int, dks [][]byte) (kclient.Many, error) {
			mu.Lock()
			defer mu.Unlock()
			if failed[di] {
				t.Fatalf("drive %d asked after a failed request", di)
			}
			r := scripted{honest: true}
			if calls[di] < len(replies[di]) {
				r = replies[di][calls[di]]
			}
			calls[di]++
			if r.honest {
				answered := dks
				if r.m.Truncated && len(dks) > 1 {
					answered = dks[:len(dks)-1]
				} else {
					r.m.Truncated = false
				}
				for _, dk := range answered {
					ki := int(dk[len(dk)-1] - '0')
					val := value(ki, truth[di][ki])
					r.m.Keys, r.m.Values, r.m.Found = append(r.m.Keys, dk), append(r.m.Values, val), append(r.m.Found, truth[di][ki]&3 != 0)
				}
			}
			if r.err == nil {
				r.err = checkHeads(r.m, dks)
			}
			if r.err != nil || r.m.Truncated {
				clean = false
			}
			if r.err != nil {
				failed[di] = true
				return kclient.Many{}, r.err
			}
			for j, dk := range r.m.Keys {
				ki := int(dk[len(dk)-1] - '0')
				answers[ki] = append(answers[ki], answer{di, r.m.Found[j], r.m.Values[j]})
			}
			return r.m, nil
		}
		c := &Controller{codec: codec}
		c.waveRounds(context.Background(), wk, func(p []int) int { return p[0] }, ask)

		for ki := range wk {
			w := &wk[ki]
			absentOn := map[int]bool{}
			opens, anyCopy, sourced := false, false, false
			for _, a := range answers[ki] {
				if !a.found {
					absentOn[a.di] = true
					continue
				}
				anyCopy = true
				var m store.Meta
				if codec.DecodeMeta(a.val, w.key, &m) == nil {
					opens = true
					sourced = sourced || w.head != nil && m == *w.head
				}
			}
			switch {
			case w.head != nil && !sourced:
				t.Fatalf("%s: head %+v from no copy that opens for it (answers %+v)", w.key, w.head, answers[ki])
			case w.head != nil:
			case w.absent == len(w.placement):
				if len(absentOn) != nDrives || anyCopy {
					t.Fatalf("%s: absent, but drives %v said so and a copy came back: %t", w.key, absentOn, anyCopy)
				}
			case clean && (opens || len(absentOn) == nDrives):
				t.Fatalf("%s: unsettled, though every reply was accepted whole (answers %+v)", w.key, answers[ki])
			}
		}
	})
}
