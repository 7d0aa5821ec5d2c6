package records

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"

	"repro/internal/kinetic/kclient"
)

// TestCheckRange: what a range reply must look like before anything is
// built on it.
func TestCheckRange(t *testing.T) {
	b := func(s ...string) [][]byte {
		out := make([][]byte, len(s))
		for i := range s {
			out[i] = []byte(s[i])
		}
		return out
	}
	for _, c := range []struct {
		name       string
		keys       [][]byte
		values     [][]byte
		truncated  bool
		inclusive  bool
		withValues bool
		ok         bool
	}{
		{name: "ascending inside the range", keys: b("b", "c", "d"), ok: true},
		{name: "empty, not cut", ok: true},
		{name: "up to the end, cut", keys: b("c", "y"), truncated: true, ok: true},
		{name: "start itself when inclusive", keys: b("a", "b"), inclusive: true, ok: true},
		{name: "start itself when exclusive", keys: b("a", "b")},
		{name: "start itself twice", keys: b("a", "a"), inclusive: true},
		{name: "before start", keys: b("A", "b"), inclusive: true},
		{name: "a key repeated", keys: b("b", "c", "c")},
		{name: "out of order", keys: b("c", "b")},
		{name: "past the end", keys: b("b", "z")},
		{name: "cut to nothing", truncated: true},
		{name: "a value per key", keys: b("b", "c"), values: b("1", "2"), withValues: true, ok: true},
		{name: "a value short", keys: b("b", "c"), values: b("1"), withValues: true},
		{name: "values for no keys", values: b("1"), withValues: true},
		{name: "no values asked, none checked", keys: b("b"), values: b("1", "2"), ok: true},
	} {
		kr := kclient.KeyRange{Keys: c.keys, Values: c.values, Truncated: c.truncated}
		if err := checkRange(kr, []byte("a"), c.inclusive, []byte("y"), c.withValues); (err == nil) != c.ok {
			t.Errorf("%s: %v", c.name, err)
		}
	}
}

// TestScanWidenedRounds: a walk with a cover asks only the cover while
// all of it answers. A round that a cover drive fails asks the rest from
// the same cursor, merges their keys, counts in ScanWidened and stands
// while no more than tolerate drives of the whole set failed it.
func TestScanWidenedRounds(t *testing.T) {
	order, cover := []int{0, 1, 3, 4, 2, 5}, 4 // the controller's listing cover of 6 drives at 3 replicas
	var held [][]byte                          // on every drive; a round asks 2 keys
	for k := byte('b'); k <= 'i'; k++ {
		held = append(held, []byte{k})
	}
	var mu sync.Mutex
	var asked []string // "drive@start" per request
	fail := make(map[int]bool)
	d := testDrives(6, 0)
	w := &rangeWalk{drives: order, cover: cover, cursor: []byte("a"), inclusive: true, end: []byte("z"),
		page: 2, tolerate: 2, d: d}
	w.fetch = func(di int, start []byte, inclusive bool) (kclient.KeyRange, error) {
		mu.Lock()
		defer mu.Unlock()
		asked = append(asked, fmt.Sprintf("%d@%s", di, start))
		if fail[di] {
			return kclient.KeyRange{}, errors.New("drive down")
		}
		var kr kclient.KeyRange
		for _, k := range held {
			if cmp := bytes.Compare(k, start); cmp > 0 || cmp == 0 && inclusive {
				if len(kr.Keys) == w.page {
					kr.Truncated = true
					break
				}
				kr.Keys = append(kr.Keys, k)
			}
		}
		return kr, nil
	}
	take := func(want string) uint64 {
		t.Helper()
		dk, mask, _, ok := w.next()
		if !ok || string(dk) != want {
			t.Fatalf("walk yielded %q (%t, %v), want %q", dk, ok, w.err, want)
		}
		return mask
	}
	roundAsked := func(want ...string) {
		t.Helper()
		mu.Lock()
		defer mu.Unlock()
		slices.Sort(asked)
		slices.Sort(want)
		if !slices.Equal(asked, want) {
			t.Fatalf("asked %v, want %v", asked, want)
		}
		asked = asked[:0]
	}

	take("b")
	take("c")
	roundAsked("0@a", "1@a", "3@a", "4@a")
	fail[0] = true
	if mask := take("d"); mask != 0b111110 {
		t.Fatalf("d reported by drives %b, want every drive but 0", mask)
	}
	take("e")
	roundAsked("0@c", "1@c", "3@c", "4@c", "2@c", "5@c")
	if n := d.cfg.Widened.Load(); n != 1 {
		t.Fatalf("%d rounds widened, want 1", n)
	}
	fail[0], fail[1], fail[3] = false, true, true
	take("f")
	take("g")
	if n := d.cfg.Widened.Load(); n != 2 || w.err != nil {
		t.Fatalf("two of six drives failed a round: %d widened, err %v", n, w.err)
	}
	fail[4] = true
	if dk, _, _, ok := w.next(); ok || w.err == nil {
		t.Fatalf("three of six drives failed a round at tolerate 2, and the walk yielded %q", dk)
	}
	w.release()
}

// FuzzRangeWalk feeds the walk arbitrary per-drive reply sequences —
// unsorted, out of range, repeated, cut forever, cut to nothing, values
// not matching keys, failures — through the same check rangePage runs,
// and holds it to a model: the walk takes a bounded number of rounds,
// yields strictly ascending keys inside the range, and per round
// exactly the keys some accepted reply of that round contained, up to
// the round's completeness horizon; it fails exactly when more drives
// than tolerated did not answer a round.
//
// The script: byte 0 the drive count, byte 1 the tolerance, byte 2
// whether values are asked for; then replies, each a header byte (bits
// 0-1 the drive, bit 2 Truncated, bit 3 a transport failure, bit 4 a
// value dropped) and a count byte followed by that many key bytes. A
// drive out of scripted replies answers an empty range.
func FuzzRangeWalk(f *testing.F) {
	f.Add([]byte{2, 1, 0, 0, 3, 3, 4, 5, 1, 2, 4, 6})                   // two honest drives
	f.Add([]byte{2, 1, 0, 4, 2, 3, 4, 4, 2, 3, 4, 4, 2, 3, 4, 1, 1, 9}) // one stuck
	f.Add([]byte{3, 1, 1, 0, 2, 5, 3, 1, 2, 3, 15, 4 + 2, 0, 16 + 1, 2, 4, 5})
	f.Add([]byte{1, 0, 0, 8, 0})
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) < 3 {
			return
		}
		nDrives := 1 + int(script[0])%4
		tolerate := int(script[1]) % nDrives
		withValues := script[2]&1 == 1
		key := func(b byte) []byte { return []byte{'k', b % 16} }
		start, end := key(2), key(13) // keys 0, 1, 14 and 15 are outside
		replies := make([][]driveRange, nDrives)
		distinct := make(map[byte]bool)
		for rest := script[3:]; len(rest) >= 2; {
			head, n := rest[0], int(rest[1])%8
			rest = rest[2:]
			n = min(n, len(rest))
			var r driveRange
			for _, b := range rest[:n] {
				distinct[b%16] = true
				r.Keys = append(r.Keys, key(b))
				if withValues {
					r.Values = append(r.Values, []byte{b})
				}
			}
			rest = rest[n:]
			r.Truncated = head&4 != 0
			if head&8 != 0 {
				r.err = errors.New("drive failed")
			}
			if head&16 != 0 && len(r.Values) > 0 {
				r.Values = r.Values[1:]
			}
			di := int(head&3) % nDrives
			replies[di] = append(replies[di], r)
		}

		// The model: per round, the keys the walk must yield and whether
		// it must fail, from the replies the check accepted.
		type round struct {
			keys [][]byte
			fail bool
		}
		var mu sync.Mutex
		var rounds []round
		asked := make([]int, nDrives)
		var accepted [][]driveRange // by round, the replies that passed
		w := &rangeWalk{drives: []int{0, 1, 2, 3}[:nDrives], cursor: start, inclusive: true, end: end,
			values: withValues, tolerate: tolerate, d: testDrives(nDrives, 0)}
		w.fetch = func(di int, from []byte, inclusive bool) (kclient.KeyRange, error) {
			mu.Lock()
			defer mu.Unlock()
			r := asked[di]
			asked[di]++
			var reply driveRange
			if r < len(replies[di]) {
				reply = replies[di][r]
			}
			if reply.err == nil {
				reply.err = checkRange(reply.KeyRange, from, inclusive, end, withValues)
			}
			for len(accepted) <= r {
				accepted = append(accepted, nil)
			}
			accepted[r] = append(accepted[r], reply)
			return reply.KeyRange, reply.err
		}
		model := func(r int) round {
			var horizon []byte
			var all [][]byte
			failed := 0
			for _, reply := range accepted[r] {
				if reply.err != nil {
					failed++
					continue
				}
				all = append(all, reply.Keys...)
				if last := len(reply.Keys) - 1; reply.Truncated && (horizon == nil || bytes.Compare(reply.Keys[last], horizon) < 0) {
					horizon = reply.Keys[last]
				}
			}
			if failed > tolerate {
				return round{fail: true}
			}
			slices.SortFunc(all, bytes.Compare)
			all = slices.CompactFunc(all, bytes.Equal)
			if horizon != nil {
				all = slices.DeleteFunc(all, func(k []byte) bool { return bytes.Compare(k, horizon) > 0 })
			}
			return round{keys: all}
		}

		var last []byte
		for {
			dk, mask, copies, ok := w.next()
			mu.Lock()
			for len(rounds) < asked[0] {
				rounds = append(rounds, model(len(rounds)))
			}
			r := len(rounds) - 1
			mu.Unlock()
			if len(rounds) > len(distinct)+nDrives {
				t.Fatalf("%d rounds for %d distinct keys on %d drives", len(rounds), len(distinct), nDrives)
			}
			if !ok {
				break
			}
			if last != nil && bytes.Compare(dk, last) <= 0 {
				t.Fatalf("yielded %q after %q", dk, last)
			}
			last = append(last[:0], dk...)
			if bytes.Compare(dk, start) < 0 || bytes.Compare(dk, end) > 0 {
				t.Fatalf("yielded %q outside [%q, %q]", dk, start, end)
			}
			if len(rounds[r].keys) == 0 || !bytes.Equal(rounds[r].keys[0], dk) {
				t.Fatalf("round %d yielded %q, the model has %q next", r, dk, rounds[r].keys)
			}
			rounds[r].keys = rounds[r].keys[1:]
			if mask == 0 || (withValues && len(copies) == 0) || (!withValues && len(copies) != 0) {
				t.Fatalf("key %q: mask %b, %d copies", dk, mask, len(copies))
			}
		}
		for r, m := range rounds {
			if len(m.keys) != 0 {
				t.Fatalf("round %d ended with %q not yielded", r, m.keys)
			}
			if m.fail != (w.err != nil && r == len(rounds)-1) {
				t.Fatalf("round %d: model fails %t, the walk ended with %v", r, m.fail, w.err)
			}
		}
		w.release()
	})
}
