package records

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/kinetic/kclient"
	"repro/internal/store"
)

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
		d := &Drives{cfg: Config{Codec: codec}}
		d.waveRounds(context.Background(), wk, func(p []int) int { return p[0] }, ask)

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

// TestHeadRecordElection: the one election among copies of a head — the
// newest that opens as the key's wins, the first of equal versions — and
// its report of which copies name the key at that version, the copies
// repair leaves alone and the sweeper's fast path calls converged.
func TestHeadRecordElection(t *testing.T) {
	codec, err := store.NewCodec([32]byte{1}, true)
	if err != nil {
		t.Fatal(err)
	}
	head := func(key string, version int64, policy string) []byte {
		return codec.EncodeMeta(&store.Meta{Key: key, Version: version, PolicyID: policy})
	}
	v1 := head("k", 1, "p")
	for _, c := range []struct {
		name    string
		copies  [][]byte
		version int64
		policy  string
		current uint64
	}{
		{"healthy", [][]byte{v1, v1, v1}, 1, "p", 0b111},
		{"one absent", [][]byte{v1, nil, v1}, 1, "p", 0b101},
		{"one older", [][]byte{head("k", 0, "p"), v1, v1}, 1, "p", 0b110},
		{"one that does not open", [][]byte{v1, []byte("junk"), v1}, 1, "p", 0b101},
		{"another key's, newer", [][]byte{head("other", 9, "q"), v1, v1}, 1, "p", 0b110},
		{"same version, other bytes", [][]byte{v1, head("k", 1, "q"), v1}, 1, "p", 0b111},
		{"the newest is the one not agreeing", [][]byte{v1, head("k", 2, "q"), v1}, 2, "q", 0b010},
	} {
		var slots [2]store.Meta
		m, current, err := elect(codec, "k", c.copies, &slots)
		if err != nil || m.Key != "k" || m.Version != c.version || m.PolicyID != c.policy || current != c.current {
			t.Errorf("%s: elected %+v, current %03b, %v; want v%d %q, current %03b", c.name, m, current, err, c.version, c.policy, c.current)
		}
	}
	var slots [2]store.Meta
	if m, _, err := elect(codec, "k", [][]byte{nil, []byte("junk"), head("other", 1, "")}, &slots); !errors.Is(err, store.ErrCorrupt) {
		t.Errorf("no copy opens: elected %+v, %v", m, err)
	}
}
