package cluster

import (
	"crypto/rand"
	"errors"
	"fmt"
	"math"
	mrand "math/rand"
	"net/http"
	"testing"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/store"
)

func testKey(t *testing.T) [32]byte {
	t.Helper()
	var k [32]byte
	if _, err := rand.Read(k[:]); err != nil {
		t.Fatal(err)
	}
	return k
}

func twoShards(t *testing.T) *ShardMap {
	t.Helper()
	m, err := UniformMap([]Shard{
		{ID: 0, Endpoint: "pesos-0", Drives: []string{"k-0-0", "k-0-1"}, Replicas: 1},
		{ID: 1, Endpoint: "pesos-1", Drives: []string{"k-1-0"}, Replicas: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestSignVerifyMapRoundTrip(t *testing.T) {
	key := testKey(t)
	m := twoShards(t)
	doc, err := SignMap(key, m)
	if err != nil {
		t.Fatal(err)
	}
	got, err := VerifyMap(key, doc)
	if err != nil {
		t.Fatal(err)
	}
	if got.Epoch != m.Epoch || len(got.Shards) != len(m.Shards) {
		t.Fatalf("verified map differs: %+v vs %+v", got, m)
	}

	// Tampering with any byte of the payload must fail authentication.
	for _, flip := range []int{10, len(doc) / 2, len(doc) - 2} {
		bad := append([]byte(nil), doc...)
		bad[flip] ^= 0x40
		if _, err := VerifyMap(key, bad); err == nil {
			t.Fatalf("tampered doc (byte %d) verified", flip)
		}
	}

	// A different key must fail.
	if _, err := VerifyMap(testKey(t), doc); err == nil {
		t.Fatal("doc verified under the wrong key")
	}
}

func TestUniformMapPartitionsSpace(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 7} {
		shards := make([]Shard, n)
		for i := range shards {
			shards[i] = Shard{ID: i, Endpoint: fmt.Sprintf("p-%d", i), Drives: []string{fmt.Sprintf("d-%d", i)}, Replicas: 1}
		}
		m, err := UniformMap(shards)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if err := m.Validate(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		// Every hash point has exactly one owner.
		for _, h := range []uint32{0, 1, store.ShardSpace / 2, store.ShardSpace - 1} {
			owners := 0
			for i := range m.Shards {
				if m.Shards[i].Owns(h) {
					owners++
				}
			}
			if owners != 1 {
				t.Fatalf("n=%d hash %d has %d owners", n, h, owners)
			}
		}
	}
}

func TestValidateRejectsBrokenMaps(t *testing.T) {
	base := twoShards(t)
	cases := map[string]func(m *ShardMap){
		"gap":          func(m *ShardMap) { m.Shards[0].Ranges[0].End-- },
		"overlap":      func(m *ShardMap) { m.Shards[0].Ranges[0].End++ },
		"dup id":       func(m *ShardMap) { m.Shards[1].ID = m.Shards[0].ID },
		"no endpoint":  func(m *ShardMap) { m.Shards[0].Endpoint = "" },
		"no drives":    func(m *ShardMap) { m.Shards[0].Drives = nil },
		"bad replicas": func(m *ShardMap) { m.Shards[1].Replicas = 5 },
	}
	for name, mutate := range cases {
		m := twoShards(t)
		mutate(m)
		if err := m.Validate(); err == nil {
			t.Errorf("%s: validated", name)
		}
	}
	if err := base.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestMoveRangeProperty is the placement-invariant property test: a
// 1-shard-split rebalance changes the owner of exactly the keys whose
// hash lies in the moved range — no unrelated key moves — and the
// moved fraction matches the range's share of the hash space.
func TestMoveRangeProperty(t *testing.T) {
	rng := mrand.New(mrand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		m := twoShards(t)
		src := m.ShardByID(0)
		own := src.Ranges[0]
		// A random non-empty sub-range of shard 0's range.
		width := own.End - own.Start
		a := own.Start + uint32(rng.Intn(int(width-1)))
		b := a + 1 + uint32(rng.Intn(int(own.End-a-1)))
		moved := core.HashRange{Start: a, End: b}

		next, err := m.MoveRange(0, 1, moved)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if next.Epoch != m.Epoch+1 {
			t.Fatalf("trial %d: epoch %d, want %d", trial, next.Epoch, m.Epoch+1)
		}

		const keys = 4000
		movedKeys := 0
		for i := 0; i < keys; i++ {
			key := fmt.Sprintf("user/%d/obj-%d", trial, i)
			before, err1 := m.OwnerOf(key)
			after, err2 := next.OwnerOf(key)
			if err1 != nil || err2 != nil {
				t.Fatalf("trial %d key %q: %v %v", trial, key, err1, err2)
			}
			h := store.ShardHash(key)
			switch {
			case moved.Contains(h):
				movedKeys++
				if before.ID != 0 || after.ID != 1 {
					t.Fatalf("trial %d: key %q in moved range owned %d->%d", trial, key, before.ID, after.ID)
				}
			default:
				if before.ID != after.ID {
					t.Fatalf("trial %d: unrelated key %q changed owner %d->%d", trial, key, before.ID, after.ID)
				}
			}
		}
		// The moved fraction tracks the range's share of the space
		// (binomial tolerance: 5 sigma).
		p := float64(b-a) / float64(store.ShardSpace)
		want := p * keys
		sigma := math.Sqrt(keys * p * (1 - p))
		if diff := math.Abs(float64(movedKeys) - want); diff > 5*sigma+1 {
			t.Fatalf("trial %d: moved %d keys, expected ~%.1f (±%.1f)", trial, movedKeys, want, 5*sigma)
		}
	}
}

func TestMoveRangeRejectsForeignRange(t *testing.T) {
	m := twoShards(t)
	r := m.ShardByID(1).Ranges[0] // owned by shard 1, not 0
	if _, err := m.MoveRange(0, 1, r); err == nil {
		t.Fatal("moving a range the source does not own succeeded")
	}
	if _, err := m.MoveRange(0, 0, core.HashRange{Start: 0, End: 1}); err == nil {
		t.Fatal("moving a range onto itself succeeded")
	}
}

func TestRouterTokenRoundTrip(t *testing.T) {
	tok := &routerToken{
		Epoch:    7,
		Boundary: []byte("user/42\xffbin\x01"),
		Cursors: map[string]routerCursor{
			"0": {Token: "abc"},
			"1": {Start: []byte("user/10")},
			"2": {Done: true},
		},
	}
	enc, err := encodeRouterToken(tok)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeRouterToken(enc)
	if err != nil {
		t.Fatal(err)
	}
	if got.Epoch != tok.Epoch || string(got.Boundary) != string(tok.Boundary) {
		t.Fatalf("round trip mangled token: %+v", got)
	}
	if got.Cursors["0"].Token != "abc" || string(got.Cursors["1"].Start) != "user/10" || !got.Cursors["2"].Done {
		t.Fatalf("round trip mangled cursors: %+v", got.Cursors)
	}
	if _, err := decodeRouterToken("!!not-base64!!"); err == nil {
		t.Fatal("garbage token decoded")
	}
}

func TestRangeHelpers(t *testing.T) {
	ranges := []core.HashRange{{Start: 100, End: 200}, {Start: 200, End: 300}, {Start: 400, End: 500}}
	norm := core.NormalizeRanges(ranges)
	if len(norm) != 2 || norm[0] != (core.HashRange{Start: 100, End: 300}) {
		t.Fatalf("normalize: %v", norm)
	}
	sub := core.SubtractRanges(norm, core.HashRange{Start: 150, End: 250})
	want := []core.HashRange{{Start: 100, End: 150}, {Start: 250, End: 300}, {Start: 400, End: 500}}
	if len(sub) != len(want) {
		t.Fatalf("subtract: %v", sub)
	}
	for i := range want {
		if sub[i] != want[i] {
			t.Fatalf("subtract: %v, want %v", sub, want)
		}
	}
	if core.RangesContain(sub, 200) {
		t.Fatal("subtracted point still contained")
	}
	if !core.RangesContain(sub, 120) || !core.RangesContain(sub, 450) {
		t.Fatal("kept points lost")
	}
}

// TestIsWrongShardErr: a redirect is recognised by the taxonomy code of
// the error envelope, which every route writes — never by status alone;
// and everything else the controller answered, a denial included, is
// the answer.
func TestIsWrongShardErr(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want verdict
	}{
		{"code", &client.OpError{Status: http.StatusMisdirectedRequest, Code: string(core.CodeWrongShard), Message: "key not owned"}, moved},
		{"wrapped code", fmt.Errorf("get: %w", &client.OpError{Status: http.StatusMisdirectedRequest, Code: string(core.CodeWrongShard)}), moved},
		{"421 without the code", &client.OpError{Status: http.StatusMisdirectedRequest, Message: "some intermediary's 421"}, answered},
		{"not found", &client.OpError{Status: http.StatusNotFound, Code: string(core.CodeNotFound)}, answered},
		{"denied", &client.OpError{Status: http.StatusForbidden, Code: string(core.CodeDenied), Message: "no"}, answered},
		{"5xx", &client.OpError{Status: http.StatusInternalServerError, Code: string(core.CodeInternal)}, fenced},
		{"transport", errors.New("connection refused"), unreachable},
		{"nil", nil, answered},
	}
	for _, c := range cases {
		if got := classify(c.err, nil); got != c.want {
			t.Errorf("%s: classified as %d, want %d", c.name, got, c.want)
		}
	}
}

// FuzzVerifyMap: the shard map document is the router's other untrusted
// input (a map source can be any HTTP endpoint). Whatever arrives,
// neither reader panics; and since no input can carry a seal the fuzzer
// did not copy from a seed, a document that verifies is a seed's map —
// valid, and the same one the unauthenticated reader shows.
func FuzzVerifyMap(f *testing.F) {
	key := [32]byte{1, 2, 3}
	m, err := UniformMap([]Shard{
		{ID: 0, Endpoint: "pesos-0", Drives: []string{"k-0-0", "k-0-1"}, Replicas: 2},
		{ID: 1, Endpoint: "pesos-1", Drives: []string{"k-1-0"}, Replicas: 1},
	})
	if err != nil {
		f.Fatal(err)
	}
	m.Epoch = 7
	good, err := SignMap(key, m)
	if err != nil {
		f.Fatal(err)
	}
	foreign, err := SignMap([32]byte{9}, m)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add(foreign)
	f.Add(good[:len(good)/2])
	f.Add([]byte(`{"payload":"e30","seal":""}`))
	f.Add([]byte(`{"payload":"eyJlcG9jaCI6MSwic2hhcmRzIjpbXX0="}`))
	f.Add([]byte("null"))
	f.Fuzz(func(t *testing.T, doc []byte) {
		shown, showErr := UnverifiedMap(doc)
		got, err := VerifyMap(key, doc)
		if err != nil {
			if !errors.Is(err, ErrBadMap) {
				t.Fatalf("refused with an error that is not ErrBadMap: %v", err)
			}
			return
		}
		if err := got.Validate(); err != nil {
			t.Fatalf("verified an invalid map: %v", err)
		}
		if got.Epoch != m.Epoch || len(got.Shards) != len(m.Shards) {
			t.Fatalf("verified a map nobody signed: epoch %d, %d shards", got.Epoch, len(got.Shards))
		}
		if showErr != nil || shown.Epoch != got.Epoch {
			t.Fatalf("the unauthenticated reader disagrees with a verified map: %v", showErr)
		}
		if _, err := got.OwnerOf("any key"); err != nil {
			t.Fatalf("verified map routes nothing: %v", err)
		}
	})
}
