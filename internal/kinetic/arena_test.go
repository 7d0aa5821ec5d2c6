package kinetic

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"unsafe"

	"repro/internal/kinetic/wire"
)

// recordSizes are value sizes from a metadata record to a sealed 1 MiB
// chunk, which is past the largest size class.
var recordSizes = []int{40, 300, 1200, 1<<20 + 28}

// overlaps reports whether a and b share a byte.
func overlaps(a, b []byte) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	a0, b0 := uintptr(unsafe.Pointer(&a[0])), uintptr(unsafe.Pointer(&b[0]))
	return a0 < b0+uintptr(len(b)) && b0 < a0+uintptr(len(a))
}

// inArena reports whether b lies in memory s's arena mapped. The caller
// keeps s still.
func inArena(s *skipList, b []byte) bool {
	for _, c := range s.arena.classes {
		for _, slab := range c.slabs {
			if overlaps(slab, b) {
				return true
			}
		}
	}
	for _, m := range s.arena.huge {
		if overlaps(m, b) {
			return true
		}
	}
	return false
}

// TestReplyOutlivesItsBlock: what a reply carries are copies. The block
// a GET and a range read from is freed by an overwrite, then by a delete,
// and handed to a later record; the replies — pooled, as the server's
// are, and not yet written — still read what was stored when they were
// made. The race detector does not see arena memory, so this is a check
// of contents, made once the freed block is provably reused.
func TestReplyOutlivesItsBlock(t *testing.T) {
	d := NewDrive(Config{})
	defer d.Close()
	put := func(key string, fill byte, version string) []byte {
		t.Helper()
		req := signedReq(&wire.Message{Type: wire.TPut, Key: []byte(key), Value: bytes.Repeat([]byte{fill}, 300), NewVersion: []byte(version), Force: true})
		if resp := d.Handle(req); resp.Status != wire.StatusOK {
			t.Fatalf("put %s: %v %s", key, resp.Status, resp.StatusMsg)
		}
		d.store.mu.RLock()
		defer d.store.mu.RUnlock()
		return d.store.find([]byte(key)).rec
	}
	block := put("k", 'a', "v1")
	out := reply{pooled: true}
	defer out.release()
	get := d.handle(signedReq(&wire.Message{Type: wire.TGet, Key: []byte("k")}), &out)
	rng := d.handle(signedReq(&wire.Message{Type: wire.TGetKeyRange, StartKey: []byte("k"), EndKey: []byte("k"), KeyInclusive: true, WithValues: true}), &out)
	if get.Status != wire.StatusOK || rng.Status != wire.StatusOK || len(rng.Values) != 1 {
		t.Fatalf("get %v, range %v with %d values", get.Status, rng.Status, len(rng.Values))
	}

	put("k", 'b', "v2")
	if resp := d.Handle(signedReq(&wire.Message{Type: wire.TDelete, Key: []byte("k"), Force: true})); resp.Status != wire.StatusOK {
		t.Fatalf("delete: %v", resp.Status)
	}
	reused := false
	for i := 0; i < 4 && !reused; i++ {
		reused = &put(fmt.Sprintf("z%d", i), 'z', "v9")[0] == &block[0]
	}
	if !reused {
		t.Fatal("the freed block was not handed to a later record")
	}

	want := bytes.Repeat([]byte{'a'}, 300)
	if !bytes.Equal(get.Value, want) || string(get.DBVersion) != "v1" {
		t.Errorf("GET reply now reads %q… version %q", get.Value[:8], get.DBVersion)
	}
	if string(rng.Keys[0]) != "k" || !bytes.Equal(rng.Values[0], want) {
		t.Errorf("range reply now reads %q = %q…", rng.Keys[0], rng.Values[0][:8])
	}
}

// TestArenaReturnsEveryByte: an erase, and Close, unmap every byte the
// drive's records took, freed blocks and own mappings included, and the
// drive stores again afterwards.
func TestArenaReturnsEveryByte(t *testing.T) {
	for _, end := range []struct {
		name string
		do   func(*Drive) *wire.Message
	}{
		{"erase", func(d *Drive) *wire.Message { return d.Handle(signedReq(&wire.Message{Type: wire.TErase})) }},
		{"close", func(d *Drive) *wire.Message { d.Close(); return &wire.Message{} }},
	} {
		d := NewDrive(Config{})
		for i, size := range recordSizes {
			for j := 0; j < 3; j++ {
				if err := d.P2PPut([]byte(fmt.Sprintf("k%d/%d", i, j)), make([]byte, size), []byte("v")); err != nil {
					t.Fatal(err)
				}
			}
			d.Handle(signedReq(&wire.Message{Type: wire.TDelete, Key: []byte(fmt.Sprintf("k%d/0", i)), Force: true}))
		}
		if d.MappedBytes() < d.SizeBytes() {
			t.Fatalf("%s: %d bytes mapped for %d stored", end.name, d.MappedBytes(), d.SizeBytes())
		}
		if resp := end.do(d); resp.Status != wire.StatusOK {
			t.Fatalf("%s: %v", end.name, resp.Status)
		}
		if d.MappedBytes() != 0 || d.Len() != 0 || d.SizeBytes() != 0 {
			t.Errorf("%s: %d bytes still mapped, %d keys of %d bytes stored", end.name, d.MappedBytes(), d.Len(), d.SizeBytes())
		}
		if err := d.P2PPut([]byte("again"), []byte("v"), nil); err != nil {
			t.Fatal(err)
		}
		if v, _, ok := d.store.get([]byte("again"), new(reply)); !ok || string(v) != "v" {
			t.Errorf("%s: the drive stores nothing afterwards: %q, %v", end.name, v, ok)
		}
		d.Close()
	}
}

// TestArenaStaysNearItsRecords: a block is less than an eighth larger
// than its record, and through 10 000 puts, overwrites and deletes of mixed
// sizes the arena maps at most 1.5 times what it stores, plus one slab
// per size class in use.
func TestArenaStaysNearItsRecords(t *testing.T) {
	for c := 0; c < numClasses; c++ {
		if classOf(classSize(c)) != c {
			t.Fatalf("class %d of %d bytes: classOf says %d", c, classSize(c), classOf(classSize(c)))
		}
	}
	for n := 1; n <= maxClass; n += 1 + n/100 {
		if size := classSize(classOf(n)); size < n || size-n >= max(16, n/8) {
			t.Fatalf("%d bytes get a block of %d", n, size)
		}
	}

	s := newSkipList()
	defer s.clear()
	rnd := rand.New(rand.NewSource(1))
	val := make([]byte, recordSizes[len(recordSizes)-1])
	for i := 0; i < 10000; i++ {
		key := []byte(fmt.Sprintf("k%03d", rnd.Intn(100)))
		if rnd.Intn(4) == 0 {
			s.delete(key)
		} else {
			s.put(key, val[:recordSizes[rnd.Intn(len(recordSizes))]], []byte{0, 0, byte(i >> 8), byte(i)})
		}
		// The own mappings kept for reuse are the slab of the records
		// above the largest class.
		var slabs int64
		for c := range s.arena.classes {
			if len(s.arena.classes[c].slabs) > 0 {
				slabs += int64(slabSize(c))
			}
		}
		for _, b := range s.arena.spares {
			slabs += int64(len(b))
		}
		if mapped, size := s.mappedBytes(), s.sizeBytes(); float64(mapped) > 1.5*float64(size)+float64(slabs) {
			t.Fatalf("after %d operations: %d bytes mapped for %d stored, %d in slabs", i+1, mapped, size, slabs)
		}
	}
}
