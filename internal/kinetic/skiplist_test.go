package kinetic

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"testing/quick"
)

// all takes every key a scan is shown.
func all(int) bool { return true }

// keysOf scans [start, end] and returns the keys visited.
func keysOf(s *skipList, start, end []byte, inclusive, reverse bool, max int) []string {
	keys, _ := s.scan(start, end, inclusive, reverse, false, max, new(reply), all)
	got := make([]string, len(keys))
	for i, k := range keys {
		got[i] = string(k)
	}
	return got
}

func TestSkipListBasic(t *testing.T) {
	s := newSkipList()
	var out reply
	if _, _, ok := s.get([]byte("missing"), &out); ok {
		t.Fatal("get on empty list succeeded")
	}
	s.put([]byte("a"), []byte("1"), []byte("v1"))
	s.put([]byte("b"), []byte("2"), nil)
	v, ver, ok := s.get([]byte("a"), &out)
	if !ok || string(v) != "1" || string(ver) != "v1" {
		t.Fatalf("get a = %q/%q/%v", v, ver, ok)
	}
	if s.len() != 2 {
		t.Fatalf("len = %d, want 2", s.len())
	}

	// Replace updates in place.
	s.put([]byte("a"), []byte("1-new"), []byte("v2"))
	v, ver, _ = s.get([]byte("a"), &out)
	if string(v) != "1-new" || string(ver) != "v2" {
		t.Fatalf("after replace: %q/%q", v, ver)
	}
	if ver, ok := s.version([]byte("a"), &out); !ok || string(ver) != "v2" {
		t.Fatalf("version after replace: %q/%v", ver, ok)
	}
	if s.len() != 2 {
		t.Fatalf("len after replace = %d, want 2", s.len())
	}

	if !s.delete([]byte("a")) {
		t.Fatal("delete existing failed")
	}
	if s.delete([]byte("a")) {
		t.Fatal("double delete succeeded")
	}
	if s.len() != 1 {
		t.Fatalf("len after delete = %d", s.len())
	}
}

func TestSkipListByteAccounting(t *testing.T) {
	s := newSkipList()
	s.put([]byte("key"), make([]byte, 100), []byte("v"))
	want := int64(3 + 100 + 1)
	if s.sizeBytes() != want {
		t.Fatalf("bytes = %d, want %d", s.sizeBytes(), want)
	}
	s.put([]byte("key"), make([]byte, 10), []byte("v"))
	want = int64(3 + 10 + 1)
	if s.sizeBytes() != want {
		t.Fatalf("bytes after shrink = %d, want %d", s.sizeBytes(), want)
	}
	s.delete([]byte("key"))
	if s.sizeBytes() != 0 {
		t.Fatalf("bytes after delete = %d, want 0", s.sizeBytes())
	}
}

func TestSkipListOrderedScan(t *testing.T) {
	s := newSkipList()
	keys := []string{"m", "a", "z", "c", "q", "b"}
	for _, k := range keys {
		s.put([]byte(k), []byte("v"+k), nil)
	}
	got := keysOf(s, []byte("a"), []byte("z"), true, false, 0)
	want := append([]string(nil), keys...)
	sort.Strings(want)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("scan = %v, want %v", got, want)
	}

	// Exclusive start skips an exact match.
	if got = keysOf(s, []byte("a"), []byte("z"), false, false, 0); got[0] != "b" {
		t.Fatalf("exclusive scan starts at %q, want b", got[0])
	}

	// Max bounds the result.
	if got = keysOf(s, []byte("a"), nil, true, false, 3); len(got) != 3 {
		t.Fatalf("bounded scan returned %d keys", len(got))
	}

	// Reverse order.
	if got = keysOf(s, []byte("a"), []byte("z"), true, true, 2); len(got) != 2 || got[0] != "z" || got[1] != "q" {
		t.Fatalf("reverse scan = %v", got)
	}
}

func TestSkipListClear(t *testing.T) {
	s := newSkipList()
	for i := 0; i < 100; i++ {
		s.put([]byte(fmt.Sprintf("k%03d", i)), []byte("v"), nil)
	}
	s.clear()
	if s.len() != 0 || s.sizeBytes() != 0 || s.mappedBytes() != 0 {
		t.Fatalf("after clear: len=%d bytes=%d mapped=%d", s.len(), s.sizeBytes(), s.mappedBytes())
	}
	if _, _, ok := s.get([]byte("k000"), new(reply)); ok {
		t.Fatal("get after clear succeeded")
	}
}

// TestSkipListMatchesMap is a property test: a random operation
// sequence applied to the skiplist and to a reference map must agree,
// over records of every size class up to a mapping of their own, so the
// arena hands freed blocks to later records all along.
func TestSkipListMatchesMap(t *testing.T) {
	sizes := []int{0, 7, 40, 300, 1200, 5000, 70 << 10}
	f := func(ops []uint16) bool {
		s := newSkipList()
		defer s.clear()
		ref := map[string][]byte{}
		var out reply
		for i, op := range ops {
			key := fmt.Sprintf("k%02d", op%37)
			switch op % 3 {
			case 0:
				val := bytes.Repeat([]byte{byte(i)}, sizes[int(op/3)%len(sizes)])
				s.put([]byte(key), val, []byte(fmt.Sprint(i)))
				ref[key] = val
			case 1:
				got, _, ok := s.get([]byte(key), &out)
				want, exists := ref[key]
				if ok != exists || (ok && !bytes.Equal(got, want)) {
					return false
				}
			case 2:
				_, exists := ref[key]
				if s.delete([]byte(key)) != exists {
					return false
				}
				delete(ref, key)
			}
		}
		if s.len() != len(ref) {
			return false
		}
		// Ordered scan must return exactly the reference records sorted.
		var got []string
		var size int64
		keys, values := s.scan(nil, nil, true, false, true, 0, &out, func(n int) bool {
			size += int64(n)
			return true
		})
		for i, k := range keys {
			if !bytes.Equal(values[i], ref[string(k)]) {
				got = append(got, "value of "+string(k))
			}
			got = append(got, string(k))
		}
		want := make([]string, 0, len(ref))
		for k := range ref {
			want = append(want, k)
		}
		sort.Strings(want)
		return fmt.Sprint(got) == fmt.Sprint(want) && sort.StringsAreSorted(got) && size <= s.sizeBytes()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSkipListConcurrent(t *testing.T) {
	s := newSkipList()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rnd := rand.New(rand.NewSource(int64(w)))
			var out reply
			for i := 0; i < 2000; i++ {
				k := []byte(fmt.Sprintf("w%d-k%d", w, rnd.Intn(100)))
				switch rnd.Intn(3) {
				case 0:
					s.put(k, []byte("v"), nil)
				case 1:
					s.get(k, &out)
				case 2:
					s.delete(k)
				}
			}
		}(w)
	}
	wg.Wait()
	// Ordering invariant holds after concurrent mutation.
	got := keysOf(s, nil, nil, true, false, 0)
	for i := 1; i < len(got); i++ {
		if got[i-1] >= got[i] {
			t.Errorf("order violated: %q >= %q", got[i-1], got[i])
		}
	}
}
