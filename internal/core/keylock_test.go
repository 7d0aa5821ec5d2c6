package core

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// held is the number of keys with an entry in the table: a holder or a
// waiter.
func (t *keyLocks) held() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.m)
}

// TestKeyLocks: with one caller holding its sets, a second caller's sets
// are granted at once or wait for the release, and the table is empty
// once both are gone.
func TestKeyLocks(t *testing.T) {
	type sets struct{ write, read []string }
	for _, row := range []struct {
		name          string
		first, second sets
		waits         bool
	}{
		{"disjoint sets run at once", sets{[]string{"a", "b"}, []string{"c"}}, sets{[]string{"d"}, []string{"e", "f"}}, false},
		{"write write on one key blocks", sets{write: []string{"a"}}, sets{write: []string{"b", "a"}}, true},
		{"shared readers run together", sets{read: []string{"a", "b"}}, sets{read: []string{"b", "a"}}, false},
		{"a reader behind a writer waits", sets{write: []string{"a"}}, sets{read: []string{"a"}}, true},
		{"a writer behind a reader waits", sets{read: []string{"a"}}, sets{write: []string{"a"}}, true},
		// Taken twice, the first set would deadlock on itself; taken
		// shared, the reader behind it would not wait.
		{"duplicate keys and a key in both sets are taken once", sets{[]string{"a", "a"}, []string{"a", "a"}}, sets{read: []string{"a"}}, true},
	} {
		t.Run(row.name, func(t *testing.T) {
			var tl keyLocks
			done := make(chan struct{})
			unlock := tl.lock(row.first.write, row.first.read)
			var unlock2 func()
			go func() {
				unlock2 = tl.lock(row.second.write, row.second.read)
				close(done)
			}()
			if row.waits {
				select {
				case <-done:
					t.Fatal("the second caller was granted while the first held its keys")
				case <-time.After(50 * time.Millisecond):
				}
				unlock()
				<-done
			} else {
				select {
				case <-done:
				case <-time.After(5 * time.Second):
					t.Fatal("the second caller waited for keys nobody holds")
				}
				unlock()
			}
			unlock2()
			if n := tl.held(); n != 0 {
				t.Errorf("%d keys left in the table after every release", n)
			}
		})
	}
}

// TestKeyLocksStress: goroutines lock random overlapping write and read
// sets, given in random order. An exclusive holder of a key is alone on
// it, shared holders see no exclusive one, nobody deadlocks and the
// table ends empty.
func TestKeyLocksStress(t *testing.T) {
	const keys, workers, rounds = 8, 16, 300
	var tl keyLocks
	var writers, readers [keys]atomic.Int32
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < rounds; i++ {
				var write, read []string
				var excl, shared [keys]bool
				for j := rng.Intn(4); j >= 0; j-- {
					k := rng.Intn(keys)
					write, excl[k] = append(write, fmt.Sprint(k)), true
				}
				for j := rng.Intn(4); j > 0; j-- {
					k := rng.Intn(keys)
					read, shared[k] = append(read, fmt.Sprint(k)), true
				}
				unlock := tl.lock(write, read)
				for k := range keys {
					switch {
					case excl[k]:
						if writers[k].Add(1) != 1 || readers[k].Load() != 0 {
							t.Errorf("key %d: an exclusive holder is not alone", k)
						}
					case shared[k]:
						if readers[k].Add(1); writers[k].Load() != 0 {
							t.Errorf("key %d: a shared holder beside an exclusive one", k)
						}
					}
				}
				for k := range keys {
					switch {
					case excl[k]:
						writers[k].Add(-1)
					case shared[k]:
						readers[k].Add(-1)
					}
				}
				unlock()
			}
		}(int64(w))
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("deadlock: the workers did not finish")
	}
	if n := tl.held(); n != 0 {
		t.Errorf("%d keys left in the table after every release", n)
	}
}

// TestKeyLocksSerializationStress: a second exclusive caller on a held
// key waits for its release, and a counter guarded only by the key's
// lock loses no update when many goroutines increment it at once.
func TestKeyLocksSerializationStress(t *testing.T) {
	var tl keyLocks
	unlock := tl.lock([]string{"counter"}, nil)
	granted := make(chan func())
	go func() { granted <- tl.lock([]string{"counter"}, nil) }()
	select {
	case <-granted:
		t.Fatal("a second exclusive caller ran under a held lock")
	case <-time.After(50 * time.Millisecond):
	}
	unlock()
	select {
	case unlock2 := <-granted:
		unlock2()
	case <-time.After(5 * time.Second):
		t.Fatal("the waiting caller was never granted the released key")
	}

	counter := 0 // guarded by the "counter" key lock, not by atomics
	const workers, iters = 16, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				unlock := tl.lock([]string{"counter"}, nil)
				counter++
				unlock()
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("deadlock: the workers did not finish")
	}
	if counter != workers*iters {
		t.Fatalf("counter = %d, want %d (lost updates)", counter, workers*iters)
	}
	if n := tl.held(); n != 0 {
		t.Errorf("%d keys left in the table after every release", n)
	}
}
