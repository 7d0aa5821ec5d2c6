package core

import (
	"slices"
	"strings"
	"sync"
)

// keyLocks is a per-key lock table (§4.4): it holds an entry only while
// a key has a holder or a waiter. The controller has exclusive control
// of its drives (§3.1), so this in-process serialization is
// authoritative; the drives' compare-and-swap versions remain the
// backstop against deployments that share drives between controllers.
type keyLocks struct {
	mu sync.Mutex
	m  map[string]*keyLock
}

// keyLock is one key's entry; refs counts its holders and waiters.
type keyLock struct {
	sync.RWMutex
	refs int
}

// lock takes the write keys exclusively and the read keys shared — a key
// in both sets exclusively, a repeated key once — in key order, so no two
// callers wait on each other in a cycle. unlock releases them and drops
// each key's entry when its last holder leaves.
func (t *keyLocks) lock(write, read []string) (unlock func()) {
	type held struct {
		key   string
		write bool
		e     *keyLock
	}
	hs := make([]held, 0, len(write)+len(read))
	for _, k := range write {
		hs = append(hs, held{key: k, write: true})
	}
	for _, k := range read {
		hs = append(hs, held{key: k})
	}
	slices.SortFunc(hs, func(a, b held) int { return strings.Compare(a.key, b.key) })
	n := 0
	for _, h := range hs {
		if n > 0 && hs[n-1].key == h.key {
			hs[n-1].write = hs[n-1].write || h.write
			continue
		}
		hs[n] = h
		n++
	}
	hs = hs[:n]

	t.mu.Lock()
	if t.m == nil {
		t.m = make(map[string]*keyLock)
	}
	for i := range hs {
		e := t.m[hs[i].key]
		if e == nil {
			e = &keyLock{}
			t.m[hs[i].key] = e
		}
		e.refs++
		hs[i].e = e
	}
	t.mu.Unlock()
	for _, h := range hs {
		if h.write {
			h.e.Lock()
		} else {
			h.e.RLock()
		}
	}
	return func() {
		for _, h := range hs {
			if h.write {
				h.e.Unlock()
			} else {
				h.e.RUnlock()
			}
		}
		t.mu.Lock()
		for _, h := range hs {
			if h.e.refs--; h.e.refs == 0 {
				delete(t.m, h.key)
			}
		}
		t.mu.Unlock()
	}
}
