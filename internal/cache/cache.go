// Package cache implements the controller's in-enclave caches (§4.2):
// a byte-budgeted, approximately least-frequently-used cache used for
// policies, objects and key metadata, plus the fixed-size result
// buffer for asynchronous operations. Every byte held is accounted
// against the enclave page cache so cache pressure translates into
// EPC paging cost exactly as on SGX hardware.
package cache

import (
	"sync"

	"repro/internal/enclave"
)

// Sizer reports the resident size of a cached value in bytes.
type Sizer[V any] func(V) int64

// Cache is a concurrency-safe, byte-budgeted cache with an
// approximated LFU eviction policy: each entry carries a frequency
// counter halved on a fixed decay schedule (frequency aging), and
// eviction removes the least frequent of a small sample, the same
// approximation Redis uses. The paper's prototype "approximates a
// least-frequently-used eviction policy" (§4.2). Misses filled through
// Load are coalesced per key (see flight.go).
type Cache[K comparable, V any] struct {
	mu      sync.Mutex
	entries map[K]*entry[V]
	flights map[K]*flight[V] // in-flight Load fetches, by missing key
	budget  int64            // max resident bytes; 0 = unlimited
	bytes   int64
	sizeOf  Sizer[V]

	epc   *enclave.EPC
	label string

	ops       uint64 // operations since last decay sweep
	decayOps  uint64
	hits      uint64
	misses    uint64
	evictions uint64
}

type entry[V any] struct {
	val  V
	size int64
	freq uint32
}

// Config configures a cache.
type Config[V any] struct {
	// BudgetBytes caps resident bytes (0 = unlimited).
	BudgetBytes int64
	// SizeOf measures values; nil means every value counts 1 byte.
	SizeOf Sizer[V]
	// EPC, when set, is charged for resident bytes under Label.
	EPC   *enclave.EPC
	Label string
	// DecayEvery halves all frequency counters after this many
	// operations (0 selects a default of 8192).
	DecayEvery uint64
}

// New creates a cache.
func New[K comparable, V any](cfg Config[V]) *Cache[K, V] {
	sizeOf := cfg.SizeOf
	if sizeOf == nil {
		sizeOf = func(V) int64 { return 1 }
	}
	decay := cfg.DecayEvery
	if decay == 0 {
		decay = 8192
	}
	return &Cache[K, V]{
		entries:  make(map[K]*entry[V]),
		flights:  make(map[K]*flight[V]),
		budget:   cfg.BudgetBytes,
		sizeOf:   sizeOf,
		epc:      cfg.EPC,
		label:    cfg.Label,
		decayOps: decay,
	}
}

// Get returns the cached value for k, bumping its frequency.
func (c *Cache[K, V]) Get(k K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.get(k)
}

// Hit is Get for a caller that falls back to Load on a miss: a hit
// counts and bumps k as Get's does, and a miss is left for Load to
// count.
func (c *Cache[K, V]) Hit(k K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.entries[k]; !ok {
		var zero V
		return zero, false
	}
	return c.get(k)
}

// Contains reports whether k is cached, without counting a lookup or
// bumping its frequency: a caller deciding whether a Load would wait on
// a fetch.
func (c *Cache[K, V]) Contains(k K) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.entries[k]
	return ok
}

// get is Get for callers holding the lock.
func (c *Cache[K, V]) get(k K) (V, bool) {
	c.tick()
	e, ok := c.entries[k]
	if !ok {
		c.misses++
		var zero V
		return zero, false
	}
	c.hits++
	if e.freq < 1<<30 {
		e.freq++
	}
	return e.val, true
}

// Put inserts or replaces k, evicting low-frequency entries if the
// budget or entry cap would be exceeded. An in-flight Load fetch of k
// is detached: it started before this value existed.
func (c *Cache[K, V]) Put(k K, v V) {
	size := c.sizeOf(v)
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.flights, k)
	c.put(k, v, size)
}

// put is Put for callers holding the lock; it leaves k's flight alone.
func (c *Cache[K, V]) put(k K, v V, size int64) {
	c.tick()
	if old, ok := c.entries[k]; ok {
		c.account(size - old.size)
		old.val = v
		old.size = size
		if old.freq < 1<<30 {
			old.freq++
		}
	} else {
		c.entries[k] = &entry[V]{val: v, size: size, freq: 1}
		c.account(size)
	}
	c.evictOver()
}

// Remove deletes k if present and detaches an in-flight Load fetch of
// k, so the fetch cannot re-install what the caller is invalidating.
func (c *Cache[K, V]) Remove(k K) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.flights, k)
	if e, ok := c.entries[k]; ok {
		delete(c.entries, k)
		c.account(-e.size)
	}
}

// Len returns the entry count.
func (c *Cache[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Bytes returns resident bytes.
func (c *Cache[K, V]) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// Stats returns hit/miss/eviction counts.
func (c *Cache[K, V]) Stats() (hits, misses, evictions uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.evictions
}

// Clear drops every entry and detaches every in-flight Load fetch.
func (c *Cache[K, V]) Clear() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.account(-c.bytes)
	c.entries = make(map[K]*entry[V])
	clear(c.flights)
}

// account adjusts byte accounting, mirroring into the EPC.
func (c *Cache[K, V]) account(delta int64) {
	c.bytes += delta
	if c.epc == nil || delta == 0 {
		return
	}
	if delta > 0 {
		c.epc.Alloc(c.label, delta)
	} else {
		c.epc.Free(c.label, -delta)
	}
}

// evictOver removes sampled least-frequently-used entries until the
// cache fits its budget. Caller holds the lock.
func (c *Cache[K, V]) evictOver() {
	const sample = 5
	for c.budget > 0 && c.bytes > c.budget {
		var victim K
		var victimE *entry[V]
		n := 0
		for k, e := range c.entries { // map order is a cheap random sample
			if victimE == nil || e.freq < victimE.freq {
				victim, victimE = k, e
			}
			n++
			if n >= sample {
				break
			}
		}
		if victimE == nil {
			return
		}
		delete(c.entries, victim)
		c.account(-victimE.size)
		c.evictions++
	}
}

// tick advances the decay clock, halving all frequencies on schedule
// so past popularity fades (frequency aging). Caller holds the lock.
func (c *Cache[K, V]) tick() {
	c.ops++
	if c.ops < c.decayOps {
		return
	}
	c.ops = 0
	for _, e := range c.entries {
		e.freq /= 2
	}
}
