package cache

import (
	"context"
	"errors"
	"fmt"
)

// flight is one in-flight fetch of a missing key, shared by every
// caller that missed on it while it ran.
type flight[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// Load returns the value cached under k, fetching it on a miss.
// Concurrent misses on one key coalesce into a single fetch (the
// controller's singleflight layer, §4.2's caches made affordable under
// thundering-herd reads): the first caller starts it, every other
// caller waits for its result instead of issuing its own drive round
// trip and reports shared=true.
//
// The fetch runs detached from any single caller's context: once it is
// in flight its result is useful to every waiter (and to the cache), so
// one caller hanging up — the starter included — must not poison it for
// the others. Every caller honors its own context: a cancelled caller
// returns immediately while the fetch completes for the rest.
//
// A successful fetch is published into the cache only while its flight
// is still current. Put, Remove and Clear detach the flights of the keys
// they touch under the same lock that changes the entries, so a fetch
// that raced a write or a delete can neither overwrite the newer value
// nor resurrect the removed entry, and callers arriving after the
// mutation start a fresh fetch. (Waiters already in the flight still
// receive the fetched value: they raced the mutation anyway.) The slot a
// current flight publishes into is therefore always empty.
func (c *Cache[K, V]) Load(ctx context.Context, k K, fetch func(ctx context.Context) (V, error)) (v V, shared bool, err error) {
	c.mu.Lock()
	if hit, ok := c.get(k); ok {
		c.mu.Unlock()
		return hit, false, nil
	}
	fl, shared := c.flights[k]
	if !shared {
		fl = &flight[V]{done: make(chan struct{})}
		c.flights[k] = fl
		go c.lead(ctx, k, fl, fetch)
	}
	c.mu.Unlock()

	select {
	case <-fl.done:
		return fl.val, shared, fl.err
	case <-ctx.Done():
		// Prefer a result that is already in: a caller with an expired
		// context still gets the answer when no waiting was needed.
		select {
		case <-fl.done:
			return fl.val, shared, fl.err
		default:
		}
		var zero V
		return zero, shared, ctx.Err()
	}
}

// lead runs one flight: execute the fetch detached from the starting
// caller's cancellation, publish the result if the flight is still
// current, then release the waiters.
func (c *Cache[K, V]) lead(ctx context.Context, k K, fl *flight[V], fetch func(ctx context.Context) (V, error)) {
	completed := false
	defer func() {
		// A panicking fetch must not hand waiters a zero value with a
		// nil error; it is converted into an error for every caller
		// (the goroutine has no caller to propagate the panic to).
		if r := recover(); r != nil || !completed {
			fl.err = fmt.Errorf("%w: %v", ErrFlightAbandoned, r)
		}
		c.mu.Lock()
		if c.flights[k] == fl {
			delete(c.flights, k)
			if fl.err == nil {
				c.put(k, fl.val, c.sizeOf(fl.val))
			}
		}
		c.mu.Unlock()
		close(fl.done)
	}()
	fl.val, fl.err = fetch(context.WithoutCancel(ctx))
	completed = true
}

// ErrFlightAbandoned is delivered to callers whose flight fetch
// panicked before producing a result.
var ErrFlightAbandoned = errors.New("cache: flight abandoned by its leader")
