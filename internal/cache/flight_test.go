package cache

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestFlightCoalesces: N concurrent callers for one key execute the
// fetch exactly once and all observe its result.
func TestFlightCoalesces(t *testing.T) {
	f := New[string, int](Config[int]{})
	var fetches atomic.Int32
	release := make(chan struct{})
	const n = 16

	var wg sync.WaitGroup
	vals := make([]int, n)
	sharedCount := atomic.Int32{}
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, shared, err := f.Load(context.Background(), "k",
				func(context.Context) (int, error) {
					fetches.Add(1)
					<-release
					return 42, nil
				})
			if err != nil {
				t.Errorf("caller %d: %v", i, err)
			}
			vals[i] = v
			if shared {
				sharedCount.Add(1)
			}
		}(i)
	}
	// Let the callers pile onto the flight, then release the fetch.
	time.Sleep(20 * time.Millisecond)
	close(release)
	wg.Wait()

	if got := fetches.Load(); got != 1 {
		t.Fatalf("%d fetches for %d concurrent callers, want 1", got, n)
	}
	if v, ok := f.Get("k"); !ok || v != 42 {
		t.Fatalf("fetched value not published: %d %v", v, ok)
	}
	for i, v := range vals {
		if v != 42 {
			t.Errorf("caller %d got %d", i, v)
		}
	}
	if got := sharedCount.Load(); got != n-1 {
		t.Errorf("%d shared results, want %d", got, n-1)
	}
}

// TestFlightErrorShared: the fetch's error reaches every caller and
// publish is suppressed.
func TestFlightErrorShared(t *testing.T) {
	f := New[string, int](Config[int]{})
	boom := errors.New("boom")
	release := make(chan struct{})
	var wg sync.WaitGroup
	errs := make([]error, 4)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _, errs[i] = f.Load(context.Background(), "k",
				func(context.Context) (int, error) {
					<-release
					return 0, boom
				})
		}(i)
	}
	time.Sleep(10 * time.Millisecond)
	close(release)
	wg.Wait()
	for i, err := range errs {
		if !errors.Is(err, boom) {
			t.Errorf("caller %d: %v, want boom", i, err)
		}
	}
	if f.Len() != 0 {
		t.Error("failed fetch must not publish")
	}
}

// TestFlightCallersHonorOwnContext: every caller — the flight starter
// included — returns at its own context's expiry while the fetch
// keeps running detached and completes for the others.
func TestFlightCallersHonorOwnContext(t *testing.T) {
	f := New[string, int](Config[int]{})
	started := make(chan struct{})
	release := make(chan struct{})

	// Starter: its context is cancelled mid-flight; it must return
	// promptly without killing the fetch.
	sctx, scancel := context.WithCancel(context.Background())
	starterDone := make(chan error, 1)
	go func() {
		_, _, err := f.Load(sctx, "k", func(context.Context) (int, error) {
			close(started)
			<-release
			return 7, nil
		})
		starterDone <- err
	}()
	<-started
	scancel()
	select {
	case err := <-starterDone:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("starter error: %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cancelled starter stayed blocked on its own fetch")
	}

	// A waiter with an already-expired context returns immediately.
	wctx, wcancel := context.WithCancel(context.Background())
	wcancel()
	_, shared, err := f.Load(wctx, "k", func(context.Context) (int, error) {
		t.Error("second caller must join the flight, not fetch")
		return 0, nil
	})
	if !errors.Is(err, context.Canceled) || !shared {
		t.Fatalf("cancelled waiter: err=%v shared=%v", err, shared)
	}

	// A patient waiter still receives the detached fetch's result.
	patientDone := make(chan int, 1)
	go func() {
		v, _, _ := f.Load(context.Background(), "k", func(context.Context) (int, error) {
			t.Error("patient caller must join the flight, not fetch")
			return 0, nil
		})
		patientDone <- v
	}()
	time.Sleep(20 * time.Millisecond) // let the patient join before releasing
	close(release)
	if v := <-patientDone; v != 7 {
		t.Fatalf("patient waiter got %d, want the detached fetch's 7", v)
	}
}

// TestFlightFetchDetachedFromCancellation: the fetch itself runs under
// a context detached from the starter's cancellation.
func TestFlightFetchDetachedFromCancellation(t *testing.T) {
	f := New[string, int](Config[int]{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	fetchCtxErr := make(chan error, 1)
	v, _, err := f.Load(ctx, "k", func(fctx context.Context) (int, error) {
		fetchCtxErr <- fctx.Err()
		return 9, nil
	})
	if ferr := <-fetchCtxErr; ferr != nil {
		t.Fatalf("fetch ran under a cancelled context: %v", ferr)
	}
	// The caller gets either the (already-in) result or its ctx error.
	if err == nil && v != 9 {
		t.Fatalf("v=%d err=nil, want 9", v)
	}
	if err != nil && !errors.Is(err, context.Canceled) {
		t.Fatalf("unexpected error: %v", err)
	}
}

// TestMutationDetachesFlight: Remove, Put and Clear each detach the
// key's in-flight fetch under the lock that changes the entry. The old
// fetch's result is never published — not over the written value, not
// into the slot just emptied — a caller arriving after the mutation
// starts a fresh fetch instead of joining the stale one, and the waiter
// already in the flight still gets its value.
func TestMutationDetachesFlight(t *testing.T) {
	for name, tc := range map[string]struct {
		mutate func(c *Cache[string, int])
		left   int // what the cache holds once the old fetch has landed
		leftOK bool
	}{
		"remove": {func(c *Cache[string, int]) { c.Remove("k") }, 0, false},
		"clear":  {func(c *Cache[string, int]) { c.Clear() }, 0, false},
		"put":    {func(c *Cache[string, int]) { c.Put("k", 5) }, 5, true},
	} {
		t.Run(name, func(t *testing.T) {
			c := New[string, int](Config[int]{})
			started := make(chan struct{})
			release := make(chan struct{})
			oldDone := make(chan int, 1)
			go func() {
				v, _, _ := c.Load(context.Background(), "k", func(context.Context) (int, error) {
					close(started)
					<-release
					return 1, nil
				})
				oldDone <- v
			}()
			<-started
			tc.mutate(c)
			close(release)
			if v := <-oldDone; v != 1 {
				t.Fatalf("old waiter got %d, want its flight's result 1", v)
			}
			// The waiter is released only after its flight settled, so
			// the cache now shows whatever the old fetch left behind.
			if v, ok := c.Get("k"); ok != tc.leftOK || v != tc.left {
				t.Fatalf("after the detached fetch landed: %d %v, want %d %v", v, ok, tc.left, tc.leftOK)
			}
		})
	}

	// A caller arriving after the mutation runs its own fetch even
	// though the old flight is still in the air, and publishes it.
	c := New[string, int](Config[int]{})
	started := make(chan struct{})
	release := make(chan struct{})
	oldDone := make(chan struct{})
	go func() {
		defer close(oldDone)
		c.Load(context.Background(), "k", func(context.Context) (int, error) {
			close(started)
			<-release
			return 1, nil
		})
	}()
	<-started
	c.Remove("k")
	v, shared, err := c.Load(context.Background(), "k", func(context.Context) (int, error) { return 2, nil })
	if err != nil || v != 2 || shared {
		t.Fatalf("post-remove fetch: v=%d shared=%v err=%v", v, shared, err)
	}
	close(release)
	<-oldDone
	if v, ok := c.Get("k"); !ok || v != 2 {
		t.Fatalf("cache holds %d %v, want the fresh fetch's 2", v, ok)
	}
}

// TestFlightPanicBecomesError: a panicking fetch delivers
// ErrFlightAbandoned instead of a zero value with a nil error.
func TestFlightPanicBecomesError(t *testing.T) {
	f := New[string, int](Config[int]{})
	_, _, err := f.Load(context.Background(), "k",
		func(context.Context) (int, error) { panic("kaboom") })
	if !errors.Is(err, ErrFlightAbandoned) {
		t.Fatalf("err=%v, want ErrFlightAbandoned", err)
	}
	if f.Len() != 0 {
		t.Error("panicked fetch must not publish")
	}
	// The flight is gone; the key is usable again.
	v, _, err := f.Load(context.Background(), "k",
		func(context.Context) (int, error) { return 3, nil })
	if err != nil || v != 3 {
		t.Fatalf("after panic: v=%d err=%v", v, err)
	}
}
