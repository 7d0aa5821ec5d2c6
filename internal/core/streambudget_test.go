package core

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"
	"time"

	"repro/internal/kinetic"
	"repro/internal/store"
)

// TestStreamAllocBudget pins what a warm streamed put and get allocate
// at the controller, drives in-process: a megabyte each — no
// chunk-sized buffer per chunk on either path, the drives' request
// frames included (they copy what they store into their arenas and
// give the frame back). Measured: 8 MiB EC put 43 KB, get 20 KB; 2 MiB
// replicated put 29 KB, get 10 KB. With a fresh request frame per chunk
// at the drives the puts were 12.73 MB and 4.26 MB; with a fresh blob
// per sealed chunk and a fresh frame per reply as well, 25.4 MB, 8.5 MB,
// 6.4 MB and 2.1 MB.
func TestStreamAllocBudget(t *testing.T) {
	h := newHarness(t, 6, func(c *Config) {
		ecConfig(c)
		c.ECMinBytes = 4 * streamChunkSize
	})
	s := h.ctl.Session("w")
	ctx := context.Background()
	// One P and no collection: what a sync.Pool is handed back it hands
	// out again, so the counts do not depend on scheduling.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))

	allocated := func(f func()) int64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return int64(after.TotalAlloc - before.TotalAlloc)
	}
	const slack = 1 << 20
	for _, class := range []struct {
		name string
		size int
		ec   bool
	}{
		{"8 MiB erasure-coded", 8 * streamChunkSize, true},
		{"2 MiB replicated", 2 * streamChunkSize, false},
	} {
		payload := streamPayload(class.size)
		put := func(key string) {
			if res := s.PutStream(ctx, key, bytes.NewReader(payload), PutOptions{}); res.Err != nil {
				t.Fatalf("%s put: %v", class.name, res.Err)
			}
		}
		get := func(key string) {
			meta, send, err := s.GetStream(ctx, key, GetOptions{})
			if err != nil || (meta.ECK > 0) != class.ec {
				t.Fatalf("%s get: class %q, %v", class.name, meta.StorageClass(), err)
			}
			if err := send(io.Discard); err != nil {
				t.Fatalf("%s get: %v", class.name, err)
			}
		}
		put("warm/" + class.name) // connections, pools
		get("warm/" + class.name)

		const runs = 3
		putBytes := allocated(func() {
			for i := 0; i < runs; i++ {
				put(fmt.Sprintf("%s/%d", class.name, i))
			}
		}) / runs
		h.ctl.objectCache.Clear()
		getBytes := allocated(func() {
			for i := 0; i < runs; i++ {
				get(fmt.Sprintf("%s/%d", class.name, i))
			}
		}) / runs
		t.Logf("%s: put allocates %d bytes, get %d", class.name, putBytes, getBytes)
		if raceEnabled {
			continue
		}
		if putBytes > slack {
			t.Errorf("%s put allocates %d bytes, budget %d", class.name, putBytes, slack)
		}
		if getBytes > slack {
			t.Errorf("%s get allocates %d bytes, budget %d", class.name, getBytes, slack)
		}
	}
}

// TestStreamBuffersAreNotRecycledInUse hammers concurrent streamed puts
// and gets over few keys while one drive answers late and another
// corrupts every third reply, so hedged losers, parity fetches and
// stragglers are in flight while winners return their seal buffers,
// chunk buffers and reply frames to the pools. Every read must be byte-exact, and under -race
// any buffer handed back while an encoder, a loser or a decoder still
// used it is a reported race.
func TestStreamBuffersAreNotRecycledInUse(t *testing.T) {
	h := newHarness(t, 7, func(c *Config) {
		c.Replicas = 2
		c.EC = true
		c.ECMinBytes = 3 * streamChunkSize
		c.hedgeDelay = 0 // the adaptive clock: hedges and parity fetches do fire
	})
	// Every drive holds shards of some object and a replica of another:
	// a slow one makes stripe reads fetch parity and replica reads hedge,
	// a corrupting one makes both fail over.
	h.drives[1].SetFaults(kinetic.Faults{ExtraDelay: 60 * time.Millisecond})
	h.drives[4].SetFaults(kinetic.Faults{CorruptEveryN: 3})
	ctx := context.Background()
	sizes := []int{5*streamChunkSize + 123, streamChunkSize + 4567} // EC 4+2 with a short final stripe; replicated
	const workers, rounds = 4, 6
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := h.ctl.Session(fmt.Sprintf("w%d", w))
			for r := 0; r < rounds; r++ {
				size := sizes[(w+r)%len(sizes)]
				payload := streamPayload(size + w)    // distinct per worker
				key := fmt.Sprintf("k%d", w%2*10+r%2) // two workers share each key
				if res := s.PutStream(ctx, key, bytes.NewReader(payload), PutOptions{}); res.Err != nil && res.Err.Code != CodeVersionConflict {
					t.Errorf("worker %d put %q: %v", w, key, res.Err)
					return
				}
				// Whichever version is current, it must read back as
				// exactly one of the payloads written under the key.
				meta, send, err := s.GetStream(ctx, key, GetOptions{})
				if err != nil {
					t.Errorf("worker %d get %q: %v", w, key, err)
					return
				}
				var got bytes.Buffer
				if err := send(&got); err != nil {
					t.Errorf("worker %d stream %q v%d: %v", w, key, meta.Version, err)
					return
				}
				if store.HashContent(got.Bytes()) != meta.ContentHash || int64(got.Len()) != meta.Size {
					t.Errorf("worker %d read %q v%d: %d bytes do not match the version's hash", w, key, meta.Version, got.Len())
					return
				}
			}
		}(w)
	}
	wg.Wait()
	st := h.ctl.stats.Snapshot()
	if st.ReadHedges == 0 || st.ECDecodes == 0 {
		t.Errorf("no loser or parity fetch was in flight: %d hedges, %d decodes", st.ReadHedges, st.ECDecodes)
	}
}
