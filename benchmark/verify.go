package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"runtime"
	"sync"
	"time"
)

// verifyReport is the outcome of the read-back check.
type verifyReport struct {
	keys int // heads read back
	// lost counts acknowledged writes the drives no longer hold: a head
	// older than the last acknowledged version, or a payload that is
	// not that version's. The paper's promise is that this is 0.
	lost     int
	userSize int64 // payload bytes of acknowledged, still-retained versions
	messages []string
}

func (v *verifyReport) lose(format string, args ...any) {
	v.lost++
	if len(v.messages) < 5 {
		v.messages = append(v.messages, fmt.Sprintf(format, args...))
	}
}

// readBack checks the no-lost-ack promise from the drives, not the
// caches: every node drops its caches, then a router that has served
// nothing reads every key's head back.
func (st *state) readBack() verifyReport {
	var v verifyReport
	for _, n := range st.dep.mc.Nodes {
		n.Controller.DropCaches()
	}
	ctx := context.Background()
	vr := st.dep.verifier
	for _, ws := range st.ws {
		v.userSize += ws.userBytes
		if st.w.stream {
			st.readBackStreams(ctx, ws, &v)
			continue
		}
		type want struct {
			key string
			ver int64
		}
		var wants []want
		for local, ver := range ws.ver {
			wants = append(wants, want{st.key(local*st.clients + ws.wk.id), ver})
		}
		for j, ver := range ws.denyVer {
			wants = append(wants, want{denyKey(j*st.clients + ws.wk.id), ver})
		}
		for len(wants) > 0 {
			n := min(len(wants), loadBatch)
			keys := make([]string, n)
			for i := range keys {
				keys[i] = wants[i].key
			}
			res, err := vr.batchGet(ctx, keys)
			if err != nil {
				v.lose("read back %d keys from %s: %v", n, keys[0], err)
				wants = wants[n:]
				continue
			}
			for i, r := range res {
				v.keys++
				switch {
				case r.Err != nil:
					v.lose("%s: %v", keys[i], r.Err)
				case r.Version < wants[i].ver:
					v.lose("%s: head is version %d, version %d was acknowledged", keys[i], r.Version, wants[i].ver)
				case !bytes.Equal(r.Value, st.in.payload(keys[i], r.Version, st.w.valueSize)):
					v.lose("%s: head payload is not version %d's", keys[i], r.Version)
				}
			}
			wants = wants[n:]
		}
	}
	return v
}

func (st *state) readBackStreams(ctx context.Context, ws *workerState, v *verifyReport) {
	h := sha256.New()
	for s := range ws.ring {
		for i, gen := range ws.ring[s] {
			if gen < 0 {
				continue
			}
			key := streamKey(ws.wk.id, s, i)
			v.keys++
			h.Reset()
			if _, err := st.dep.verifier.getStream(ctx, key, h); err != nil {
				v.lose("%s: %v", key, err)
				continue
			}
			var sum [32]byte
			h.Sum(sum[:0])
			if sum != st.in.digests[i][streamKind(s, gen)] {
				v.lose("%s: SHA-256 is not generation %d's", key, gen)
			}
		}
	}
}

// watchGoroutines samples the goroutine count until the returned stop
// function is called, leaving the peak in *peak.
func watchGoroutines(peak *int) (stop func()) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(20 * time.Millisecond)
		defer t.Stop()
		for {
			*peak = max(*peak, runtime.NumGoroutine())
			select {
			case <-done:
				return
			case <-t.C:
			}
		}
	}()
	return func() { close(done); wg.Wait() }
}
