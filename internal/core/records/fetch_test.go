package records

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/store"
)

// fetchShape is a read the engine serves: k data slots, and the slot of
// each candidate in the order an untrained engine asks them.
type fetchShape struct {
	name  string
	k     int
	slots []int
}

var fetchShapes = []fetchShape{
	{"k=1 over 3 replicas", 1, []int{0, 0, 0}},
	{"ec:4+2", 4, []int{0, 1, 2, 3, 4, 5}},
}

// fetchRig runs the engine over scripted drives: reply[i] is what the
// drive behind candidate i answers. A reply of "forged" is refused by
// the opener.
type fetchRig struct {
	d       *Drives
	k       int
	cands   []fetchCand
	reply   []func(ctx context.Context) (string, error)
	opened  atomic.Int64  // replies the opener accepted
	drops   atomic.Int64  // accepted replies handed back
	release chan struct{} // closed by settle: what late replies wait for
	once    sync.Once
}

func newFetchRig(shape fetchShape, hedge time.Duration) *fetchRig {
	r := &fetchRig{d: testDrives(0, hedge), k: shape.k, release: make(chan struct{})}
	for i, slot := range shape.slots {
		v := fmt.Sprintf("c%d", i)
		r.cands = append(r.cands, fetchCand{Shard{Slot: slot, Idx: int64(i)}, &pool{name: v}})
		r.reply = append(r.reply, answer(v))
	}
	return r
}

func answer(v string) func(context.Context) (string, error) {
	return func(context.Context) (string, error) { return v, nil }
}

func absent(context.Context) (string, error) { return "", fmt.Errorf("%w: scripted", ErrNotFound) }

func dead(context.Context) (string, error) { return "", errors.New("drive unreachable") }

// slow answers v after d, or the cancellation first.
func slow(d time.Duration, v string) func(context.Context) (string, error) {
	return func(ctx context.Context) (string, error) {
		select {
		case <-time.After(d):
			return v, nil
		case <-ctx.Done():
			return "", ctx.Err()
		}
	}
}

// late answers v once the rig settles, whatever its context says: a
// reply already on its way when the fetch settled.
func (r *fetchRig) late(v string) func(context.Context) (string, error) {
	return func(context.Context) (string, error) {
		<-r.release
		return v, nil
	}
}

// afterHedges answers v once the fetch has fired n hedges, or the
// cancellation first.
func (r *fetchRig) afterHedges(n uint64, v string) func(context.Context) (string, error) {
	return func(ctx context.Context) (string, error) {
		for r.d.cfg.Hedges.Load() < n {
			select {
			case <-time.After(100 * time.Microsecond):
			case <-ctx.Done():
				return "", ctx.Err()
			}
		}
		return v, nil
	}
}

// settle lets every late reply arrive.
func (r *fetchRig) settle() { r.once.Do(func() { close(r.release) }) }

func (r *fetchRig) run() ([]string, error) {
	return fetch(context.Background(), r.d, r.k, r.cands, 0,
		func(ctx context.Context, cd fetchCand) (string, error) { return r.reply[cd.Idx](ctx) },
		func(_ fetchCand, raw string) (string, error) {
			if raw == "forged" {
				return "", store.ErrCorrupt
			}
			r.opened.Add(1)
			return raw, nil
		},
		func(string) { r.drops.Add(1) })
}

// testDrives is a drive table of n drives with no connections, counting
// to counters of its own, its hedge delay fixed at hedge (0: adaptive).
func testDrives(n int, hedge time.Duration) *Drives {
	return &Drives{cfg: Config{HedgeDelay: hedge, Hedges: new(obs.Counter), RangeRejects: new(obs.Counter), Widened: new(obs.Counter)},
		pools: make([]*pool, n)}
}

// eventually polls cond until it holds or a few seconds passed.
func eventually(cond func() bool) bool {
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if cond() {
			return true
		}
	}
	return cond()
}

// TestFetchTable runs every rule of the fetch engine in both of its
// shapes: a replicated record (k = 1, a copy on each of three drives)
// and an ec:4+2 stripe (four data slots and two parity slots, a copy
// each). After every row, each reply the opener accepted was either
// returned or handed back — stragglers included.
func TestFetchTable(t *testing.T) {
	rows := []struct {
		name  string
		hedge time.Duration
		setup func(r *fetchRig)
		check func(t *testing.T, r *fetchRig, got []string, err error)
	}{
		{"a unanimous not-found is absence", time.Minute, func(r *fetchRig) {
			for i := range r.reply {
				r.reply[i] = absent
			}
		}, func(t *testing.T, _ *fetchRig, _ []string, err error) {
			if !errors.Is(err, ErrNotFound) {
				t.Fatalf("every copy absent: %v, want not-found", err)
			}
		}},
		{"a not-found beside a dead drive is the error, never absence", time.Minute, func(r *fetchRig) {
			for i := range r.reply {
				r.reply[i] = absent
			}
			r.reply[0] = dead
		}, func(t *testing.T, _ *fetchRig, _ []string, err error) {
			if err == nil || isAbsent(err) {
				t.Fatalf("one copy unreachable, the rest absent: %v, want the drive's error", err)
			}
		}},
		{"a copy refused on the drive asked first is served from another and demotes the drive", time.Minute, func(r *fetchRig) {
			r.reply[0] = answer("forged")
		}, func(t *testing.T, r *fetchRig, got []string, err error) {
			if err != nil {
				t.Fatal(err)
			}
			if got[0] == "forged" || countFilled(got) != r.k {
				t.Fatalf("slots %q", got)
			}
			if !r.cands[0].pool.lat.estimate().failing {
				t.Error("the drive that served a refused copy is not failing")
			}
		}},
		{"a refusal that arrives after the read settled still demotes its drive", time.Millisecond, func(r *fetchRig) {
			r.reply[0] = r.late("forged")
		}, func(t *testing.T, r *fetchRig, got []string, err error) {
			if err != nil || countFilled(got) != r.k {
				t.Fatalf("slots %q, %v", got, err)
			}
			r.settle()
			if !eventually(func() bool { return r.cands[0].pool.lat.estimate().failing }) {
				t.Error("the late refusal did not demote its drive")
			}
		}},
		{"a read with nothing to hedge to arms no timer and fires no hedge", time.Millisecond, func(r *fetchRig) {
			r.cands, r.reply = r.cands[:r.k], r.reply[:r.k] // one copy of each data slot, no parity
			r.reply[0] = slow(20*time.Millisecond, "c0")
		}, func(t *testing.T, r *fetchRig, got []string, err error) {
			if err != nil || got[0] != "c0" {
				t.Fatalf("slots %q, %v", got, err)
			}
			if n := r.d.cfg.Hedges.Load(); n != 0 {
				t.Errorf("%d hedges fired with no candidate left", n)
			}
		}},
		// c1–c3 answer only once two hedges fired, so every candidate
		// is out before a slot is in hand. In ec:4+2 both parity slots
		// then land, and whatever arrives in the patience window is
		// kept: the engine returns at least k slots, here five.
		{"a slow first drive is hedged around, counted, and charged its time", 20 * time.Millisecond, func(r *fetchRig) {
			r.reply[0] = slow(time.Minute, "c0")
			for i := 1; i <= 3 && i < len(r.reply); i++ {
				r.reply[i] = r.afterHedges(2, fmt.Sprintf("c%d", i))
			}
		}, func(t *testing.T, r *fetchRig, got []string, err error) {
			if err != nil || got[0] == "c0" || countFilled(got) < r.k {
				t.Fatalf("slots %q, %v", got, err)
			}
			if n := r.d.cfg.Hedges.Load(); n != 2 {
				t.Errorf("%d hedges counted, want 2", n)
			}
			if _, _, n := r.cands[0].pool.lat.snapshot(); n == 0 {
				t.Error("the outlived drive was not charged a latency sample")
			}
		}},
	}
	for _, shape := range fetchShapes {
		for _, row := range rows {
			t.Run(shape.name+"/"+row.name, func(t *testing.T) {
				r := newFetchRig(shape, row.hedge)
				defer r.settle()
				row.setup(r)
				got, err := r.run()
				row.check(t, r, got, err)
				if !eventually(func() bool { return r.opened.Load() == int64(countFilled(got))+r.drops.Load() }) {
					t.Errorf("%d replies accepted, %d returned, %d handed back", r.opened.Load(), countFilled(got), r.drops.Load())
				}
			})
		}
	}
}

func countFilled(slots []string) int {
	n := 0
	for _, s := range slots {
		if s != "" {
			n++
		}
	}
	return n
}
