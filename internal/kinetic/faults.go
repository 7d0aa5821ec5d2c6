package kinetic

import (
	"bytes"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/kinetic/wire"
)

// Faults configures deterministic fault injection on a drive. The zero
// value means "healthy": Handle pays exactly one atomic load on that
// path, so injection compiles to a no-op for production traffic.
//
// Rate-style faults (ErrorEveryN, CorruptEveryN) are counter-driven,
// not random: the Nth request since SetFaults trips them, so a given
// request sequence reproduces the same failures on every run.
type Faults struct {
	// Blackhole drops every request without a response and tears down
	// the carrying connection — the drive has vanished mid-operation.
	// Clients observe deterministic transport errors, which is what
	// feeds the controller's failure detector.
	Blackhole bool
	// SlowFactor >= 2 repeats the modelled media wait that many times,
	// degrading an HDD-model drive without taking it offline.
	SlowFactor int
	// ExtraDelay adds a fixed service delay to every media wait. It is
	// the way to slow a SimMedia drive, which models no service time.
	ExtraDelay time.Duration
	// ErrorEveryN > 0 answers every Nth request with an internal-error
	// status instead of executing it.
	ErrorEveryN int64
	// CorruptEveryN > 0 flips a byte in every Nth GET response value.
	// The store itself is untouched (the response is corrupted on a
	// copy); the authenticated codec upstream detects the damage, so
	// this exercises the corrupt-replica repair path end to end.
	CorruptEveryN int64
	// RangeLie makes every key-range reply dishonest in one way — the
	// drive as an adversary of the enumerations built on GETKEYRANGE, not
	// merely a broken one. Like CorruptEveryN it rewrites the reply, never
	// the store.
	RangeLie RangeLie
}

// RangeLie names one way a drive misanswers a key range.
type RangeLie string

const (
	// RangeReorder swaps the reply's first and last entries.
	RangeReorder RangeLie = "reorder"
	// RangeOvershoot appends an entry past the asked EndKey.
	RangeOvershoot RangeLie = "overshoot"
	// RangeStuck repeats the first range reply made under this fault
	// configuration to every later range request, marked Truncated: a
	// caller that follows the marker without checking never finishes.
	RangeStuck RangeLie = "stuck"
	// RangeCutToNothing answers no entries, marked Truncated.
	RangeCutToNothing RangeLie = "cut-to-nothing"
)

// active reports whether any fault is configured.
func (f Faults) active() bool {
	return f.Blackhole || f.SlowFactor > 1 || f.ExtraDelay > 0 ||
		f.ErrorEveryN > 0 || f.CorruptEveryN > 0 || f.RangeLie != ""
}

// FaultStats counts injected faults since the last SetFaults call.
type FaultStats struct {
	Dropped   uint64 `json:"dropped"`
	Errors    uint64 `json:"errors"`
	Corrupted uint64 `json:"corrupted"`
	RangeLies uint64 `json:"range_lies"`
}

// faultState carries a fault configuration plus the deterministic
// trip counters. A fresh state (fresh counters) is installed on every
// SetFaults, so "every Nth" is relative to the config point.
type faultState struct {
	cfg Faults

	reqs atomic.Int64 // requests seen (ErrorEveryN counter)
	gets atomic.Int64 // GETs seen (CorruptEveryN counter)

	dropped   atomic.Uint64
	errors    atomic.Uint64
	corrupted atomic.Uint64
	rangeLies atomic.Uint64

	stuckMu sync.Mutex
	stuck   *wire.Message // RangeStuck: the reply being repeated
}

// SetFaults installs a fault configuration on the drive, replacing any
// previous one and resetting the injection counters. A zero Faults
// clears injection entirely.
func (d *Drive) SetFaults(f Faults) {
	if !f.active() {
		d.faults.Store(nil)
		return
	}
	d.faults.Store(&faultState{cfg: f})
}

// ClearFaults removes all fault injection.
func (d *Drive) ClearFaults() { d.faults.Store(nil) }

// Faults returns the currently configured faults (zero when healthy).
func (d *Drive) Faults() Faults {
	if fs := d.faults.Load(); fs != nil {
		return fs.cfg
	}
	return Faults{}
}

// FaultStats returns counts of faults injected since the current
// configuration was installed.
func (d *Drive) FaultStats() FaultStats {
	fs := d.faults.Load()
	if fs == nil {
		return FaultStats{}
	}
	return FaultStats{
		Dropped:   fs.dropped.Load(),
		Errors:    fs.errors.Load(),
		Corrupted: fs.corrupted.Load(),
		RangeLies: fs.rangeLies.Load(),
	}
}

// lieAboutRange rewrites an honest range reply according to the
// configured RangeLie. The key and value slices, and the copies they
// point at, are the reply's own.
func (fs *faultState) lieAboutRange(req, resp *wire.Message) {
	switch fs.cfg.RangeLie {
	case RangeReorder:
		last := len(resp.Keys) - 1
		if last < 1 {
			return // nothing to put out of order
		}
		resp.Keys[0], resp.Keys[last] = resp.Keys[last], resp.Keys[0]
		if req.WithValues {
			resp.Values[0], resp.Values[last] = resp.Values[last], resp.Values[0]
		}
	case RangeOvershoot:
		resp.Keys = append(resp.Keys, append(append([]byte(nil), req.EndKey...), 0xff))
		if req.WithValues {
			resp.Values = append(resp.Values, []byte("overshoot"))
		}
	case RangeStuck:
		fs.stuckMu.Lock()
		if fs.stuck == nil {
			// Replayed after this reply's buffers went back to their
			// pool: the stuck page keeps copies of its own.
			fs.stuck = &wire.Message{}
			for _, k := range resp.Keys {
				fs.stuck.Keys = append(fs.stuck.Keys, bytes.Clone(k))
			}
			for _, v := range resp.Values {
				fs.stuck.Values = append(fs.stuck.Values, bytes.Clone(v))
			}
		}
		resp.Keys, resp.Values = fs.stuck.Keys, fs.stuck.Values
		fs.stuckMu.Unlock()
		resp.Truncated = true
	case RangeCutToNothing:
		resp.Keys, resp.Values, resp.Truncated = resp.Keys[:0], resp.Values[:0], true
	default:
		return
	}
	fs.rangeLies.Add(1)
}
