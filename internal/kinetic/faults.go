package kinetic

import (
	"bytes"
	"slices"
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
	// CorruptEveryN > 0 flips a byte in every Nth value a GET or a
	// multi-key read returns. The store itself is untouched (the response
	// is corrupted on a copy); the authenticated codec upstream detects
	// the damage, so this exercises the corrupt-replica repair path end
	// to end.
	CorruptEveryN int64
	// RangeLie makes every key-range reply, and every multi-key read
	// reply, dishonest in one way — the drive as an adversary of the
	// enumerations built on GETKEYRANGE and of the head wave built on
	// GETMANY, not merely a broken one. Like CorruptEveryN it rewrites the
	// reply, never the store.
	RangeLie RangeLie
}

// RangeLie names one way a drive misanswers a key range or a multi-key
// read.
type RangeLie string

const (
	// RangeReorder swaps the reply's first and last entries.
	RangeReorder RangeLie = "reorder"
	// RangeOvershoot appends an entry past the asked EndKey, or past the
	// last asked key: one that was not asked for.
	RangeOvershoot RangeLie = "overshoot"
	// RangeStuck repeats the first reply of its kind made under this
	// fault configuration to every later request of that kind, marked
	// Truncated: a caller that follows the marker without checking never
	// finishes.
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
	stuck   map[wire.MessageType]*wire.Message // RangeStuck: the reply being repeated, by kind
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

// corruptGet flips a byte of value, a found value of a GET or multi-key
// read reply, when CorruptEveryN says this is the one. The value is the
// response's own copy: the damage stays in this one response.
func (fs *faultState) corruptGet(value []byte) {
	if fs.cfg.CorruptEveryN > 0 && len(value) > 0 && fs.gets.Add(1)%fs.cfg.CorruptEveryN == 0 {
		value[len(value)/2] ^= 0xff
		fs.corrupted.Add(1)
	}
}

// lieAboutRange rewrites an honest range or multi-key read reply
// according to the configured RangeLie. The key and value slices, and
// the copies they point at, are the reply's own; Values and Found are
// rewritten with Keys where the reply carries them.
func (fs *faultState) lieAboutRange(req, resp *wire.Message) {
	many := req.Type == wire.TGetMany
	values := many || req.WithValues
	switch fs.cfg.RangeLie {
	case RangeReorder:
		last := len(resp.Keys) - 1
		if last < 1 {
			return // nothing to put out of order
		}
		resp.Keys[0], resp.Keys[last] = resp.Keys[last], resp.Keys[0]
		if values {
			resp.Values[0], resp.Values[last] = resp.Values[last], resp.Values[0]
		}
		if many {
			resp.Found[0], resp.Found[last] = resp.Found[last], resp.Found[0]
		}
	case RangeOvershoot:
		past := req.EndKey
		if many {
			past = req.Keys[len(req.Keys)-1]
		}
		resp.Keys = append(resp.Keys, append(bytes.Clone(past), 0xff))
		if values {
			resp.Values = append(resp.Values, []byte("overshoot"))
		}
		if many {
			resp.Found = append(resp.Found, true)
		}
	case RangeStuck:
		fs.stuckMu.Lock()
		stuck := fs.stuck[req.Type]
		if stuck == nil {
			// Replayed after this reply's buffers went back to their
			// pool: the stuck reply keeps copies of its own.
			stuck = &wire.Message{Found: slices.Clone(resp.Found)}
			for _, k := range resp.Keys {
				stuck.Keys = append(stuck.Keys, bytes.Clone(k))
			}
			for _, v := range resp.Values {
				stuck.Values = append(stuck.Values, bytes.Clone(v))
			}
			if fs.stuck == nil {
				fs.stuck = make(map[wire.MessageType]*wire.Message)
			}
			fs.stuck[req.Type] = stuck
		}
		resp.Keys, resp.Values, resp.Found = stuck.Keys, stuck.Values, stuck.Found
		fs.stuckMu.Unlock()
		resp.Truncated = true
	case RangeCutToNothing:
		resp.Keys, resp.Values, resp.Found, resp.Truncated = resp.Keys[:0], resp.Values[:0], resp.Found[:0], true
	default:
		return
	}
	fs.rangeLies.Add(1)
}
