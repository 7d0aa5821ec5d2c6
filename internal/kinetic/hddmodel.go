package kinetic

import (
	"sync"
	"time"
)

// MediaModel models the service time of the drive's storage medium.
// The paper evaluates two backends: the in-memory Kinetic simulator
// (fast, CPU-bound) and real Kinetic HDDs whose head-seek time caps a
// drive near one thousand operations per second. SimMedia reproduces
// the former, HDDMedia the latter.
type MediaModel interface {
	// ServiceTime returns how long the medium takes to serve one
	// operation touching n payload bytes.
	ServiceTime(op OpKind, n int) time.Duration
	// Name labels the model in logs and benchmark output.
	Name() string
}

// OpKind classifies a drive operation for the media model.
type OpKind uint8

// Operation kinds.
const (
	OpRead OpKind = iota
	OpWrite
	OpDelete
	OpScan
)

// SimMedia is the in-memory simulator backend: zero modelled service
// time; the drive is limited only by CPU and network, as with the
// Java Kinetic simulator used in the paper.
type SimMedia struct{}

// ServiceTime implements MediaModel.
func (SimMedia) ServiceTime(OpKind, int) time.Duration { return 0 }

// Name implements MediaModel.
func (SimMedia) Name() string { return "sim" }

// HDDMedia models a 4 TB Kinetic HDD: positioning time (seek +
// rotational latency) dominates; transfer adds bandwidth-proportional
// time. With the defaults a drive sustains roughly 900–1100 small
// operations per second, matching the ~1 kIOP/s the paper measures
// against real Kinetic drives.
//
// TimeScale shrinks modelled delays so benchmarks finish quickly while
// preserving ratios between configurations: to compare against
// wall-clock hardware numbers, reported throughput is multiplied by
// TimeScale. The benchmark harness does this automatically.
type HDDMedia struct {
	Positioning  time.Duration // average seek + rotational latency
	BytesPerSec  float64       // sustained media transfer rate
	WritePenalty time.Duration // extra latency for write-through commits
	TimeScale    float64       // 0 < TimeScale <= 1; 1 = real time

	mu   sync.Mutex
	busy time.Time // medium is serial: next free time
}

// NewHDDMedia returns an HDD model with data-sheet-like defaults and
// the given time scale (use 1.0 for daemons, smaller for benchmarks).
func NewHDDMedia(timeScale float64) *HDDMedia {
	if timeScale <= 0 || timeScale > 1 {
		timeScale = 1
	}
	return &HDDMedia{
		Positioning:  900 * time.Microsecond,
		BytesPerSec:  150e6,
		WritePenalty: 100 * time.Microsecond,
		TimeScale:    timeScale,
	}
}

// ServiceTime implements MediaModel. The model is a serial server:
// requests queue behind the head. It returns the time this operation
// occupies the medium; the drive sleeps for the scaled duration.
func (h *HDDMedia) ServiceTime(op OpKind, n int) time.Duration {
	d := h.Positioning + time.Duration(float64(n)/h.BytesPerSec*float64(time.Second))
	if op == OpWrite || op == OpDelete {
		d += h.WritePenalty
	}
	return time.Duration(float64(d) * h.TimeScale)
}

// Name implements MediaModel.
func (h *HDDMedia) Name() string { return "hdd" }

// occupy serializes access to the medium, modelling the single head:
// concurrent requests queue. It returns the duration the caller must
// wait (queueing + service) under the scaled clock.
func (h *HDDMedia) occupy(service time.Duration) time.Duration {
	h.mu.Lock()
	now := time.Now()
	start := h.busy
	if start.Before(now) {
		start = now
	}
	h.busy = start.Add(service)
	wait := h.busy.Sub(now)
	h.mu.Unlock()
	return wait
}

// Wait blocks the calling request for the modelled queueing plus
// service time of one operation.
func (h *HDDMedia) Wait(op OpKind, n int) { h.WaitOps(op, 1, n) }

// WaitOps is Wait for ops operations of one kind that one request
// serves back to back, n payload bytes in all: each pays its full
// positioning, with no discount, but the medium is reserved for all of
// them at once and the request sleeps once.
func (h *HDDMedia) WaitOps(op OpKind, ops, n int) {
	service := h.ServiceTime(op, n) + time.Duration(ops-1)*h.ServiceTime(op, 0)
	if service <= 0 {
		return
	}
	time.Sleep(h.occupy(service))
}
