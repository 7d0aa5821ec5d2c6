package core

import (
	"context"
	"fmt"
	"sync"
	"time"
)

// DriveState is the failure detector's verdict on one drive.
type DriveState int

const (
	// DriveHealthy: the drive answers probes.
	DriveHealthy DriveState = iota
	// DriveSuspect: recent probes failed; reads already avoid the
	// drive (the latency estimator demotes it), writes still include
	// it so a blip costs nothing to durability.
	DriveSuspect
	// DriveDead: probes have failed long enough that placement routes
	// around the drive and the sweeper re-replicates its ranges onto
	// spares.
	DriveDead
)

// String implements fmt.Stringer.
func (s DriveState) String() string {
	switch s {
	case DriveHealthy:
		return "healthy"
	case DriveSuspect:
		return "suspect"
	case DriveDead:
		return "dead"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// DriveHealth is one drive's detector status.
type DriveHealth struct {
	Name  string     `json:"name"`
	State DriveState `json:"-"`
	// StateName is State rendered for JSON consumers.
	StateName string `json:"state"`
	// ProbeFails is the current consecutive failed-probe count.
	ProbeFails int `json:"probe_fails"`
	// Since is when the drive entered its current state.
	Since time.Time `json:"since"`
}

// The detector's fixed thresholds: consecutive failed probes before a
// drive is suspect, and consecutive answered probes before a dead drive
// rejoins.
const (
	detectorSuspectAfter = 2
	detectorReviveAfter  = 3
)

// driveDetector tracks per-drive probe history and drives the
// healthy → suspect → dead state machine. Transitions need
// consecutive evidence in both directions (detectorSuspectAfter and
// deadAfter failures down, detectorReviveAfter successes up), so a
// single dropped probe never declares a drive dead and a single lucky
// probe never revives one.
type driveDetector struct {
	c *Controller

	deadAfter    int
	probeTimeout time.Duration

	mu     sync.Mutex
	states []driveProbeState
}

type driveProbeState struct {
	state     DriveState
	fails     int
	successes int
	since     time.Time
}

func newDriveDetector(c *Controller) *driveDetector {
	d := &driveDetector{
		c:            c,
		deadAfter:    c.cfg.DetectorDeadAfter,
		probeTimeout: c.cfg.DetectorProbeTimeout,
		states:       make([]driveProbeState, c.drives.Len()),
	}
	if d.deadAfter <= detectorSuspectAfter {
		d.deadAfter = detectorSuspectAfter + 2
	}
	if d.probeTimeout <= 0 {
		d.probeTimeout = time.Second
	}
	now := c.clock()
	for i := range d.states {
		d.states[i].since = now
	}
	return d
}

// DetectorTick probes every drive once and advances the state
// machine. It is the body of the background detector loop and is
// exported so tests and scripted scenarios can step detection
// deterministically without waiting on timers.
func (c *Controller) DetectorTick(ctx context.Context) []DriveHealth {
	det := c.detector
	if det == nil {
		return nil
	}
	det.record(c.drives.Noop(ctx, det.probeTimeout))
	return c.DriveHealth()
}

// record folds one round of probe results into the state machine and
// republishes the dead-drive mask.
func (d *driveDetector) record(results []bool) {
	c := d.c
	now := c.clock()
	var deaths, revives int
	d.mu.Lock()
	var mask uint64
	for i := range d.states {
		st := &d.states[i]
		if results[i] {
			st.fails = 0
			st.successes++
			switch st.state {
			case DriveSuspect:
				st.state, st.since = DriveHealthy, now
			case DriveDead:
				if st.successes >= detectorReviveAfter {
					st.state, st.since = DriveHealthy, now
					revives++
				}
			}
		} else {
			st.successes = 0
			st.fails++
			switch st.state {
			case DriveHealthy:
				if st.fails >= d.deadAfter {
					st.state, st.since = DriveDead, now
					deaths++
				} else if st.fails >= detectorSuspectAfter {
					st.state, st.since = DriveSuspect, now
				}
			case DriveSuspect:
				if st.fails >= d.deadAfter {
					st.state, st.since = DriveDead, now
					deaths++
				}
			}
		}
		if st.state == DriveDead {
			mask |= 1 << uint(i)
		}
	}
	d.mu.Unlock()
	c.revivals.Add(uint64(revives)) // before the mask that lets a listing's cover back in
	c.deadMask.Store(mask)
	if deaths > 0 || revives > 0 {
		c.stats.DriveDeaths.Add(uint64(deaths))
		c.stats.DriveRevives.Add(uint64(revives))
		// Placement just changed: spares are missing every record of
		// the affected ranges (death), or a revived drive must be
		// converged back. Wake the sweeper rather than waiting out its
		// interval.
		c.kickSweeper()
	}
}

// DriveHealth reports the detector's per-drive states. Without a
// configured detector every drive reports healthy.
func (c *Controller) DriveHealth() []DriveHealth {
	out := make([]DriveHealth, c.drives.Len())
	det := c.detector
	if det != nil {
		det.mu.Lock()
	}
	for i := range out {
		h := DriveHealth{Name: c.drives.Name(i), State: DriveHealthy}
		if det != nil {
			st := det.states[i]
			h.State, h.ProbeFails, h.Since = st.state, st.fails, st.since
		}
		h.StateName = h.State.String()
		out[i] = h
	}
	if det != nil {
		det.mu.Unlock()
	}
	return out
}

// MarkDriveDead forces a drive into the dead state (operator action /
// deterministic tests). The detector's revive path still applies: a
// drive that answers probes detectorReviveAfter times in a row comes back.
func (c *Controller) MarkDriveDead(name string) error {
	return c.forceDriveState(name, DriveDead)
}

// MarkDriveLive forces a drive back to healthy, clearing its history.
func (c *Controller) MarkDriveLive(name string) error {
	return c.forceDriveState(name, DriveHealthy)
}

func (c *Controller) forceDriveState(name string, state DriveState) error {
	det := c.detector
	if det == nil {
		return fmt.Errorf("core: no failure detector configured")
	}
	idx := -1
	for i := range c.drives.Len() {
		if c.drives.Name(i) == name {
			idx = i
			break
		}
	}
	if idx < 0 {
		return fmt.Errorf("core: unknown drive %q", name)
	}
	det.mu.Lock()
	st := &det.states[idx]
	revived := st.state == DriveDead && state != DriveDead
	st.state, st.fails, st.successes, st.since = state, 0, 0, c.clock()
	var mask uint64
	for i := range det.states {
		if det.states[i].state == DriveDead {
			mask |= 1 << uint(i)
		}
	}
	det.mu.Unlock()
	if revived {
		c.revivals.Add(1) // before the mask, as in record
	}
	c.deadMask.Store(mask)
	if state == DriveDead {
		c.stats.DriveDeaths.Inc()
	}
	c.kickSweeper()
	return nil
}
