package main

import (
	"runtime"
	"syscall"
	"time"
)

// Indexes into counters.v: every cumulative counter the layers expose
// through public accessors, summed over nodes, drives and routers.
const (
	// core.Controller.Stats()
	cPuts = iota
	cGets
	cScans
	cScanFiltered
	cBatchOps
	cPolicyChecks
	cPolicyDenials
	cPolicyEvals
	cResidualHits
	cDecisionHits
	cReadHedges
	cCoalescedReads
	cWrongShard
	cGroupBatches
	cGroupedWrites
	cTrailingFlushes
	cWriteBytes
	cECParityBytes
	cECDecodes
	// enclave.CostModel and enclave.EPC
	cSpunNanos
	cSyscalls
	cEPCFaults
	// kinetic.Drive.Stats()
	dGets
	dPuts
	dRanges
	dBatches
	dBatchOps
	dBatchGroups
	dGroupRejects
	dFlushes
	dRejected
	// cluster.Router.Stats()
	rRedirects
	rRetries
	rMapRefreshes
	// runtime.MemStats
	pMallocs
	pAllocBytes
	pGCCycles
	pGCPauseNanos
	numCounters
)

// counters is one reading. Per-layer ratios are differences of two
// readings around the closed loop, so they need no change to the
// program.
type counters struct {
	v     [numCounters]uint64
	cache map[string][3]uint64 // hits, misses, evictions by cache name
	// Gauges, meaningful on a single reading only.
	epcResident       int64
	rawBytes          int64         // Σ Drive.SizeBytes()
	readEWMA, readP95 time.Duration // mean over drives with samples
}

// sub returns the counters accumulated since before.
func (c counters) sub(before counters) counters {
	out := c
	out.cache = make(map[string][3]uint64, len(c.cache))
	for i := range out.v {
		out.v[i] -= before.v[i]
	}
	for name, s := range c.cache {
		b := before.cache[name]
		out.cache[name] = [3]uint64{s[0] - b[0], s[1] - b[1], s[2] - b[2]}
	}
	return out
}

func (d *deployment) read() counters {
	c := counters{cache: make(map[string][3]uint64)}
	v := &c.v
	var lat, p95 time.Duration
	drives := 0
	for _, n := range d.mc.Nodes {
		s := n.Controller.Stats().Snapshot()
		for i, x := range map[int]uint64{
			cPuts: s.Puts, cGets: s.Gets, cScans: s.Scans, cScanFiltered: s.ScanFiltered,
			cBatchOps: s.BatchOps, cPolicyChecks: s.PolicyChecks, cPolicyDenials: s.PolicyDenials,
			cPolicyEvals: s.PolicyEvals, cResidualHits: s.ResidualHits, cDecisionHits: s.DecisionHits,
			cReadHedges: s.ReadHedges, cCoalescedReads: s.CoalescedReads, cWrongShard: s.WrongShard,
			cGroupBatches: s.GroupBatches, cGroupedWrites: s.GroupedWrites,
			cTrailingFlushes: s.TrailingFlushes, cWriteBytes: s.WriteBytes,
			cECParityBytes: s.ECParityBytes, cECDecodes: s.ECDecodes,
			cSpunNanos: uint64(n.Controller.Cost().SpunNanos()),
			cSyscalls:  n.Controller.Cost().Syscalls(),
			cEPCFaults: n.Controller.EPC().Faults(),
		} {
			v[i] += x
		}
		for name, s := range n.Controller.CacheStats() {
			cur := c.cache[name]
			for i := range cur {
				cur[i] += s[i]
			}
			c.cache[name] = cur
		}
		c.epcResident += n.Controller.EPC().Resident()
		for _, dl := range n.Controller.DriveLatencies() {
			if dl.Samples > 0 {
				lat += dl.EWMA
				p95 += dl.P95
				drives++
			}
		}
		for _, dr := range n.Drives {
			s := dr.Stats()
			v[dGets] += s.Gets.Load()
			v[dPuts] += s.Puts.Load()
			v[dRanges] += s.Ranges.Load()
			v[dBatches] += s.Batches.Load()
			v[dBatchOps] += s.BatchOps.Load()
			v[dBatchGroups] += s.BatchGroups.Load()
			v[dGroupRejects] += s.GroupRejects.Load()
			v[dFlushes] += s.Flushes.Load()
			v[dRejected] += s.Rejected.Load()
			c.rawBytes += dr.SizeBytes()
		}
	}
	if drives > 0 {
		c.readEWMA, c.readP95 = lat/time.Duration(drives), p95/time.Duration(drives)
	}
	for _, wk := range d.workers {
		rs := wk.rt.r.Stats()
		v[rRedirects] += rs.Redirects.Load()
		v[rRetries] += rs.Retries.Load()
		v[rMapRefreshes] += rs.MapRefreshes.Load()
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	v[pMallocs], v[pAllocBytes] = m.Mallocs, m.TotalAlloc
	v[pGCCycles], v[pGCPauseNanos] = uint64(m.NumGC), m.PauseTotalNs
	return c
}

// cpuTime is the user+system CPU this process has consumed.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB is the process's high-water resident set, set-up included.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
