package main

import (
	"math"
	"time"

	"repro/internal/ycsb"
)

// Metric is one reported number. Samples is how many observations the
// value summarises (0 for counters and ratios). In a document made
// with -runs, Value is the median over Runs runs and the quartiles and
// extremes say how far the runs spread.
type Metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
	Runs    int     `json:"runs,omitempty"`
	Q1      float64 `json:"q1,omitempty"`
	Q3      float64 `json:"q3,omitempty"`
	Min     float64 `json:"min,omitempty"`
	Max     float64 `json:"max,omitempty"`
}

// spread is the distance between the quartiles as a share of the
// median: the run-to-run noise a bound has to be read against.
func (m Metric) spread() float64 { return math.Abs(ratio(m.Q3-m.Q1, m.Value)) }

// ratio is a/b, 0 when there is nothing to divide by.
func ratio[A, B int | int64 | uint64 | float64](a A, b B) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// endToEndValues turns a run into the end-to-end metrics. They come
// from the closed loop at router depth, with the benchmark's own span
// recording off; rates and timings are those of its second least
// disturbed window (see overWindows).
func endToEndValues(m *measured) map[string]Metric {
	c := m.closed
	ws := c.windows()
	ops := c.ops()
	return map[string]Metric{
		"ops_per_s": {Samples: ops, Value: overWindows(ws, higher, func(w *windowStat) (float64, bool) {
			return ratio(float64(w.ops), c.window.Seconds()), true
		})},
		"read_p50_ms": {Samples: len(c.lat[kRead]), Value: overWindows(ws, lower, func(w *windowStat) (float64, bool) {
			return ms(median(w.lat[kRead])), len(w.lat[kRead]) > 0
		})},
		"cpu_us_per_op": {Samples: ops, Value: overWindows(ws, lower, func(w *windowStat) (float64, bool) {
			return ratio(us(w.cpu), w.ops), w.ops > 0
		})},
		"raw_bytes_per_user_byte": {Value: ratio(m.rawBytes, m.verify.userSize)},
		"rss_peak_mb":             {Value: m.rssMiB},
		"setup_s":                 {Value: median(sorted(m.setups)).Seconds(), Samples: len(m.setups)},
	}
}

// hitRatio is hits/(hits+misses) of one cache.
func hitRatio(d counters, name string) float64 {
	s := d.cache[name]
	return ratio(s[0], s[0]+s[1])
}

// perLayerValues turns a traced run into the per-layer metrics.
// Counter ratios are deltas over the untraced closed loop; depth
// medians and span attributions come from the traced loop.
func perLayerValues(m *measured) map[string]Metric {
	w := m.cfg.w
	out := make(map[string]Metric, len(perLayer))
	set := func(name string, v float64, samples int) { out[name] = Metric{Value: v, Samples: samples} }
	for name, v := range m.pure {
		set(name, v, 0)
	}

	c, d := m.closed, m.after.sub(m.before)
	v := d.v
	ops := c.ops()
	kops := float64(ops) / 1000
	puts := v[cPuts] + v[cBatchOps]

	// loadgen
	set("loadgen.clients", float64(m.cfg.clients), 0)
	set("loadgen.open_rate_ops_per_s", w.openRate, 0)
	closedP50 := median(sorted(append(append([]time.Duration(nil), c.lat[kRead]...), c.lat[kWrite]...)))
	maxOK := 0.0
	for i, step := range m.open {
		lat := sorted(step.lat)
		p99 := tail(lat)
		set("loadgen.open_p99_ms_r"+[...]string{"50", "75", "100"}[i], ms(p99), len(lat))
		if i == 0 {
			// At half the reference rate the generator must keep up:
			// lateness here is the generator's, not the system's.
			set("loadgen.open_late_p99_ms", ms(tail(sorted(step.late))), len(step.late))
		}
		// A step holds its rate when its tail stays within five closed-
		// loop medians and at most one operation in a hundred was still
		// unsent when the step ended.
		if p99 <= 5*closedP50 && float64(step.backlog) <= 0.01*float64(len(step.late)) {
			maxOK = step.rate
		}
		if i == len(m.open)-1 {
			set("loadgen.open_backlog_end", float64(step.backlog), 0)
		}
	}
	set("loadgen.max_rate_ok_ops_per_s", maxOK, 0)
	reads, writes := sorted(c.lat[kRead]), sorted(c.lat[kWrite])
	set("loadgen.read_p99_ms", ms(tail(reads)), len(reads))
	set("loadgen.write_p50_ms", ms(median(writes)), len(writes))
	set("loadgen.write_p99_ms", ms(tail(writes)), len(writes))
	set("loadgen.batch_p50_ms", ms(median(sorted(c.lat[kBatch]))), len(c.lat[kBatch]))
	pairMiB := float64(w.streamSizes[0]+w.streamSizes[1]) / (1 << 20)
	for k, name := range map[opKind]string{kWrite: "put", kRead: "get"} {
		var spent time.Duration
		n := 0
		for s, size := range []string{"8m", "2m"} {
			times := c.stream[k][s]
			set("loadgen.stream_"+name+"_ms_"+size, ms(median(sorted(times))), len(times))
			for _, x := range times {
				spent += x
			}
			n = len(times)
		}
		set("loadgen.stream_"+name+"_mb_per_s", ratio(pairMiB*float64(n), spent.Seconds()), n)
	}
	if t, u := m.traced, m.untraced; t != nil {
		// The same depth-rotating loop with span recording on and off.
		set("loadgen.trace_overhead_ratio",
			ratio(ratio(float64(t.p.ops()), t.p.elapsed.Seconds()), ratio(float64(u.p.ops()), u.p.elapsed.Seconds())), t.p.ops())
	}
	set("loadgen.denials_per_kop", ratio(v[cPolicyDenials], kops), 0)

	// cluster, client, core: the three depth medians split into layers.
	// The router's self time is what a call spends above the controllers'
	// handlers at router depth minus the same at client depth; the
	// session median is core's; the REST layer (client, TLS, HTTP,
	// handler) is the rest, so the three always add up to the router-
	// depth median.
	if t := m.traced; t != nil {
		depthMedian := func(dp depth, k opKind) (time.Duration, int) {
			s := sorted(t.call[dp][k])
			return median(s), len(s)
		}
		selfTimes := func(op string, k opKind) {
			r, n := depthMedian(depthRouter, k)
			se, _ := depthMedian(depthSession, k)
			router := median(sorted(t.self[depthRouter][k])) - median(sorted(t.self[depthClient][k]))
			set("cluster.router_self_us_"+op, us(router), n)
			set("client.rest_self_us_"+op, us(r-router-se), n)
			set("core.session_us_"+op, us(se), n)
		}
		switch {
		case w.stream:
			var self time.Duration
			n := 0
			for _, k := range []opKind{kRead, kWrite} {
				cl, cn := depthMedian(depthClient, k)
				se, _ := depthMedian(depthSession, k)
				self += cl - se
				n += cn
			}
			set("client.rest_self_us_stream_mb", us(self)/(2*pairMiB), n)
		case w.ycsb == ycsb.WorkloadE:
			selfTimes("scan", kRead)
			selfTimes("put", kWrite)
		default:
			selfTimes("get", kRead)
			selfTimes("put", kWrite)
		}
		// core: where a session call's time went, by the program's spans:
		// the median share of each span name over the session-depth
		// operations that had such a span at all (n says how many did).
		for _, name := range attributed {
			var had []time.Duration
			for k := range t.attr {
				for _, x := range t.attr[k][name] {
					if x > 0 {
						had = append(had, x)
					}
				}
			}
			set("core.span_"+name+"_us", us(median(sorted(had))), len(had))
		}
		if !w.stream && w.ycsb != ycsb.WorkloadE {
			set("core.unattributed_us_get", us(median(sorted(t.unattr[kRead]))), len(t.unattr[kRead]))
		}
		if !w.stream {
			set("core.unattributed_us_put", us(median(sorted(t.unattr[kWrite]))), len(t.unattr[kWrite]))
		}
	}
	set("cluster.redirects_per_kop", ratio(v[rRedirects], kops), 0)
	set("cluster.retries_per_kop", ratio(v[rRetries], kops), 0)
	set("cluster.map_refreshes", float64(v[rMapRefreshes]), 0)
	if v[cScans] > 0 {
		set("cluster.shard_pages_per_list", ratio(v[cScans], len(c.lat[kRead])), 0)
	}

	// core ratios
	checks := v[cPolicyChecks]
	set("core.policy_checks_per_op", ratio(checks, ops), 0)
	set("core.policy_evals_per_check", ratio(v[cPolicyEvals], checks), 0)
	set("core.residual_hit_ratio", ratio(v[cResidualHits], checks), 0)
	set("core.decision_hit_ratio", ratio(v[cDecisionHits], checks), 0)
	set("core.read_hedges_per_get", ratio(v[cReadHedges], v[cGets]), 0)
	set("core.coalesced_reads_per_get", ratio(v[cCoalescedReads], v[cGets]), 0)
	set("core.groups_per_batch", ratio(v[cGroupedWrites], v[cGroupBatches]), 0)
	set("core.group_batches_per_put", ratio(v[cGroupBatches], puts), 0)
	set("core.trailing_flushes_per_put", ratio(v[cTrailingFlushes], puts), 0)
	if v[cScans] > 0 {
		// Every entry a scan examines costs one policy check; inserts
		// create objects, which no policy governs yet.
		set("core.scan_examined_per_returned", ratio(checks, c.listed), 0)
		set("core.scan_filtered_ratio", ratio(v[cScanFiltered], checks), 0)
	}
	set("core.ec_decodes_per_get", ratio(v[cECDecodes], v[cGets]), 0)
	set("core.ec_parity_bytes_per_user_byte", ratio(v[cECParityBytes], v[cWriteBytes]), 0)
	set("core.wrong_shard_per_kop", ratio(v[cWrongShard], kops), 0)

	set("cache.object_hit_ratio", hitRatio(d, "object"), 0)
	set("cache.meta_hit_ratio", hitRatio(d, "meta"), 0)
	set("cache.policy_hit_ratio", hitRatio(d, "policy"), 0)
	set("cache.residual_hit_ratio", hitRatio(d, "residual"), 0)
	set("cache.object_evictions_per_kop", ratio(d.cache["object"][2], kops), 0)
	set("cache.meta_evictions_per_kop", ratio(d.cache["meta"][2], kops), 0)

	set("enclave.spun_us_per_op", ratio(float64(v[cSpunNanos])/1000, ops), 0)
	set("enclave.syscalls_per_op", ratio(v[cSyscalls], ops), 0)
	set("enclave.epc_resident_mb", float64(d.epcResident)/(1<<20), 0)
	set("enclave.epc_faults_per_kop", ratio(v[cEPCFaults], kops), 0)

	set("kinetic.drive_gets_per_op", ratio(v[dGets], ops), 0)
	set("kinetic.drive_writes_per_op", ratio(v[dPuts]+v[dBatchOps], ops), 0)
	set("kinetic.batches_per_put", ratio(v[dBatches], puts), 0)
	set("kinetic.groups_per_batch", ratio(v[dBatchGroups], v[dBatches]), 0)
	set("kinetic.group_rejects_per_kop", ratio(v[dGroupRejects], kops), 0)
	set("kinetic.flushes_per_put", ratio(v[dFlushes], puts), 0)
	set("kinetic.ranges_per_scan", ratio(v[dRanges], v[cScans]), 0)
	set("kinetic.rejected", float64(v[dRejected]), 0)
	set("kinetic.read_ewma_us", us(d.readEWMA), 0)
	set("kinetic.read_p95_us", us(d.readP95), 0)
	set("kinetic.raw_bytes", float64(m.rawBytes), 0)

	set("process.allocs_per_op", ratio(v[pMallocs], ops), 0)
	set("process.alloc_bytes_per_op", ratio(v[pAllocBytes], ops), 0)
	set("process.gc_cycles", float64(v[pGCCycles]), 0)
	set("process.gc_pause_ms_total", float64(v[pGCPauseNanos])/1e6, 0)
	set("process.goroutines_peak", float64(m.goPeak), 0)

	// Whatever does not apply to this workload reads 0.
	for _, def := range perLayer {
		mt := out[def.Name]
		mt.Unit = def.Unit
		out[def.Name] = mt
	}
	return out
}
