package core

import (
	"fmt"
	"time"

	"repro/internal/obs"
)

// initObs builds the controller's observability layer: the metrics
// registry (every Stats counter, cache and drive gauges, per-op
// latency histograms), the tracer with its completed-trace ring, and
// the sealed audit decision log. Under cfg.DisableObs everything stays
// nil and the instrumented paths no-op.
func (c *Controller) initObs() error {
	if c.cfg.DisableObs {
		return nil
	}
	c.registry = obs.NewRegistry()
	c.traceStore = obs.NewTraceStore(0) // the ring behind GET /v2/trace/{id}, at obs's default size
	slow := c.cfg.SlowOpThreshold
	if slow == 0 {
		slow = 250 * time.Millisecond
	} else if slow < 0 {
		slow = 0
	}
	c.tracer = obs.NewTracer(obs.TracerConfig{
		Store:         c.traceStore,
		SlowThreshold: slow,
		Sample:        c.cfg.TraceSample,
	})

	c.opHist = make(map[string]*obs.Histogram)
	for _, op := range []string{"put", "get", "delete", "scan", "batch", "stream", "tx", "other"} {
		h := c.registry.Histogram(fmt.Sprintf(`pesos_request_seconds{op=%q}`, op), "End-to-end request latency by operation.")
		c.opHist[op] = h
	}
	c.registerMetrics()

	if c.cfg.AuditDir != "" {
		// The sealing key is derived from the attested object key, so it
		// never exists outside the enclave.
		a, err := obs.OpenAudit(obs.AuditConfig{
			Dir:         c.cfg.AuditDir,
			Key:         obs.DeriveAuditKey(c.secrets.ObjectKey[:]),
			SampleAllow: c.cfg.AuditSampleAllow,
			Dropped:     &c.stats.AuditDropped,
		})
		if err != nil {
			return err
		}
		c.audit = a
	}
	return nil
}

// counterDecl is one Stats word with its key in the /v2/status body and
// its /metrics series.
type counterDecl struct {
	status, series, help string
	word                 *obs.Counter
}

// counters declares every Stats word once, for both places it is shown.
// (All but DecisionHits and TrailingFlushes, which count a cache and a
// write-back mode that no longer exist and stay fields only because
// benchmark/counters.go reads them.)
func (s *Stats) counters() []counterDecl {
	return []counterDecl{
		{"puts", `pesos_ops_total{op="put"}`, "Object writes.", &s.Puts},
		{"gets", `pesos_ops_total{op="get"}`, "Object reads.", &s.Gets},
		{"deletes", `pesos_ops_total{op="delete"}`, "Object deletes.", &s.Deletes},
		{"scans", "pesos_scan_pages_total", "v2 scan pages served.", &s.Scans},
		{"scanFiltered", "pesos_scan_filtered_total", "Scan entries suppressed by policy.", &s.ScanFiltered},
		{"scanWidened", "pesos_scan_widened_total", "Listing rounds that asked past the cover because a cover drive did not answer.", &s.ScanWidened},
		{"batchOps", "pesos_batch_ops_total", "Operations carried by v2 batch requests.", &s.BatchOps},
		{"streams", "pesos_streams_total", "Chunked streamed reads and writes.", &s.Streams},
		{"policyChecks", "pesos_policy_checks_total", "Policy checks performed.", &s.PolicyChecks},
		{"policyDenials", "pesos_policy_denials_total", "Policy checks that denied the request.", &s.PolicyDenials},
		{"policyEvals", "pesos_policy_evals_total", "Clause-machine runs (checks not decided statically).", &s.PolicyEvals},
		{"residualHits", "pesos_policy_residual_hits_total", "Checks served by a cached or page-reused residual.", &s.ResidualHits},
		{"indexSkippedClauses", "pesos_policy_index_skipped_clauses_total", "Clauses pruned by session residuals (bind-time kills and object guards).", &s.IndexSkippedClauses},
		{"txCommits", "pesos_tx_commits_total", "Transactions committed.", &s.TxCommits},
		{"txAborts", "pesos_tx_aborts_total", "Transactions aborted.", &s.TxAborts},
		{"readHedges", "pesos_read_hedges_total", "Hedge requests fired by the read engine.", &s.ReadHedges},
		{"coalescedReads", "pesos_coalesced_reads_total", "Cache misses served by another miss's flight.", &s.CoalescedReads},
		{"wrongShard", "pesos_wrong_shard_total", "Operations redirected to another shard.", &s.WrongShard},
		{"groupBatches", "pesos_group_batches_total", "Drive batches shipped by the commit loops.", &s.GroupBatches},
		{"groupedWrites", "pesos_grouped_writes_total", "Write groups that shared a merged drive batch.", &s.GroupedWrites},
		{"readBytes", "pesos_read_bytes_total", "Payload bytes served to readers.", &s.ReadBytes},
		{"writeBytes", "pesos_write_bytes_total", "Payload bytes accepted from writers.", &s.WriteBytes},
		{"repairs", "pesos_repairs_total", "Objects re-replicated by repair.", &s.Repairs},
		{"repairSweeps", "pesos_repair_sweeps_total", "Full anti-entropy keyspace passes completed.", &s.RepairSweeps},
		{"repairBytes", "pesos_repair_bytes_total", "Record bytes rewritten by repair.", &s.RepairBytes},
		{"sweepTicks", "pesos_sweep_ticks_total", "Incremental sweeper ticks executed.", &s.SweepTicks},
		{"driveDeaths", "pesos_drive_deaths_total", "Detector transitions into the dead state.", &s.DriveDeaths},
		{"driveRevives", "pesos_drive_revives_total", "Dead drives revived by the detector.", &s.DriveRevives},
		{"auditDropped", "pesos_audit_dropped_total", "Audit records lost to a saturated queue.", &s.AuditDropped},
		{"ecObjects", "pesos_ec_objects_total", "Streamed objects stored erasure-coded.", &s.ECObjects},
		{"ecParityBytes", "pesos_ec_parity_bytes_total", "Parity shard bytes written (the EC capacity overhead).", &s.ECParityBytes},
		{"ecDecodes", "pesos_ec_decodes_total", "Stripes served through a parity reconstruction.", &s.ECDecodes},
		{"ecShardRepairs", "pesos_ec_shard_repairs_total", "Shards restored by repair (P2P copy or decode).", &s.ECShardRepairs},
		{"rangeRejects", "pesos_range_rejects_total", "Drive range replies refused: out of order, out of range, cut to nothing, or values not matching keys.", &s.RangeRejects},
	}
}

// registerMetrics exposes the controller's counters and gauges on the
// registry. The Stats words themselves are registered (not copies), so
// /v2/status and /metrics report from one source.
func (c *Controller) registerMetrics() {
	r := c.registry
	for _, d := range c.stats.counters() {
		r.RegisterCounter(d.series, d.help, d.word)
	}

	for _, name := range []string{"policy", "object", "meta", "residual"} {
		name := name
		for i, stat := range []string{"hits", "misses", "evictions"} {
			i, stat := i, stat
			r.CounterFunc(
				fmt.Sprintf(`pesos_cache_events_total{cache=%q,event=%q}`, name, stat),
				"Cache hits, misses and evictions by cache.",
				func() uint64 { return c.CacheStats()[name][i] })
		}
	}

	for i := range c.drives.Len() {
		r.GaugeFunc(fmt.Sprintf(`pesos_drive_read_latency_seconds{drive=%q,stat="ewma"}`, c.drives.Name(i)),
			"Observed per-drive read latency estimates.",
			func() float64 { e, _, _ := c.drives.Latency(i); return e.Seconds() })
		r.GaugeFunc(fmt.Sprintf(`pesos_drive_read_latency_seconds{drive=%q,stat="p95"}`, c.drives.Name(i)),
			"Observed per-drive read latency estimates.",
			func() float64 { _, p95, _ := c.drives.Latency(i); return p95.Seconds() })
	}
	r.GaugeFunc("pesos_drives_dead", "Drives currently marked dead by the detector.",
		func() float64 {
			mask := c.deadMask.Load()
			n := 0
			for mask != 0 {
				n += int(mask & 1)
				mask >>= 1
			}
			return float64(n)
		})
	r.GaugeFunc("pesos_sessions", "Live client sessions.", func() float64 {
		c.mu.Lock()
		n := len(c.sessions)
		c.mu.Unlock()
		return float64(n)
	})
}

// Registry exposes the controller's metrics registry (nil under
// DisableObs).
func (c *Controller) Registry() *obs.Registry { return c.registry }

// Tracer exposes the controller's tracer (nil under DisableObs).
func (c *Controller) Tracer() *obs.Tracer { return c.tracer }

// Audit exposes the sealed audit log handle (nil unless configured).
func (c *Controller) Audit() *obs.AuditLog { return c.audit }

// TraceDump looks a completed trace up by id (nil if unknown or under
// DisableObs).
func (c *Controller) TraceDump(id uint64) *obs.TraceDump {
	if c.traceStore == nil {
		return nil
	}
	t := c.traceStore.Get(id)
	if t == nil {
		return nil
	}
	return t.Dump()
}

// observeOp records one finished request on the per-op latency
// histogram (nil-safe maps and histograms under DisableObs).
func (c *Controller) observeOp(op string, d time.Duration) {
	if c.opHist == nil {
		return
	}
	h, ok := c.opHist[op]
	if !ok {
		h = c.opHist["other"]
	}
	h.Observe(d)
}

// auditDecision seals one policy verdict onto the audit log (no-op
// without one). DENYs are always recorded; ALLOW sampling happens in
// the log itself.
func (c *Controller) auditDecision(traceID uint64, client, op, key, decision, reason, policyID string) {
	if c.audit == nil {
		return
	}
	rec := obs.AuditRecord{
		Client: client, Op: op, Key: key,
		Decision: decision, Reason: reason, PolicyID: policyID,
	}
	if traceID != 0 {
		rec.TraceID = obs.FormatTraceID(traceID)
	}
	c.audit.Record(rec)
}
