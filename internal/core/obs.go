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
	c.registry = c.cfg.Registry
	if c.registry == nil {
		c.registry = obs.NewRegistry()
	}
	c.traceStore = obs.NewTraceStore(0) // the ring behind GET /v1/trace/{id}, at obs's default size
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
		key := c.cfg.AuditKey
		if key == ([32]byte{}) {
			key = obs.DeriveAuditKey(c.secrets.ObjectKey[:])
		}
		a, err := obs.OpenAudit(obs.AuditConfig{
			Dir:         c.cfg.AuditDir,
			Key:         key,
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

// registerMetrics exposes the controller's counters and gauges on the
// registry. The Stats words themselves are registered (not copies), so
// /v1/status and /metrics report from one source.
func (c *Controller) registerMetrics() {
	r := c.registry
	type cm struct {
		name string
		help string
		ctr  *obs.Counter
	}
	for _, m := range []cm{
		{"pesos_ops_total{op=\"put\"}", "Object writes.", &c.stats.Puts},
		{"pesos_ops_total{op=\"get\"}", "Object reads.", &c.stats.Gets},
		{"pesos_ops_total{op=\"delete\"}", "Object deletes.", &c.stats.Deletes},
		{"pesos_scan_pages_total", "v2 scan pages served.", &c.stats.Scans},
		{"pesos_scan_filtered_total", "Scan entries suppressed by policy.", &c.stats.ScanFiltered},
		{"pesos_batch_ops_total", "Operations carried by v2 batch requests.", &c.stats.BatchOps},
		{"pesos_streams_total", "Chunked streamed reads and writes.", &c.stats.Streams},
		{"pesos_policy_checks_total", "Policy checks performed.", &c.stats.PolicyChecks},
		{"pesos_policy_denials_total", "Policy checks that denied the request.", &c.stats.PolicyDenials},
		{"pesos_policy_evals_total", "Clause-machine runs (checks not decided statically).", &c.stats.PolicyEvals},
		{"pesos_policy_residual_hits_total", "Checks served by a cached or page-reused residual.", &c.stats.ResidualHits},
		{"pesos_policy_index_skipped_clauses_total", "Clauses pruned by session residuals (bind-time kills and object guards).", &c.stats.IndexSkippedClauses},
		{"pesos_tx_commits_total", "Transactions committed.", &c.stats.TxCommits},
		{"pesos_tx_aborts_total", "Transactions aborted.", &c.stats.TxAborts},
		{"pesos_read_hedges_total", "Hedge requests fired by the read engine.", &c.stats.ReadHedges},
		{"pesos_coalesced_reads_total", "Cache misses served by another miss's flight.", &c.stats.CoalescedReads},
		{"pesos_wrong_shard_total", "Operations redirected to another shard.", &c.stats.WrongShard},
		{"pesos_group_batches_total", "Drive batches shipped by the group scheduler.", &c.stats.GroupBatches},
		{"pesos_grouped_writes_total", "Write groups that shared a merged drive batch.", &c.stats.GroupedWrites},
		{"pesos_trailing_flushes_total", "Idle destages of write-back batches.", &c.stats.TrailingFlushes},
		{"pesos_read_bytes_total", "Payload bytes served to readers.", &c.stats.ReadBytes},
		{"pesos_write_bytes_total", "Payload bytes accepted from writers.", &c.stats.WriteBytes},
		{"pesos_repairs_total", "Objects re-replicated by repair.", &c.stats.Repairs},
		{"pesos_repair_sweeps_total", "Full anti-entropy keyspace passes completed.", &c.stats.RepairSweeps},
		{"pesos_repair_bytes_total", "Record bytes rewritten by repair.", &c.stats.RepairBytes},
		{"pesos_sweep_ticks_total", "Incremental sweeper ticks executed.", &c.stats.SweepTicks},
		{"pesos_drive_deaths_total", "Detector transitions into the dead state.", &c.stats.DriveDeaths},
		{"pesos_drive_revives_total", "Dead drives revived by the detector.", &c.stats.DriveRevives},
		{"pesos_audit_dropped_total", "Audit records lost to a saturated queue.", &c.stats.AuditDropped},
	} {
		r.RegisterCounter(m.name, m.help, m.ctr)
	}

	for _, name := range []string{"policy", "object", "meta", "decision", "residual"} {
		name := name
		for i, stat := range []string{"hits", "misses", "evictions"} {
			i, stat := i, stat
			r.CounterFunc(
				fmt.Sprintf(`pesos_cache_events_total{cache=%q,event=%q}`, name, stat),
				"Cache hits, misses and evictions by cache.",
				func() uint64 {
					if s, ok := c.CacheStats()[name]; ok {
						return s[i]
					}
					return 0
				})
		}
	}

	for i := range c.drives {
		p := c.drives[i]
		r.GaugeFunc(fmt.Sprintf(`pesos_drive_read_latency_seconds{drive=%q,stat="ewma"}`, p.name),
			"Observed per-drive read latency estimates.",
			func() float64 { e, _, _ := p.latency(); return e.Seconds() })
		r.GaugeFunc(fmt.Sprintf(`pesos_drive_read_latency_seconds{drive=%q,stat="p95"}`, p.name),
			"Observed per-drive read latency estimates.",
			func() float64 { _, p95, _ := p.latency(); return p95.Seconds() })
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
