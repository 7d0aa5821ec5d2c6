package main

import (
	"fmt"
	"io"
)

// Verdicts of one workload × end-to-end metric comparison.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

// worsening is by what share of the base value the new value is worse,
// negative when it is better.
func worsening(def metricDef, base, now float64) float64 {
	if base == 0 {
		return 0
	}
	if def.Better == higher {
		return (base - now) / base
	}
	return (now - base) / base
}

// judge compares one metric of two documents against its bound. A
// median worse by more than the bound is a regression. When it is
// within the bound but the runs of either side spread wider than the
// bound, "unchanged" is more than the data can say — unless every run
// of the new side reads better than every run of the base.
func judge(def metricDef, base, now Metric) string {
	if worsening(def, base.Value, now.Value) > def.Bound {
		return verdictRegressed
	}
	if base.Runs > 1 && now.Runs > 1 && max(base.spread(), now.spread()) > def.Bound {
		allBetter := now.Max < base.Min
		if def.Better == higher {
			allBetter = now.Min > base.Max
		}
		if !allBetter {
			return verdictUnresolved
		}
	}
	return verdictOK
}

// comparable refuses documents whose runs were not the same experiment.
func comparable(base, now Env) error {
	switch {
	case base.Clients != now.Clients:
		return fmt.Errorf("clients differ: %d vs %d", base.Clients, now.Clients)
	case base.Seed != now.Seed:
		return fmt.Errorf("seeds differ: %d vs %d", base.Seed, now.Seed)
	case base.Seconds != now.Seconds:
		return fmt.Errorf("run lengths differ: %gs vs %gs", base.Seconds, now.Seconds)
	case base.Trace || now.Trace:
		return fmt.Errorf("a traced run has no end-to-end metrics to compare")
	}
	for name, r := range base.OpenRate {
		if now.OpenRate[name] != r {
			return fmt.Errorf("open_rate of %s differs: %g vs %g", name, r, now.OpenRate[name])
		}
	}
	return nil
}

// compare prints, per workload × end-to-end metric, both values, the
// ratio with its base and the verdict. It reports whether anything
// regressed or failed more often.
func compare(w io.Writer, base, now *Doc) (regressed bool, err error) {
	if err := comparable(base.Env, now.Env); err != nil {
		return false, fmt.Errorf("not comparable: %w", err)
	}
	byName := make(map[string]*WorkloadResult)
	for i := range now.Workloads {
		byName[now.Workloads[i].Name] = &now.Workloads[i]
	}
	for i := range base.Workloads {
		b := &base.Workloads[i]
		n := byName[b.Name]
		if n == nil {
			fmt.Fprintf(w, "%s: missing from the new document\n", b.Name)
			regressed = true
			continue
		}
		for _, def := range endToEnd {
			bm, nm := b.Metrics[def.Name], n.Metrics[def.Name]
			v := judge(def, bm, nm)
			regressed = regressed || v == verdictRegressed
			fmt.Fprintf(w, "%-13s %-24s base %12.6g  new %12.6g %-6s new/base %.3f (base %.6g, may worsen %g%%)  %s\n",
				b.Name, def.Name, bm.Value, nm.Value, def.Unit, ratio(nm.Value, bm.Value), bm.Value, 100*def.Bound, v)
		}
		bf, nf := ratio(b.Failed, b.Attempted), ratio(n.Failed, n.Attempted)
		v := verdictOK
		if nf > bf || n.Violations > b.Violations || n.AckedWritesLost > b.AckedWritesLost {
			v, regressed = verdictRegressed, true
		}
		fmt.Fprintf(w, "%-13s %-24s base %12.6g  new %12.6g %-6s violations %d vs %d, acked writes lost %d vs %d  %s\n",
			b.Name, "failed_ops_ratio", bf, nf, "ratio", b.Violations, n.Violations, b.AckedWritesLost, n.AckedWritesLost, v)
	}
	return regressed, nil
}
