package core

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"reflect"
	"regexp"
	"strconv"
	"testing"

	"repro/internal/obs"
)

// TestEveryCounterInBothOutputs: a word of Stats is declared once and
// shows in /v2/status and in /metrics alike. Each counter is given a
// value of its own, which must then turn up in both renderings — so a
// counter added to Stats and forgotten in the table fails here, as the
// EC words and AuditDropped each used to be missing from one side.
func TestEveryCounterInBothOutputs(t *testing.T) {
	h := newHarness(t, 1, nil)
	stats := reflect.ValueOf(&h.ctl.stats).Elem()
	want := make(map[string]uint64)
	for i := 0; i < stats.NumField(); i++ {
		name := stats.Type().Field(i).Name
		if name == "DecisionHits" || name == "TrailingFlushes" { // always 0; kept for benchmark/counters.go
			continue
		}
		want[name] = uint64(770000 + i)
		stats.Field(i).Addr().Interface().(*obs.Counter).Add(want[name])
	}

	rec := httptest.NewRecorder()
	if err := (&RESTServer{ctl: h.ctl}).handleStatus(rec, nil, nil, request{}); err != nil {
		t.Fatal(err)
	}
	var status map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &status); err != nil {
		t.Fatal(err)
	}
	inStatus := make(map[uint64]bool)
	for _, v := range status {
		if f, ok := v.(float64); ok {
			inStatus[uint64(f)] = true
		}
	}

	var prom bytes.Buffer
	if err := h.ctl.Registry().WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	inMetrics := make(map[uint64]bool)
	for _, m := range regexp.MustCompile(`(?m)^pesos_\S+ (\d+)$`).FindAllStringSubmatch(prom.String(), -1) {
		n, _ := strconv.ParseUint(m[1], 10, 64)
		inMetrics[n] = true
	}
	for name, v := range want {
		if !inStatus[v] {
			t.Errorf("Stats.%s is not in the /v2/status body", name)
		}
		if !inMetrics[v] {
			t.Errorf("Stats.%s has no /metrics series", name)
		}
	}
	if regexp.MustCompile(`cache="decision"`).Match(prom.Bytes()) {
		t.Error(`/metrics still reports cache="decision", a cache that does not exist`)
	}
	if _, ok := status["trailingFlushes"]; ok || bytes.Contains(prom.Bytes(), []byte("pesos_trailing_flushes_total")) {
		t.Error("trailing flushes are still exported, for a write-back mode that does not exist")
	}
}
