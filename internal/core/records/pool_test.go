package records

import (
	"testing"
	"time"
)

// TestLatencyEstimator pins the estimator's convergence and drift
// tracking on a deterministic sample stream.
func TestLatencyEstimator(t *testing.T) {
	var e latencyEstimator
	for i := 0; i < 200; i++ {
		e.observe(time.Millisecond)
	}
	ewma, p95, n := e.snapshot()
	if n != 200 {
		t.Fatalf("samples %d", n)
	}
	if ewma < 900*time.Microsecond || ewma > 1100*time.Microsecond {
		t.Errorf("ewma %v, want ~1ms", ewma)
	}
	if p95 < ewma || p95 > 2*time.Millisecond {
		t.Errorf("p95 %v out of range for constant 1ms stream", p95)
	}
	// Drift: the estimate follows a 10x degradation.
	for i := 0; i < 200; i++ {
		e.observe(10 * time.Millisecond)
	}
	ewma, _, _ = e.snapshot()
	if ewma < 8*time.Millisecond {
		t.Errorf("ewma %v did not track the degradation to 10ms", ewma)
	}
}
