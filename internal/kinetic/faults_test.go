package kinetic

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/kinetic/wire"
)

// seedRecord puts one record under the factory account.
func seedRecord(t *testing.T, d *Drive, key, val string) {
	t.Helper()
	resp := d.Handle(signedReq(&wire.Message{
		Type: wire.TPut, Key: []byte(key), Value: []byte(val), NewVersion: []byte("1"), Force: true,
	}))
	if resp.Status != wire.StatusOK {
		t.Fatalf("seed put: %v %s", resp.Status, resp.StatusMsg)
	}
}

// TestFaultsErrorEveryNDeterministic drives the same request sequence
// through two independently-built drives with the same fault config
// and requires the identical failure positions: rate faults are
// counter-driven, never random.
func TestFaultsErrorEveryNDeterministic(t *testing.T) {
	run := func() []int {
		d := NewDrive(Config{Name: "det"})
		seedRecord(t, d, "k", "v")
		d.SetFaults(Faults{ErrorEveryN: 3})
		var failed []int
		for i := 0; i < 30; i++ {
			resp := d.Handle(signedReq(&wire.Message{Type: wire.TGet, Key: []byte("k")}))
			if resp.Status == wire.StatusInternalError {
				failed = append(failed, i)
			} else if resp.Status != wire.StatusOK {
				t.Fatalf("req %d: unexpected status %v", i, resp.Status)
			}
		}
		if got := d.FaultStats().Errors; got != uint64(len(failed)) {
			t.Fatalf("stats count %d, observed %d failures", got, len(failed))
		}
		return failed
	}
	a, b := run(), run()
	if len(a) != 10 {
		t.Fatalf("ErrorEveryN=3 over 30 requests: got %d failures, want 10 (%v)", len(a), a)
	}
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatalf("two identical runs diverged: %v vs %v", a, b)
	}
	// Counters reset with the configuration: reinstalling the same
	// faults restarts the schedule from position zero.
	d := NewDrive(Config{Name: "det"})
	seedRecord(t, d, "k", "v")
	d.SetFaults(Faults{ErrorEveryN: 3})
	if resp := d.Handle(signedReq(&wire.Message{Type: wire.TGet, Key: []byte("k")})); resp.Status != wire.StatusOK {
		t.Fatalf("first request after install should pass, got %v", resp.Status)
	}
}

// TestFaultsBlackholeAndClear verifies the crash-stop fault: Handle
// returns nil (caller drops the connection), the drop is counted, and
// both ClearFaults and a zero Faults document restore the drive.
func TestFaultsBlackholeAndClear(t *testing.T) {
	d := NewDrive(Config{Name: "bh"})
	seedRecord(t, d, "k", "v")

	d.SetFaults(Faults{Blackhole: true})
	if resp := d.Handle(signedReq(&wire.Message{Type: wire.TGet, Key: []byte("k")})); resp != nil {
		t.Fatalf("blackholed drive answered: %+v", resp)
	}
	if st := d.FaultStats(); st.Dropped != 1 {
		t.Fatalf("dropped counter = %d, want 1", st.Dropped)
	}
	d.ClearFaults()
	if resp := d.Handle(signedReq(&wire.Message{Type: wire.TGet, Key: []byte("k")})); resp == nil || resp.Status != wire.StatusOK {
		t.Fatalf("drive did not recover after ClearFaults: %+v", resp)
	}

	// SetFaults with the zero value is equivalent to ClearFaults: the
	// steady-state path must stay a single atomic load.
	d.SetFaults(Faults{Blackhole: true})
	d.SetFaults(Faults{})
	if got := d.Faults(); got.active() {
		t.Fatalf("zero Faults did not clear injection: %+v", got)
	}
	if resp := d.Handle(signedReq(&wire.Message{Type: wire.TGet, Key: []byte("k")})); resp == nil || resp.Status != wire.StatusOK {
		t.Fatalf("drive did not recover after zero SetFaults: %+v", resp)
	}
}

// TestFaultsCorruptOnReadLeavesStoreIntact checks that CorruptEveryN
// damages only the in-flight response copy: the very next clean read
// returns the original bytes.
func TestFaultsCorruptOnReadLeavesStoreIntact(t *testing.T) {
	d := NewDrive(Config{Name: "cor"})
	orig := "payload-payload-payload"
	seedRecord(t, d, "k", orig)

	d.SetFaults(Faults{CorruptEveryN: 1})
	resp := d.Handle(signedReq(&wire.Message{Type: wire.TGet, Key: []byte("k")}))
	if resp.Status != wire.StatusOK {
		t.Fatalf("corrupted get status: %v", resp.Status)
	}
	if bytes.Equal(resp.Value, []byte(orig)) {
		t.Fatal("CorruptEveryN=1 returned pristine bytes")
	}
	if st := d.FaultStats(); st.Corrupted != 1 {
		t.Fatalf("corrupted counter = %d, want 1", st.Corrupted)
	}

	d.ClearFaults()
	resp = d.Handle(signedReq(&wire.Message{Type: wire.TGet, Key: []byte("k")}))
	if resp.Status != wire.StatusOK || !bytes.Equal(resp.Value, []byte(orig)) {
		t.Fatalf("store was damaged by read corruption: %q", resp.Value)
	}
}

// TestFaultsRangeLies pins each dishonest range reply: what it looks
// like on the wire, that it is counted, and that the store is untouched
// (the next honest range answers as before).
func TestFaultsRangeLies(t *testing.T) {
	d := NewDrive(Config{Name: "lie"})
	for _, k := range []string{"a", "b", "c", "d"} {
		seedRecord(t, d, k, "v-"+k)
	}
	ask := func(start string) *wire.Message {
		resp := d.Handle(signedReq(&wire.Message{
			Type: wire.TGetKeyRange, StartKey: []byte(start), EndKey: []byte("c"), KeyInclusive: true, WithValues: true,
		}))
		if resp.Status != wire.StatusOK || len(resp.Values) != len(resp.Keys) {
			t.Fatalf("range: %v, %d keys %d values", resp.Status, len(resp.Keys), len(resp.Values))
		}
		return resp
	}
	keys := func(m *wire.Message) string { return string(bytes.Join(m.Keys, []byte(","))) }
	for _, c := range []struct {
		lie       RangeLie
		first     string // reply to [a, c]
		second    string // reply to [b, c]
		truncated bool
	}{
		{RangeReorder, "c,b,a", "c,b", false},
		{RangeOvershoot, "a,b,c,c\xff", "b,c,c\xff", false},
		{RangeStuck, "a,b,c", "a,b,c", true},
		{RangeCutToNothing, "", "", true},
	} {
		d.SetFaults(Faults{RangeLie: c.lie})
		first, second := ask("a"), ask("b")
		if keys(first) != c.first || keys(second) != c.second || first.Truncated != c.truncated || second.Truncated != c.truncated {
			t.Errorf("%s: replies %q (cut %t) and %q (cut %t), want %q and %q (cut %t)", c.lie,
				keys(first), first.Truncated, keys(second), second.Truncated, c.first, c.second, c.truncated)
		}
		if st := d.FaultStats(); st.RangeLies != 2 {
			t.Errorf("%s: %d lies counted, want 2", c.lie, st.RangeLies)
		}
		d.ClearFaults()
		if honest := ask("a"); keys(honest) != "a,b,c" || honest.Truncated || string(honest.Values[0]) != "v-a" {
			t.Errorf("%s: the honest reply afterwards is %q (cut %t)", c.lie, keys(honest), honest.Truncated)
		}
	}
}
