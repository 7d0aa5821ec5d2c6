package core

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/obs"
)

// TestDeniedSessionObservesNothing: an object whose policy grants the
// session nothing, through every shape of read (and repair, which reads
// to rewrite): each answers `denied` or omits the key, hands back no
// metadata — no size, no hash, no policy id — and leaves its DENY in the
// audit log.
func TestDeniedSessionObservesNothing(t *testing.T) {
	auditDir := t.TempDir()
	h := newHarness(t, 3, func(c *Config) { c.Replicas = 2; c.AuditDir = auditDir })
	ctl, ctx := h.ctl, context.Background()
	pid, err := ctl.PutPolicy(ctx, "read :- sessionKeyIs(k'a11ce0')\nupdate :- sessionKeyIs(k'a11ce0')\ndelete :- sessionKeyIs(k'a11ce0')")
	if err != nil {
		t.Fatal(err)
	}
	alice, eve := ctl.Session("a11ce0"), ctl.Session("e0e0")
	if _, err := alice.Put(ctx, "secret", []byte("TOP SECRET"), PutOptions{PolicyID: pid}); err != nil {
		t.Fatal(err)
	}
	if _, err := eve.Put(ctx, "mine", []byte("eve's own"), PutOptions{}); err != nil {
		t.Fatal(err)
	}
	denials := func() int {
		ctl.audit.Sync()
		recs, err := obs.ReadAudit(auditDir, obs.DeriveAuditKey(ctl.secrets.ObjectKey[:]), 0)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for _, r := range recs {
			if r.Decision == "deny" && r.Key == "secret" && r.Client == "e0e0" {
				n++
			}
		}
		return n
	}

	// Each shape reports the code it answered with and everything else it
	// handed back about the object, printed.
	shapes := []struct {
		name string
		read func() (ErrorCode, string)
	}{
		{"Get", func() (ErrorCode, string) {
			val, meta, err := eve.Get(ctx, "secret", GetOptions{})
			return CodeFor(err), leaked(val, meta)
		}},
		{"GetStream", func() (ErrorCode, string) {
			meta, send, err := eve.GetStream(ctx, "secret", GetOptions{})
			var buf bytes.Buffer
			if send != nil {
				_ = send(&buf)
			}
			return CodeFor(err), leaked(buf.String(), meta)
		}},
		{"BatchGet", func() (ErrorCode, string) {
			res, err := eve.BatchGet(ctx, []string{"mine", "secret"}, nil)
			if err != nil || len(res) != 2 || res[0].Err != nil || res[1].Err == nil {
				t.Fatalf("batch get: %+v, %v", res, err)
			}
			r := res[1]
			return r.Err.Code, leaked(r.Value, r.Version, r.PolicyID)
		}},
		{"transaction read", func() (ErrorCode, string) {
			reads, writes, err := eve.Tx(ctx, []string{"mine", "secret"}, nil, nil)
			return CodeFor(err), leaked(reads, writes)
		}},
		{"ListVersions", func() (ErrorCode, string) {
			vers, err := eve.ListVersions(ctx, "secret", nil)
			return CodeFor(err), leaked(vers)
		}},
		{"Verify", func() (ErrorCode, string) {
			meta, err := eve.Verify(ctx, "secret", 0)
			return CodeFor(err), leaked(meta)
		}},
		{"Scan", func() (ErrorCode, string) {
			var listed []string
			opts := ScanOptions{Limit: 1}
			for {
				page, err := eve.Scan(ctx, opts)
				if err != nil {
					t.Fatal(err)
				}
				for _, e := range page.Entries {
					listed = append(listed, string(e.Key))
				}
				if opts.Token = page.NextToken; opts.Token == "" {
					break
				}
			}
			if len(listed) != 1 || listed[0] != "mine" {
				return CodeNone, fmt.Sprint(listed)
			}
			return CodeDenied, "" // omitted: the listing's way of denying
		}},
		{"Repair", func() (ErrorCode, string) {
			report, err := eve.Repair(ctx, "secret")
			return CodeFor(err), leaked(report)
		}},
	}
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			before := denials()
			code, leaked := sh.read()
			if code != CodeDenied || leaked != "" {
				t.Errorf("answered %q and handed back %s", code, leaked)
			}
			if denials() == before {
				t.Error("no DENY in the audit log")
			}
		})
	}
}

// leaked prints the non-zero values among what a refused read handed
// back; "" when there are none.
func leaked(got ...any) string {
	out := ""
	for _, v := range got {
		if v != nil && !reflect.ValueOf(v).IsZero() {
			out += fmt.Sprintf("%+v ", v)
		}
	}
	return out
}

// TestTxPlansEachReadOnce: a transaction's read is planned in phase 1
// and phase 2 loads what was planned — the policy runs once per read key.
func TestTxPlansEachReadOnce(t *testing.T) {
	h := newHarness(t, 1, nil)
	ctx := context.Background()
	s := h.ctl.Session("a11ce0")
	// currVersion needs the object's state: no verdict at bind time.
	pid, err := h.ctl.PutPolicy(ctx, "read :- sessionKeyIs(U) and currVersion(this, V) and ge(V, 0)\nupdate :- sessionKeyIs(U)")
	if err != nil {
		t.Fatal(err)
	}
	keys := []string{"a", "b", "c"}
	for _, k := range keys {
		if _, err := s.Put(ctx, k, []byte("value of "+k), PutOptions{PolicyID: pid}); err != nil {
			t.Fatal(err)
		}
	}
	before := h.ctl.stats.Snapshot()
	results, _, err := s.Tx(ctx, []string{"a", "absent", "b", "c"}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	after := h.ctl.stats.Snapshot()
	if got := after.PolicyEvals - before.PolicyEvals; got != uint64(len(keys)) {
		t.Errorf("PolicyEvals moved by %d over %d read keys", got, len(keys))
	}
	if got := after.PolicyChecks - before.PolicyChecks; got != uint64(len(keys)) {
		t.Errorf("PolicyChecks moved by %d over %d read keys", got, len(keys))
	}
	if got := after.Gets - before.Gets; got != uint64(len(keys)) {
		t.Errorf("Gets moved by %d over %d read keys", got, len(keys))
	}
	if len(results) != len(keys)+1 {
		t.Fatalf("results %+v", results)
	}
	// Results come back in request order.
	want := []BatchGetResult{
		{Key: "a", Value: []byte("value of a"), PolicyID: pid},
		{Key: "absent", Err: &WireError{Code: CodeNotFound, Message: `pesos: object not found: meta "absent"`}},
		{Key: "b", Value: []byte("value of b"), PolicyID: pid},
		{Key: "c", Value: []byte("value of c"), PolicyID: pid},
	}
	if !reflect.DeepEqual(results, want) {
		t.Errorf("results %+v, want %+v", results, want)
	}
}
