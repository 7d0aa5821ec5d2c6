package policy

import (
	"strings"
	"testing"
	"time"

	"repro/internal/policy/lang"
)

func TestIndexGuardBuckets(t *testing.T) {
	prog := mustCompile(t,
		"read :- sessionKeyIs(k'aa') and currVersion(this, V) or "+
			"sessionKeyIs(k'bb') or "+
			"objId(this, 'obj-a') and sessionKeyIs(U) or "+
			"eq(1, 2) or "+
			"sessionKeyIs(U) and ge(V, 0) and currVersion(this, V)")
	// Clause 4's ge(V, 0) precedes the binding of V: an ordering
	// predicate over an unground arg is a barrier, so the clause is
	// wild, not guarded.
	want := []clauseGuard{
		{hasSession: true, session: "aa"},
		{hasSession: true, session: "bb"},
		{hasObject: true, object: "obj-a"},
		{dead: true},
		{},
	}
	for i, cl := range prog.Perms[lang.PermRead] {
		if got := scanGuard(prog, cl.Preds, make([]bool, cl.Slots)); got != want[i] {
			t.Errorf("clause %d guard = %+v, want %+v", i, got, want[i])
		}
	}
}

func TestIndexSkipsClauses(t *testing.T) {
	prog := mustCompile(t,
		"read :- sessionKeyIs(k'aa') and currVersion(this, V) or "+
			"sessionKeyIs(k'bb') or "+
			"objId(this, 'obj-a') and currVersion(this, V) or "+
			"sessionKeyIs(U) and currVersion(this, V) and ge(V, 0)")
	objs := newFakeObjects()
	objs.add("obj-b", "x")
	// Session cc on obj-b: clauses 0 and 1 are killed at bind time,
	// clause 2's object guard prunes it per request, clause 3 grants.
	req := &Request{Op: lang.PermRead, ObjectID: "obj-b", SessionKey: "cc", Now: time.Unix(0, 0)}
	d, err := PartialEval(prog, lang.PermRead, "cc").Eval(req, objs)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Allowed || d.Clause != 3 || d.Skipped != 3 {
		t.Fatalf("decision = %+v, want allow via clause 3 with 3 clauses skipped", d)
	}
	// No stored object: the granting clause's currVersion fails, and
	// the deny reports the three clauses that were never visited.
	req.ObjectID = "missing"
	d, err = PartialEval(prog, lang.PermRead, "cc").Eval(req, objs)
	if err != nil {
		t.Fatal(err)
	}
	if d.Allowed || d.Skipped != 3 {
		t.Fatalf("deny decision = %+v, want deny with 3 of 4 clauses skipped", d)
	}
	if d.Reason != "no read clause satisfied" {
		t.Fatalf("reason = %q", d.Reason)
	}
}

func TestPartialDecidesStaticPolicies(t *testing.T) {
	prog := mustCompile(t, "read :- sessionKeyIs(k'aa') or sessionKeyIs(k'bb')")
	if d, ok := PartialEval(prog, lang.PermRead, "bb").Decided(); !ok || !d.Allowed || d.Clause != 1 {
		t.Fatalf("residual for bb: decided=%v decision=%+v, want immediate allow via clause 1", ok, d)
	}
	if d, ok := PartialEval(prog, lang.PermRead, "zz").Decided(); !ok || d.Allowed {
		t.Fatalf("residual for zz: decided=%v decision=%+v, want immediate deny", ok, d)
	}
	if d, ok := PartialEval(prog, lang.PermUpdate, "aa").Decided(); !ok || d.Allowed ||
		d.Reason != "policy grants no update permission" {
		t.Fatalf("residual for absent perm: decided=%v decision=%+v", ok, d)
	}
}

func TestPartialResidualShape(t *testing.T) {
	prog := mustCompile(t,
		"update :- sessionKeyIs(k'aa') and currVersion(this, V) and nextVersion(V + 1) or "+
			"sessionKeyIs(k'bb')")
	r := PartialEval(prog, lang.PermUpdate, "aa")
	if _, ok := r.Decided(); ok {
		t.Fatal("versioned clause must stay residual")
	}
	// The bb clause is killed for session aa; only the versioned
	// clause survives, with sessionKeyIs folded away.
	if r.Clauses() != 1 {
		t.Fatalf("Clauses() = %d, want 1", r.Clauses())
	}
	if n := len(r.clauses[0].preds); n != 2 {
		t.Fatalf("residual predicates = %d, want 2 (currVersion, nextVersion)", n)
	}
	objs := newFakeObjects()
	objs.add("o", "x")
	objs.add("o", "y")
	req := &Request{Op: lang.PermUpdate, ObjectID: "o", SessionKey: "aa",
		HasNextVersion: true, NextVersion: 2, Now: time.Unix(0, 0)}
	d, err := r.Eval(req, objs)
	if err != nil || !d.Allowed || d.Clause != 0 {
		t.Fatalf("residual eval = %+v, %v; want allow via clause 0", d, err)
	}
	req.NextVersion = 5
	if d, err = r.Eval(req, objs); err != nil || d.Allowed {
		t.Fatalf("stale next version: %+v, %v; want deny", d, err)
	}
}

// TestPartialPreservesErrors pins the truncation rule: a statically
// false predicate after a fallible one must not suppress the runtime
// error the baseline reports.
func TestPartialPreservesErrors(t *testing.T) {
	prog := mustCompile(t, "read :- currVersion(this, V) and eq(1, 2)")
	objs := &errObjects{inner: newFakeObjects(), bad: "err-obj"}
	req := &Request{Op: lang.PermRead, ObjectID: "err-obj", SessionKey: "aa", Now: time.Unix(0, 0)}
	_, baseErr := Eval(prog, req, objs)
	if baseErr == nil {
		t.Fatal("baseline should propagate the object-source error")
	}
	r := PartialEval(prog, lang.PermRead, "aa")
	if _, ok := r.Decided(); ok {
		t.Fatal("clause with fallible prefix must not be decided statically")
	}
	if _, err := r.Eval(req, objs); err == nil || err.Error() != baseErr.Error() {
		t.Fatalf("residual error = %v, want %v", err, baseErr)
	}
	// With the false predicate first the clause dies before anything
	// fallible: immediate deny, no error even for the bad object.
	prog2 := mustCompile(t, "read :- eq(1, 2) and currVersion(this, V)")
	r2 := PartialEval(prog2, lang.PermRead, "aa")
	d, ok := r2.Decided()
	if !ok || d.Allowed {
		t.Fatalf("decided = %v %+v, want immediate deny", ok, d)
	}
}

func TestExplainOutput(t *testing.T) {
	prog := mustCompile(t,
		"read :- sessionKeyIs(k'aa') and currVersion(this, V) or eq(1, 2)")
	idx := ExplainIndex(prog)
	if !strings.Contains(idx, "session=aa") || !strings.Contains(idx, "dead") {
		t.Fatalf("ExplainIndex output missing expected tags:\n%s", idx)
	}
	res := PartialEval(prog, lang.PermRead, "aa").Explain()
	if !strings.Contains(res, "currVersion") || !strings.Contains(res, "1 of 2") {
		t.Fatalf("Residual.Explain output unexpected:\n%s", res)
	}
	den := PartialEval(prog, lang.PermRead, "zz").Explain()
	if !strings.Contains(den, "DENY") {
		t.Fatalf("decided deny not rendered:\n%s", den)
	}
}

func TestEvalSteadyStateAllocs(t *testing.T) {
	prog := mustCompile(t,
		"update :- sessionKeyIs(k'aa') and currVersion(this, V) and nextVersion(V + 1)")
	objs := newFakeObjects()
	objs.add("o", "x")
	req := &Request{Op: lang.PermUpdate, ObjectID: "o", SessionKey: "aa",
		HasNextVersion: true, NextVersion: 1, Now: time.Unix(0, 0)}
	r := PartialEval(prog, lang.PermUpdate, "aa")
	if _, err := r.Eval(req, objs); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(200, func() {
		if _, err := r.Eval(req, objs); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 0 {
		t.Fatalf("residual eval allocates %.1f allocs/op, want 0", avg)
	}
}
