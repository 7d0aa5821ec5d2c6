package lang

import (
	"strings"
	"testing"

	"repro/internal/policy/value"
)

func mustParse(t *testing.T, src string) *Policy {
	t.Helper()
	p, err := Parse(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	return p
}

func TestParseSimpleACL(t *testing.T) {
	p := mustParse(t, `
		read :- sessionKeyIs(k'aa') or sessionKeyIs(k'bb')
		update :- sessionKeyIs(k'aa')
		delete :- sessionKeyIs(k'cc')
	`)
	r := p.Conditions[PermRead]
	if r == nil || len(r.Clauses) != 2 {
		t.Fatalf("read clauses = %+v", r)
	}
	if len(r.Clauses[0].Preds) != 1 || r.Clauses[0].Preds[0].Name != "sessionKeyIs" {
		t.Fatalf("pred: %+v", r.Clauses[0].Preds[0])
	}
	arg := r.Clauses[0].Preds[0].Args[0]
	if arg.Kind != AVal || arg.Val.Kind != value.KPubKey || arg.Val.Key != "aa" {
		t.Fatalf("arg: %+v", arg)
	}
	if p.Conditions[PermUpdate] == nil || p.Conditions[PermDelete] == nil {
		t.Fatal("missing permissions")
	}
}

// TestParsePaperExamples parses every policy shown in the paper.
func TestParsePaperExamples(t *testing.T) {
	examples := []string{
		// §3.3 basic example.
		`read :- sessionKeyIs(Kalice)
		 update :- sessionKeyIs(Kbob)
		 delete :- sessionKeyIs(Kadmin)`,
		// §5.1 content server (destroy alias).
		`read :- sessionKeyIs(Kalice) ∨ sessionKeyIs(Kbob)
		 update :- sessionKeyIs(Kalice)
		 destroy :- sessionKeyIs(Kadmin)`,
		// §5.2 time-based with chain of trust.
		`update :- certificateSays(KCA, 'ts'(tskey))
		        ∧ certificateSays(tskey, 'time'(t))
		        ∧ ge(t, 1718400000)`,
		// §5.3 versioned store.
		`update :- objId(this, o) ∧ currVersion(o, cV) ∧ nextVersion(cV + 1)
		        ∨ objId(this, NULL) ∧ nextVersion(0)`,
		// §5.4 MAL (simplified as printed).
		`read :- objId(THIS, o) ∧ objId(LOG, l) ∧ currIndex(o, v)
		      ∧ sessionKeyIs(u) ∧ objSays(l, v, 'read'(o, v, u))
		 update :- objId(THIS, o) ∧ objId(LOG, l) ∧ sessionKeyIs(u)
		      ∧ currIndex(o, v) ∧ nextIndex(o, v + 1) ∧ objHash(o, v, cH)
		      ∧ objHash(o, v + 1, nH) ∧ objSays(l, lv, 'write'(o, v, cH, nH, u))`,
	}
	for i, src := range examples {
		if _, err := Parse(src); err != nil {
			t.Errorf("paper example %d failed: %v", i, err)
		}
	}
}

func TestParseDesignators(t *testing.T) {
	p := mustParse(t, `read :- objId(this, o) and objId(THIS, p) and objId(log, l) and objId(LOG, m) and objId(this, null)`)
	preds := p.Conditions[PermRead].Clauses[0].Preds
	wantKinds := []ArgKind{AThis, AThis, ALog, ALog, AThis}
	for i, pr := range preds {
		if pr.Args[0].Kind != wantKinds[i] {
			t.Errorf("pred %d first arg kind = %v, want %v", i, pr.Args[0].Kind, wantKinds[i])
		}
	}
	if preds[4].Args[1].Kind != ANull {
		t.Error("null not recognized")
	}
}

func TestParseExpressions(t *testing.T) {
	p := mustParse(t, `update :- nextVersion(cV + 1) or nextVersion(cV - 2) or nextVersion(V)`)
	cls := p.Conditions[PermUpdate].Clauses
	a := cls[0].Preds[0].Args[0]
	if a.Kind != AExpr || a.Var != "cV" || a.Add != 1 {
		t.Fatalf("expr +: %+v", a)
	}
	b := cls[1].Preds[0].Args[0]
	if b.Kind != AExpr || b.Add != -2 {
		t.Fatalf("expr -: %+v", b)
	}
	c := cls[2].Preds[0].Args[0]
	if c.Kind != AVar || c.Var != "V" {
		t.Fatalf("var: %+v", c)
	}
}

func TestParseLiterals(t *testing.T) {
	h := strings.Repeat("ab", 32)
	p := mustParse(t, `read :- objHash(this, 3, h'`+h+`') and eq('str', "dquote") and eq(-7, X)`)
	preds := p.Conditions[PermRead].Clauses[0].Preds
	if preds[0].Args[2].Val.Kind != value.KHash {
		t.Error("hash literal")
	}
	if preds[1].Args[0].Val.Str != "str" || preds[1].Args[1].Val.Str != "dquote" {
		t.Error("string literals")
	}
	if preds[2].Args[0].Val.Int != -7 {
		t.Error("negative int literal")
	}
}

func TestParseOperatorSpellings(t *testing.T) {
	variants := []string{
		`read :- eq(1, 1) and eq(2, 2) or eq(3, 3)`,
		`read :- eq(1, 1) && eq(2, 2) || eq(3, 3)`,
		`read :- eq(1, 1) & eq(2, 2) | eq(3, 3)`,
		`read :- eq(1, 1) ∧ eq(2, 2) ∨ eq(3, 3)`,
	}
	for _, src := range variants {
		p := mustParse(t, src)
		c := p.Conditions[PermRead]
		if len(c.Clauses) != 2 || len(c.Clauses[0].Preds) != 2 {
			t.Errorf("%q: clauses=%d preds=%d", src, len(c.Clauses), len(c.Clauses[0].Preds))
		}
	}
}

func TestParseComments(t *testing.T) {
	mustParse(t, `
		% a comment
		# another
		// and another
		read :- eq(1, 1). % trailing
	`)
}

func TestParseQuotedTupleName(t *testing.T) {
	p := mustParse(t, `read :- certificateSays(K, 'ts'(TSK))`)
	arg := p.Conditions[PermRead].Clauses[0].Preds[0].Args[1]
	if arg.Kind != ATuple || arg.TupleName != "ts" || len(arg.TupleArgs) != 1 {
		t.Fatalf("quoted tuple: %+v", arg)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		``,
		`read`,
		`read :-`,
		`bogus :- eq(1, 1)`,
		`read :- eq(1, 1`,
		`read :- eq(1 1)`,
		`read :- (1, 1)`,
		`read :- eq(1, 'unterminated)`,
		`read :- eq(1, h'zz')`,
		`read : eq(1, 1)`,
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("accepted bad policy %q", src)
		}
	}
}

func TestSyntaxErrorPosition(t *testing.T) {
	_, err := Parse("read :- eq(1, 1)\nupdate :- eq(,)")
	if err == nil {
		t.Fatal("expected error")
	}
	se, ok := err.(*SyntaxError)
	if !ok {
		t.Fatalf("error type %T", err)
	}
	if se.Pos.Line != 2 {
		t.Errorf("error line = %d, want 2", se.Pos.Line)
	}
}

func TestMergeDuplicatePermissions(t *testing.T) {
	p := mustParse(t, `
		read :- sessionKeyIs(k'aa')
		read :- sessionKeyIs(k'bb')
	`)
	if len(p.Conditions[PermRead].Clauses) != 2 {
		t.Fatal("duplicate read declarations should OR together")
	}
}

func TestPolicyStringRoundTrip(t *testing.T) {
	src := `read :- sessionKeyIs(k'aa') or eq(X + 1, 2)
update :- objId(this, O) and currVersion(O, V) and nextVersion(V + 1)`
	p1 := mustParse(t, src)
	p2 := mustParse(t, p1.String())
	if p1.String() != p2.String() {
		t.Errorf("string round trip:\n%s\nvs\n%s", p1, p2)
	}
}

func TestParseValue(t *testing.T) {
	v, err := ParseValue(`write('obj', 3, k'ff')`)
	if err != nil {
		t.Fatal(err)
	}
	if v.Kind != value.KTuple || v.Tuple.Name != "write" || len(v.Tuple.Args) != 3 {
		t.Fatalf("parsed %v", v)
	}
	if _, err := ParseValue(`f(X)`); err == nil {
		t.Error("value with variable accepted")
	}
	if _, err := ParseValue(`1 2`); err == nil {
		t.Error("trailing input accepted")
	}
}

// TestValueStringReadsBack: a value's String parses back as the same
// value, whatever its tuple names and strings hold; an identifier-named
// tuple prints unquoted.
func TestValueStringReadsBack(t *testing.T) {
	for _, v := range []value.V{
		value.Tup("", value.Int(1)),
		value.Tup("a b", value.Int(1)),
		value.Tup("Upper", value.Int(1)),
		value.Tup("and", value.Int(1)),
		value.Tup("f", value.Str("a\\"), value.Tup("g_2")),
		value.Str("a\\"),
		value.Str("a\n"),
		value.Str(`it's \n`),
	} {
		got, err := ParseValue(v.String())
		if err != nil || !got.Equal(v) {
			t.Errorf("ParseValue(%q) = %v, %v", v.String(), got, err)
		}
	}
	if s := value.Tup("f_1", value.Int(1)).String(); s != "f_1(1)" {
		t.Errorf("an identifier-named tuple prints as %s", s)
	}
}
