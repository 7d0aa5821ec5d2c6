package policy

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/authority"
	"repro/internal/policy/lang"
	"repro/internal/policy/value"
)

// The differential property: for every program and request, the
// session-residual evaluator must produce exactly the decision
// (Allowed, Clause, Reason) and error of the reference interpreter.
// This is a security store — the residual path the controller runs is
// only admissible because this holds. Steps and Skipped are exempt by
// design: pruning removes predicate evaluations.
//
// Programs are kept far below the step budget so ErrEvalBudget cannot
// fire on one path and not the other (skipping only ever removes
// steps).

// errObjects wraps an ObjectSource and fails for one object id, so
// error preservation through the residual is exercised.
type errObjects struct {
	inner ObjectSource
	bad   string
}

func (e *errObjects) Info(id string) (ObjectInfo, bool, error) {
	if id == e.bad {
		return ObjectInfo{}, false, fmt.Errorf("objects: simulated drive error for %q", id)
	}
	return e.inner.Info(id)
}

func (e *errObjects) InfoAt(id string, version int64) (ObjectInfo, bool, error) {
	if id == e.bad {
		return ObjectInfo{}, false, fmt.Errorf("objects: simulated drive error for %q", id)
	}
	return e.inner.InfoAt(id, version)
}

func (e *errObjects) Content(id string, version int64) ([]byte, bool, error) {
	if id == e.bad {
		return nil, false, fmt.Errorf("objects: simulated drive error for %q", id)
	}
	return e.inner.Content(id, version)
}

// progGen builds random compiled programs directly, covering argument
// forms (tuples, slot arithmetic, designators, null) the source
// grammar rarely combines.
type progGen struct {
	rng    *rand.Rand
	consts []value.V
}

const genSlots = 4

func newProgGen(rng *rand.Rand, sessions, authorities []string) *progGen {
	g := &progGen{rng: rng}
	g.consts = []value.V{
		value.Int(-2), value.Int(0), value.Int(1), value.Int(2), value.Int(5),
		value.Str("obj-a"), value.Str("obj-b"), value.Str("err-obj"), value.Str("x"), value.Str(""),
		value.Hash([32]byte{1, 2, 3}),
		value.Tup("f", value.Int(1)),
		value.Tup("time", value.Int(100)),
	}
	for _, s := range sessions {
		g.consts = append(g.consts, value.PubKey(s))
	}
	for _, a := range authorities {
		g.consts = append(g.consts, value.PubKey(a))
	}
	return g
}

func (g *progGen) arg(depth int) CArg {
	switch n := g.rng.Intn(12); {
	case n < 4:
		return CArg{Kind: CConst, Const: uint32(g.rng.Intn(len(g.consts)))}
	case n < 7:
		return CArg{Kind: CVar, Slot: uint32(g.rng.Intn(genSlots))}
	case n < 8:
		return CArg{Kind: CExpr, Slot: uint32(g.rng.Intn(genSlots)), Add: int64(g.rng.Intn(4) - 1)}
	case n < 9 && depth == 0:
		na := 1 + g.rng.Intn(2)
		a := CArg{Kind: CTuple, TupName: []string{"f", "g", "time"}[g.rng.Intn(3)]}
		for i := 0; i < na; i++ {
			a.TupArgs = append(a.TupArgs, g.arg(depth+1))
		}
		return a
	case n < 10:
		return CArg{Kind: CThis}
	case n < 11:
		return CArg{Kind: CLog}
	default:
		return CArg{Kind: CNull}
	}
}

func (g *progGen) pred() CPred {
	ids := []PredID{
		PEq, PEq, PEq, PLe, PLt, PGe, PGt,
		PSessionKeyIs, PSessionKeyIs,
		PObjID, PCurrVersion, PNextVersion,
		PObjSize, PObjPolicy, PObjHash, PObjSays,
		PCertificateSays, PCertificateSays,
	}
	id := ids[g.rng.Intn(len(ids))]
	var arity int
	switch id {
	case PSessionKeyIs:
		arity = 1
	case PEq, PLe, PLt, PGe, PGt, PObjID, PCurrVersion:
		arity = 2
	case PNextVersion:
		arity = 1 + g.rng.Intn(2)
	case PObjSize, PObjPolicy, PObjHash, PObjSays:
		arity = 3
	case PCertificateSays:
		arity = 2 + g.rng.Intn(2)
	}
	pr := CPred{ID: id}
	for i := 0; i < arity; i++ {
		pr.Args = append(pr.Args, g.arg(0))
	}
	return pr
}

func (g *progGen) program() *Program {
	p := &Program{Consts: g.consts}
	for perm := 0; perm < int(lang.NumPerms); perm++ {
		nClauses := g.rng.Intn(5)
		for c := 0; c < nClauses; c++ {
			cl := CClause{Slots: genSlots}
			nPreds := 1 + g.rng.Intn(4)
			for i := 0; i < nPreds; i++ {
				cl.Preds = append(cl.Preds, g.pred())
			}
			p.Perms[perm] = append(p.Perms[perm], cl)
		}
	}
	return p
}

func TestDifferentialFastPaths(t *testing.T) {
	authA, err := authority.New("authA")
	if err != nil {
		t.Fatal(err)
	}
	authB, err := authority.New("authB")
	if err != nil {
		t.Fatal(err)
	}
	now := time.Unix(1_700_000_100, 0)
	certFresh, err := authA.Sign(value.Tup("time", value.Int(100)), now, [32]byte{})
	if err != nil {
		t.Fatal(err)
	}
	certF, err := authB.Sign(value.Tup("f", value.Int(1)), now.Add(-10*time.Second), [32]byte{})
	if err != nil {
		t.Fatal(err)
	}
	certStale, err := authA.Sign(value.Tup("time", value.Int(99)), now.Add(-time.Hour), [32]byte{})
	if err != nil {
		t.Fatal(err)
	}
	certSets := [][]*authority.Certificate{
		nil,
		{certFresh},
		{certFresh, certF, certStale},
	}

	sessions := []string{"fp-alice", "fp-bob"}
	objIDs := []string{"obj-a", "obj-b", "missing", "err-obj"}

	base := newFakeObjects()
	base.add("obj-a", "'hello'")
	base.add("obj-a", "f(1)")
	base.add("obj-b", "not a value")
	objs := &errObjects{inner: base, bad: "err-obj"}

	rng := rand.New(rand.NewSource(42))
	gen := newProgGen(rng, sessions, []string{authA.Fingerprint(), authB.Fingerprint()})

	programs := 400
	if testing.Short() {
		programs = 80
	}
	for pi := 0; pi < programs; pi++ {
		prog := gen.program()
		for ri := 0; ri < 6; ri++ {
			req := &Request{
				Op:           lang.Perm(rng.Intn(int(lang.NumPerms))),
				ObjectID:     objIDs[rng.Intn(len(objIDs))],
				LogID:        "log-a",
				SessionKey:   sessions[rng.Intn(len(sessions))],
				Certificates: certSets[rng.Intn(len(certSets))],
				Now:          now,
			}
			if rng.Intn(2) == 0 {
				req.HasNextVersion = true
				req.NextVersion = int64(rng.Intn(4))
			}
			checkDifferential(t, prog, req, objs, pi, ri)
		}
	}
}

func checkDifferential(t *testing.T, prog *Program, req *Request, objs ObjectSource, pi, ri int) {
	t.Helper()
	base, baseErr := Eval(prog, req, objs)
	res := PartialEval(prog, req.Op, req.SessionKey)
	part, partErr := res.Eval(req, objs)

	describe := func() string {
		src, _ := prog.Source()
		return fmt.Sprintf("program %d request %d\nop=%s obj=%s session=%s next=%v/%d certs=%d\nsource:\n%s",
			pi, ri, req.Op, req.ObjectID, req.SessionKey,
			req.HasNextVersion, req.NextVersion, len(req.Certificates), src)
	}
	if (baseErr == nil) != (partErr == nil) ||
		(baseErr != nil && baseErr.Error() != partErr.Error()) {
		t.Fatalf("residual error mismatch: base=%v got=%v\n%s", baseErr, partErr, describe())
	}
	if baseErr != nil {
		return
	}
	if part.Allowed != base.Allowed || part.Clause != base.Clause || part.Reason != base.Reason {
		t.Fatalf("residual decision mismatch: base=%+v got=%+v\n%s", base, part, describe())
	}
}

// TestDifferentialSourcePolicies runs the same property over
// realistic handwritten policies (the paper's §5 use cases).
func TestDifferentialSourcePolicies(t *testing.T) {
	now := time.Unix(1_700_000_100, 0)
	srcs := []string{
		"read :- sessionKeyIs(k'aa') or sessionKeyIs(k'bb')\nupdate :- sessionKeyIs(k'aa')",
		"read :- sessionKeyIs(U)\nupdate :- sessionKeyIs(k'aa') and currVersion(this, V) and nextVersion(V + 1)",
		"read :- eq(1, 2) or sessionKeyIs(k'bb')\nupdate :- objId(this, 'obj-a') and sessionKeyIs(U)",
		"read :- currVersion(this, V) and ge(V, 1)\ndelete :- sessionKeyIs(k'aa') and objId(this, 'obj-b')",
		"update :- objId(this, null) and nextVersion(0)\nread :- sessionKeyIs(U) and le(0, 1)",
	}
	base := newFakeObjects()
	base.add("obj-a", "'v0'")
	base.add("obj-a", "'v1'")
	objs := &errObjects{inner: base, bad: "err-obj"}
	rng := rand.New(rand.NewSource(7))
	for si, src := range srcs {
		prog := mustCompile(t, src)
		for ri := 0; ri < 40; ri++ {
			req := &Request{
				Op:         lang.Perm(rng.Intn(int(lang.NumPerms))),
				ObjectID:   []string{"obj-a", "obj-b", "err-obj"}[rng.Intn(3)],
				LogID:      "log-a",
				SessionKey: []string{"aa", "bb", "cc"}[rng.Intn(3)],
				Now:        now,
			}
			if rng.Intn(2) == 0 {
				req.HasNextVersion = true
				req.NextVersion = int64(rng.Intn(3))
			}
			checkDifferential(t, prog, req, objs, si, ri)
		}
	}
}
