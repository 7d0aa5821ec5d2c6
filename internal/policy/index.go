package policy

import (
	"fmt"
	"strings"

	"repro/internal/policy/lang"
	"repro/internal/policy/value"
)

// Clause guards (modeled on OPA's topdown rule index): at most one
// static guard per clause is extracted from the clause's *error-free
// prefix* — the run of leading predicates that can never return an
// evaluation error. Partial evaluation (partial.go) scans each
// session-specialized clause for them, so a request visits only the
// residual clauses whose guards can match it.
//
// Soundness: skipping a clause is only legal when evaluating it would
// be guaranteed to yield (false, nil). A guard extracted from the
// error-free prefix gives exactly that guarantee: when the guard
// mismatches the request, evaluation fails at the guard predicate, and
// nothing before it can error. Predicates that may error (eq over two
// unbound sides, ordering over unground args, certificateSays with a
// bad freshness term) and predicates that consult the object source
// are barriers — the guard scan stops there, keeping whatever guards
// it found so far.
//
// The same analysis proves some clauses dead: a never-erring prefix
// that reaches a statically false predicate (eq of unequal constants,
// sessionKeyIs of a non-key literal, objId of a conflicting constant)
// can never succeed or error, so the clause is dropped entirely.

// clauseGuard is the static admission test for one clause.
type clauseGuard struct {
	// dead marks a clause that can never succeed and never error.
	dead bool
	// hasSession/session: clause requires sessionKeyIs(session).
	hasSession bool
	session    string
	// hasObject/object: clause requires the accessed object id.
	hasObject bool
	object    string
}

// argClass classifies a compiled argument for the error-free prefix
// analysis.
type argClass int

const (
	// argUnres: may fail to resolve at runtime (unbound variable,
	// slot arithmetic, pattern with unbound parts).
	argUnres argClass = iota
	// argKnown: resolves to a statically known constant value.
	argKnown
	// argRes: guaranteed to resolve, but to a request-dependent value
	// (this, log, a bound variable).
	argRes
	// argNever: null — never resolves and never unifies.
	argNever
)

// classifyArg returns the argument's class and, for argKnown, its
// value. bound tracks slots that are definitely bound on the clause's
// success path at this point of the scan.
func classifyArg(p *Program, a CArg, bound []bool) (argClass, value.V) {
	switch a.Kind {
	case CConst:
		return argKnown, p.Consts[a.Const]
	case CThis, CLog:
		return argRes, value.V{}
	case CVar:
		if bound[a.Slot] {
			return argRes, value.V{}
		}
		return argUnres, value.V{}
	case CExpr:
		// Even a bound slot may hold a non-integer and fail to
		// resolve; stay conservative.
		return argUnres, value.V{}
	case CTuple:
		cls := argKnown
		vals := make([]value.V, len(a.TupArgs))
		for i, t := range a.TupArgs {
			c, v := classifyArg(p, t, bound)
			switch c {
			case argKnown:
				vals[i] = v
			case argRes:
				cls = argRes
			default:
				return argUnres, value.V{}
			}
		}
		if cls == argKnown {
			return argKnown, value.Tup(a.TupName, vals...)
		}
		return argRes, value.V{}
	case CNull:
		return argNever, value.V{}
	default:
		return argUnres, value.V{}
	}
}

// markBoundVars marks every variable slot in a pattern as bound — the
// effect of a successful unification against the pattern.
func markBoundVars(a CArg, bound []bool) {
	switch a.Kind {
	case CVar, CExpr:
		bound[a.Slot] = true
	case CTuple:
		for _, t := range a.TupArgs {
			markBoundVars(t, bound)
		}
	}
}

// relHolds applies an ordering predicate to a Compare result.
func relHolds(id PredID, c int) bool {
	switch id {
	case PLe:
		return c <= 0
	case PLt:
		return c < 0
	case PGe:
		return c >= 0
	case PGt:
		return c > 0
	}
	return false
}

// scanGuard walks a clause's error-free prefix extracting guards.
// bound carries slots already known bound (pre-bound residual slots;
// all false for a fresh clause). The scan stops at the first barrier,
// returning the guards accumulated so far.
func scanGuard(p *Program, preds []CPred, bound []bool) clauseGuard {
	var g clauseGuard
	for _, pr := range preds {
		switch pr.ID {
		case PSessionKeyIs:
			a := pr.Args[0]
			switch a.Kind {
			case CConst:
				v := p.Consts[a.Const]
				if v.Kind != value.KPubKey || (g.hasSession && g.session != v.Key) {
					g.dead = true
					return g
				}
				g.hasSession, g.session = true, v.Key
			case CVar:
				// Unbound: binds the session key. Bound: a runtime
				// equality check with no static information.
				bound[a.Slot] = true
			default:
				// unify(expr/tuple/this/log/null, pubkey) is always
				// false: the clause can never succeed.
				g.dead = true
				return g
			}
		case PEq:
			if barrier := scanEq(p, pr, bound, &g); barrier || g.dead {
				return g
			}
		case PLe, PLt, PGe, PGt:
			ca, va := classifyArg(p, pr.Args[0], bound)
			cb, vb := classifyArg(p, pr.Args[1], bound)
			if ca == argUnres || ca == argNever || cb == argUnres || cb == argNever {
				// Ordering predicates error on unground arguments.
				return g
			}
			if ca == argKnown && cb == argKnown {
				c, err := va.Compare(vb)
				if err != nil || !relHolds(pr.ID, c) {
					// Incomparable constants fail the clause cleanly.
					g.dead = true
					return g
				}
			}
		case PObjID:
			if barrier := scanObjID(p, pr, bound, &g); barrier || g.dead {
				return g
			}
		case PNextVersion:
			arg := pr.Args[len(pr.Args)-1]
			switch arg.Kind {
			case CVar, CExpr:
				bound[arg.Slot] = true
			case CConst:
				if p.Consts[arg.Const].Kind != value.KInt {
					// Never unifies with the integer next version.
					g.dead = true
					return g
				}
			default:
				// tuple/this/log/null never unify with an integer.
				g.dead = true
				return g
			}
		default:
			// certificateSays and the object-source predicates can
			// error or consult external state: barrier.
			return g
		}
	}
	return g
}

// scanEq analyzes one eq predicate. Returns true when the predicate is
// a barrier (may error at runtime); may set g.dead or record guards.
func scanEq(p *Program, pr CPred, bound []bool, g *clauseGuard) bool {
	a0, a1 := pr.Args[0], pr.Args[1]
	c0, v0 := classifyArg(p, a0, bound)
	c1, v1 := classifyArg(p, a1, bound)
	if c0 == argNever || c1 == argNever {
		other := c0
		if c0 == argNever {
			other = c1
		}
		if other == argKnown || other == argRes {
			// unify(null, v) is always false.
			g.dead = true
			return false
		}
		// null against an unresolvable side: eq errors.
		return true
	}
	switch {
	case c0 == argKnown && c1 == argKnown:
		if !v0.Equal(v1) {
			g.dead = true
		}
	case c0 == argUnres && c1 == argUnres:
		// eq with both sides unbound errors: barrier.
		return true
	case c0 == argUnres || c1 == argUnres:
		// The resolvable side unifies into the pattern side; this
		// never errors but may bind variables.
		if c0 == argUnres {
			scanUnifyPattern(a0, v1, c1 == argKnown, bound, g)
		} else {
			scanUnifyPattern(a1, v0, c0 == argKnown, bound, g)
		}
	default:
		// known/res vs known/res: no error, no binding. A designator
		// against a known value is a guard or statically false.
		scanDesignatorEq(a0, c1, v1, g)
		scanDesignatorEq(a1, c0, v0, g)
	}
	return false
}

// scanUnifyPattern models unifying a resolvable value into an
// unresolvable pattern. known/v describe the value side when it is a
// static constant.
func scanUnifyPattern(pat CArg, v value.V, known bool, bound []bool, g *clauseGuard) {
	switch pat.Kind {
	case CVar:
		bound[pat.Slot] = true
	case CExpr:
		if known && v.Kind != value.KInt {
			// unify(expr, non-int) is always false.
			g.dead = true
			return
		}
		bound[pat.Slot] = true
	case CTuple:
		if known && (v.Kind != value.KTuple || v.Tuple.Name != pat.TupName ||
			len(v.Tuple.Args) != len(pat.TupArgs)) {
			g.dead = true
			return
		}
		markBoundVars(pat, bound)
	case CNull:
		g.dead = true
	}
}

// scanDesignatorEq records an object guard (or deadness) for eq of a
// designator against a known constant.
func scanDesignatorEq(a CArg, otherClass argClass, otherVal value.V, g *clauseGuard) {
	if otherClass != argKnown {
		return
	}
	switch a.Kind {
	case CThis:
		if otherVal.Kind != value.KString {
			g.dead = true
			return
		}
		if g.hasObject && g.object != otherVal.Str {
			g.dead = true
			return
		}
		g.hasObject, g.object = true, otherVal.Str
	case CLog:
		if otherVal.Kind != value.KString {
			g.dead = true
		}
	}
}

// scanObjID analyzes one objId predicate. Returns true when it is a
// barrier; may set g.dead or record an object guard.
func scanObjID(p *Program, pr CPred, bound []bool, g *clauseGuard) bool {
	a0, a1 := pr.Args[0], pr.Args[1]
	if a1.Kind == CNull {
		// objId(obj, null) consults the object source: barrier.
		return true
	}
	// The first argument must be guaranteed to resolve to an id.
	idKnown, isThis := false, false
	var id string
	switch a0.Kind {
	case CThis:
		isThis = true
	case CLog:
	case CNull:
		idKnown, id = true, ""
	case CConst:
		v := p.Consts[a0.Const]
		if v.Kind != value.KString {
			return true // objId errors on a non-string designator
		}
		idKnown, id = true, v.Str
	default:
		return true // may fail to resolve: barrier
	}
	switch a1.Kind {
	case CConst:
		v := p.Consts[a1.Const]
		if v.Kind != value.KString {
			g.dead = true
			return false
		}
		if idKnown {
			if id != v.Str {
				g.dead = true
			}
			return false
		}
		if isThis {
			if g.hasObject && g.object != v.Str {
				g.dead = true
				return false
			}
			g.hasObject, g.object = true, v.Str
		}
	case CVar:
		bound[a1.Slot] = true
	case CExpr, CTuple:
		// unify(expr/tuple, string) is always false.
		g.dead = true
	case CThis, CLog:
		// Request-dependent comparison; no static information.
	}
	return false
}

// ExplainIndex renders every clause's guard as text, for policyc
// -explain.
func ExplainIndex(p *Program) string {
	var b strings.Builder
	for perm := lang.Perm(0); perm < lang.NumPerms; perm++ {
		clauses := p.Perms[perm]
		if len(clauses) == 0 {
			continue
		}
		guards := make([]clauseGuard, len(clauses))
		dead := 0
		for i := range clauses {
			guards[i] = scanGuard(p, clauses[i].Preds, make([]bool, clauses[i].Slots))
			if guards[i].dead {
				dead++
			}
		}
		fmt.Fprintf(&b, "%s: %d clause(s), %d dead\n", perm, len(clauses), dead)
		for i := range clauses {
			g := guards[i]
			src, err := p.clauseSource(clauses[i])
			if err != nil {
				src = "<unprintable>"
			}
			var tag string
			switch {
			case g.dead:
				tag = "dead (never satisfiable)"
			case g.hasSession:
				tag = "session=" + g.session
			case g.hasObject:
				tag = "object=" + g.object
			default:
				tag = "wild (always visited)"
			}
			fmt.Fprintf(&b, "  clause %d [%s]: %s\n", i, tag, src)
		}
	}
	if b.Len() == 0 {
		return "policy grants no permissions\n"
	}
	return b.String()
}
