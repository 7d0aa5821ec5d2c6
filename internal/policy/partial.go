package policy

import (
	"fmt"
	"strings"

	"repro/internal/policy/lang"
	"repro/internal/policy/value"
)

// Session-bind partial evaluation (modeled on OPA's partial
// evaluation): once a session's credentials are bound, a program's
// clauses for one permission are specialized against the known
// environment — the session key and every predicate decidable from
// constants alone. The result is a Residual: either an immediate
// decision or a small residual clause list, typically a handful of
// version/meta comparisons, with the decided predicates folded away
// and their variable bindings pre-computed.
//
// Soundness rules, mirroring the baseline interpreter exactly:
//
//   - Only predicates that can never error at runtime are folded:
//     sessionKeyIs, and relational predicates whose sides are all
//     statically known. Fallible predicates (eq over unbound sides,
//     ordering over unground args) and predicates touching the object
//     source or certificates are kept, preserving runtime errors.
//   - A slot a kept predicate might bind at runtime is *tainted*:
//     later predicates over it are never folded or pre-bound.
//   - A statically false predicate kills the clause only when no kept
//     predicate precedes it (the baseline would reach it and fail
//     cleanly). Otherwise it is kept as a terminal refutation and the
//     unreachable tail is dropped.
//   - A clause with every predicate folded true is always satisfied
//     once reached; clauses after it are unreachable and dropped.
type Residual struct {
	prog       *Program
	perm       lang.Perm
	sessionKey string
	orig       int // clause count of the source permission
	decided    bool
	decision   Decision
	clauses    []residualClause
}

// residualClause is one specialized clause.
type residualClause struct {
	orig  int    // index in the source clause list
	slots uint32 // slot count of the source clause
	// preds are the predicates that survived partial evaluation; an
	// empty list means the clause is always satisfied once reached.
	preds []CPred
	// env holds the pre-computed slot bindings (read-only after
	// construction; copied into evaluator scratch per evaluation).
	env []value.V
	// hasObject/object: residual object guard (see index.go); the
	// clause can only match this accessed object id.
	hasObject bool
	object    string
}

type foldResult int

const (
	foldKeep  foldResult = iota // predicate survives into the residual
	foldTrue                    // statically satisfied, no runtime error possible
	foldFalse                   // statically refuted
)

type clauseStatus int

const (
	clauseResidual clauseStatus = iota
	clauseKilled                // never succeeds, never errors: dropped
	clauseTrue                  // always satisfied once reached
)

// PartialEval specializes prog's perm clauses to a session key. The
// returned Residual is immutable and safe for concurrent evaluation.
func PartialEval(prog *Program, perm lang.Perm, sessionKey string) *Residual {
	r := &Residual{prog: prog, perm: perm, sessionKey: sessionKey}
	var clauses []CClause
	if perm >= 0 && perm < lang.NumPerms {
		clauses = prog.Perms[perm]
	}
	r.orig = len(clauses)
	if len(clauses) == 0 {
		r.decided = true
		r.decision = Decision{Allowed: false, Clause: -1,
			Reason: fmt.Sprintf("policy grants no %s permission", perm)}
		return r
	}
	for i := range clauses {
		rc, st := partialClause(prog, &clauses[i], i, sessionKey)
		switch st {
		case clauseKilled:
			continue
		case clauseTrue:
			if len(r.clauses) == 0 {
				r.decided = true
				r.decision = Decision{Allowed: true, Clause: i, Skipped: len(clauses)}
				return r
			}
			// Reached only if every earlier residual clause fails;
			// later clauses are unreachable either way.
			r.clauses = append(r.clauses, rc)
			return r
		default:
			r.clauses = append(r.clauses, rc)
		}
	}
	if len(r.clauses) == 0 {
		r.decided = true
		r.decision = Decision{Allowed: false, Clause: -1, Skipped: len(clauses),
			Reason: fmt.Sprintf("no %s clause satisfied", perm)}
	}
	return r
}

// partialClause specializes one clause against the session binding.
func partialClause(prog *Program, cl *CClause, idx int, sessionKey string) (residualClause, clauseStatus) {
	env := make([]value.V, cl.Slots)
	taint := make([]bool, cl.Slots)
	var kept []CPred
	for _, pr := range cl.Preds {
		res := foldPred(prog, pr, sessionKey, env, taint)
		if res == foldTrue {
			continue
		}
		if res == foldFalse {
			if len(kept) == 0 {
				// The clause fails before any fallible predicate.
				return residualClause{}, clauseKilled
			}
			// Keep the refutation as a terminal false predicate so
			// runtime errors from the kept prefix are preserved, and
			// drop the unreachable tail.
			kept = append(kept, pr)
			break
		}
		kept = append(kept, pr)
		taintPred(pr, env, taint)
	}
	if len(kept) == 0 {
		return residualClause{orig: idx, slots: cl.Slots, env: env}, clauseTrue
	}
	// Guard-scan the residual with its pre-bound slots: an error-free
	// prefix reaching a refuted predicate makes the whole clause
	// droppable, and an object guard lets page-level evaluation skip
	// the clause for other keys.
	bound := make([]bool, cl.Slots)
	for s := range env {
		if env[s].Kind != value.KInvalid {
			bound[s] = true
		}
	}
	g := scanGuard(prog, kept, bound)
	if g.dead {
		return residualClause{}, clauseKilled
	}
	return residualClause{
		orig: idx, slots: cl.Slots, preds: kept, env: env,
		hasObject: g.hasObject, object: g.object,
	}, clauseResidual
}

// foldPred partially evaluates one predicate. Only never-erring,
// statically decidable predicates return foldTrue/foldFalse.
func foldPred(prog *Program, pr CPred, sessionKey string, env []value.V, taint []bool) foldResult {
	switch pr.ID {
	case PSessionKeyIs:
		return punify(prog, pr.Args[0], value.PubKey(sessionKey), env, taint)
	case PEq:
		va, aOK := presolve(prog, pr.Args[0], env)
		vb, bOK := presolve(prog, pr.Args[1], env)
		switch {
		case aOK && bOK:
			if va.Equal(vb) {
				return foldTrue
			}
			return foldFalse
		case aOK:
			return punify(prog, pr.Args[1], va, env, taint)
		case bOK:
			return punify(prog, pr.Args[0], vb, env, taint)
		default:
			// Both sides unknown: may error or resolve at runtime.
			return foldKeep
		}
	case PLe, PLt, PGe, PGt:
		va, aOK := presolve(prog, pr.Args[0], env)
		vb, bOK := presolve(prog, pr.Args[1], env)
		if !aOK || !bOK {
			return foldKeep
		}
		c, err := va.Compare(vb)
		if err != nil || !relHolds(pr.ID, c) {
			// Incomparable values fail the clause cleanly (no error).
			return foldFalse
		}
		return foldTrue
	default:
		// Object, certificate and next-version predicates depend on
		// per-request state: always residual.
		return foldKeep
	}
}

// presolve resolves an argument to a statically known value. A bound
// slot's value is certain on the clause's success path; this/log are
// request-dependent and never statically known.
func presolve(prog *Program, a CArg, env []value.V) (value.V, bool) {
	switch a.Kind {
	case CConst:
		return prog.Consts[a.Const], true
	case CVar:
		v := env[a.Slot]
		return v, v.Kind != value.KInvalid
	case CExpr:
		v := env[a.Slot]
		if v.Kind != value.KInt {
			return value.V{}, false
		}
		return value.Int(v.Int + a.Add), true
	case CTuple:
		args := make([]value.V, len(a.TupArgs))
		for i, t := range a.TupArgs {
			v, ok := presolve(prog, t, env)
			if !ok {
				return value.V{}, false
			}
			args[i] = v
		}
		return value.Tup(a.TupName, args...), true
	default:
		return value.V{}, false
	}
}

// punify partially unifies a pattern against a known value. Unbound
// untainted slots are bound; tainted slots (bindable by a kept
// predicate at runtime) force the predicate to stay residual.
func punify(prog *Program, a CArg, v value.V, env []value.V, taint []bool) foldResult {
	switch a.Kind {
	case CConst:
		if prog.Consts[a.Const].Equal(v) {
			return foldTrue
		}
		return foldFalse
	case CVar:
		cur := env[a.Slot]
		if cur.Kind != value.KInvalid {
			if cur.Equal(v) {
				return foldTrue
			}
			return foldFalse
		}
		if taint[a.Slot] {
			return foldKeep
		}
		env[a.Slot] = v
		return foldTrue
	case CExpr:
		cur := env[a.Slot]
		if cur.Kind == value.KInt {
			if v.Kind == value.KInt && cur.Int+a.Add == v.Int {
				return foldTrue
			}
			return foldFalse
		}
		if v.Kind != value.KInt {
			// unify(expr, non-int) is false whatever the slot holds.
			return foldFalse
		}
		if cur.Kind != value.KInvalid {
			return foldFalse // bound to a non-integer
		}
		if taint[a.Slot] {
			return foldKeep
		}
		env[a.Slot] = value.Int(v.Int - a.Add)
		return foldTrue
	case CTuple:
		if v.Kind != value.KTuple || v.Tuple.Name != a.TupName ||
			len(v.Tuple.Args) != len(a.TupArgs) {
			return foldFalse
		}
		res := foldTrue
		for i, t := range a.TupArgs {
			switch punify(prog, t, v.Tuple.Args[i], env, taint) {
			case foldFalse:
				return foldFalse
			case foldKeep:
				res = foldKeep
			}
		}
		return res
	case CThis, CLog:
		if v.Kind != value.KString {
			return foldFalse
		}
		return foldKeep // request-dependent comparison
	case CNull:
		return foldFalse
	}
	return foldKeep
}

// taintPred marks every still-unbound slot a kept predicate mentions:
// it might bind them at runtime, so later folding must not touch them.
func taintPred(pr CPred, env []value.V, taint []bool) {
	for _, a := range pr.Args {
		taintArg(a, env, taint)
	}
}

func taintArg(a CArg, env []value.V, taint []bool) {
	switch a.Kind {
	case CVar, CExpr:
		if env[a.Slot].Kind == value.KInvalid {
			taint[a.Slot] = true
		}
	case CTuple:
		for _, t := range a.TupArgs {
			taintArg(t, env, taint)
		}
	}
}

// Decided returns the immediate decision when partial evaluation fully
// decided the permission for this session.
func (r *Residual) Decided() (Decision, bool) { return r.decision, r.decided }

// Clauses reports how many residual clauses remain (0 when decided).
func (r *Residual) Clauses() int { return len(r.clauses) }

// SizeEstimate is a flat size estimate for cache accounting.
func (r *Residual) SizeEstimate() int64 {
	sz := int64(160 + len(r.sessionKey))
	for i := range r.clauses {
		rc := &r.clauses[i]
		sz += 64 + int64(len(rc.object)) +
			int64(len(rc.env))*48 + int64(len(rc.preds))*96
	}
	return sz
}

// Eval evaluates the residual against a request — semantically
// identical to Eval(prog, req, objects) for the residual's (perm,
// session) binding. Decision.Skipped counts source clauses decided at
// partial-evaluation time or pruned by residual object guards.
func (r *Residual) Eval(req *Request, objects ObjectSource) (Decision, error) {
	if req.Op != r.perm || req.SessionKey != r.sessionKey {
		// Defensive: a residual only speaks for its own binding.
		return Eval(r.prog, req, objects)
	}
	if r.decided {
		return r.decision, nil
	}
	ev := getEvaluator(r.prog, req, objects)
	defer putEvaluator(ev)
	visited := 0
	for k := range r.clauses {
		rc := &r.clauses[k]
		if rc.hasObject && rc.object != req.ObjectID {
			continue
		}
		visited++
		env := ev.env(rc.slots)
		copy(env, rc.env)
		ok, err := ev.evalPreds(rc.preds, env)
		if err != nil {
			return Decision{Allowed: false, Clause: -1, Steps: ev.steps,
				Skipped: rc.orig + 1 - visited}, err
		}
		if ok {
			return Decision{Allowed: true, Clause: rc.orig, Steps: ev.steps,
				Skipped: rc.orig + 1 - visited}, nil
		}
	}
	return Decision{Allowed: false, Clause: -1, Steps: ev.steps,
		Skipped: r.orig - visited,
		Reason:  fmt.Sprintf("no %s clause satisfied", r.perm)}, nil
}

// Explain renders the residual as text, for policyc -explain.
func (r *Residual) Explain() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s for session %s: ", r.perm, r.sessionKey)
	if r.decided {
		if r.decision.Allowed {
			fmt.Fprintf(&b, "ALLOW (clause %d decided at bind time)\n", r.decision.Clause)
		} else {
			fmt.Fprintf(&b, "DENY (%s)\n", r.decision.Reason)
		}
		return b.String()
	}
	fmt.Fprintf(&b, "%d of %d clause(s) residual\n", len(r.clauses), r.orig)
	for k := range r.clauses {
		rc := &r.clauses[k]
		src := "true"
		if len(rc.preds) > 0 {
			if s, err := r.prog.clauseSource(CClause{Preds: rc.preds, Slots: rc.slots}); err == nil {
				src = s
			} else {
				src = "<unprintable>"
			}
		}
		fmt.Fprintf(&b, "  clause %d: %s\n", rc.orig, src)
		for s := range rc.env {
			if rc.env[s].Kind != value.KInvalid {
				fmt.Fprintf(&b, "    where %s = %s\n", slotName(uint32(s)), rc.env[s])
			}
		}
		if rc.hasObject {
			fmt.Fprintf(&b, "    only for object %q\n", rc.object)
		}
	}
	return b.String()
}
