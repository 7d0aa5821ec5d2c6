package policy

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/authority"
	"repro/internal/policy/lang"
	"repro/internal/policy/value"
)

// ObjectInfo is the metadata the interpreter can reason about
// (Table 1's object predicates).
type ObjectInfo struct {
	ID         string
	Version    int64
	Size       int64
	Hash       [32]byte // SHA-256 of the object content at Version
	PolicyHash [32]byte // hash of the associated compiled policy
}

// ObjectSource lets the interpreter inspect stored objects. The
// controller backs it with its caches and, on miss, the drives (§4.2:
// "objects accessed during policy evaluation" are cached).
type ObjectSource interface {
	// Info returns the newest metadata for id; exists=false if the
	// object is not stored.
	Info(id string) (info ObjectInfo, exists bool, err error)
	// InfoAt returns metadata for a specific version.
	InfoAt(id string, version int64) (info ObjectInfo, exists bool, err error)
	// Content returns the object payload at a version, for objSays.
	Content(id string, version int64) (content []byte, exists bool, err error)
}

// Request carries everything about one client operation the policy
// may reason about.
type Request struct {
	// Op is the permission being exercised.
	Op lang.Perm
	// ObjectID is the key of the accessed object ("this").
	ObjectID string
	// LogID resolves the LOG designator for MAL policies; the
	// controller derives it from ObjectID (see core.LogKeyFor).
	LogID string
	// SessionKey is the fingerprint of the client's authenticated
	// public key (sessionKeyIs).
	SessionKey string
	// NextVersion is the version argument of a pending put/update
	// (nextVersion); valid only when HasNextVersion.
	NextVersion    int64
	HasNextVersion bool
	// Certificates are the signed external facts attached to the
	// request (certificateSays).
	Certificates []*authority.Certificate
	// Now is the trusted time used for freshness windows.
	Now time.Time
}

// Decision is the interpreter's verdict.
type Decision struct {
	Allowed bool
	// Clause is the index of the granting clause, -1 if denied.
	Clause int
	// Reason explains a denial for the client's error message.
	Reason string
	// Steps counts predicate evaluations, for metering.
	Steps int
	// Skipped counts clauses a session residual pruned without
	// evaluating (killed at bind time or skipped by an object guard);
	// always 0 for Eval, which visits every clause.
	Skipped int
}

// ErrEvalBudget is returned when a policy exceeds the step budget.
var ErrEvalBudget = errors.New("policy: evaluation budget exceeded")

// maxSteps bounds predicate evaluations per request so a pathological
// policy cannot stall the controller.
const maxSteps = 4096

// Eval checks whether req is permitted by prog. Object metadata comes
// from objects; objects may be nil for policies that never use object
// predicates.
func Eval(prog *Program, req *Request, objects ObjectSource) (Decision, error) {
	clauses := prog.Perms[req.Op]
	if len(clauses) == 0 {
		return Decision{Allowed: false, Clause: -1,
			Reason: fmt.Sprintf("policy grants no %s permission", req.Op)}, nil
	}
	ev := getEvaluator(prog, req, objects)
	defer putEvaluator(ev)
	for i := range clauses {
		cl := &clauses[i]
		env := ev.env(cl.Slots)
		ok, err := ev.evalPreds(cl.Preds, env)
		if err != nil {
			return Decision{Allowed: false, Clause: -1, Steps: ev.steps}, err
		}
		if ok {
			return Decision{Allowed: true, Clause: i, Steps: ev.steps}, nil
		}
	}
	return Decision{Allowed: false, Clause: -1, Steps: ev.steps,
		Reason: fmt.Sprintf("no %s clause satisfied", req.Op)}, nil
}

type evaluator struct {
	prog    *Program
	req     *Request
	objects ObjectSource
	steps   int
	// envBuf is scratch for clause environments, reused across
	// clauses and evaluations so steady-state checks do not allocate.
	envBuf []value.V
}

// evalPool recycles evaluators across requests. Pooled instances are
// only scratch: every reference they hold is cleared on release.
var evalPool = sync.Pool{New: func() any { return new(evaluator) }}

func getEvaluator(prog *Program, req *Request, objects ObjectSource) *evaluator {
	ev := evalPool.Get().(*evaluator)
	ev.prog, ev.req, ev.objects, ev.steps = prog, req, objects, 0
	return ev
}

func putEvaluator(ev *evaluator) {
	ev.prog, ev.req, ev.objects = nil, nil, nil
	evalPool.Put(ev)
}

// env returns a cleared slot buffer of size n backed by the
// evaluator's scratch.
func (ev *evaluator) env(n uint32) []value.V {
	if uint32(cap(ev.envBuf)) < n {
		ev.envBuf = make([]value.V, n)
		return ev.envBuf
	}
	e := ev.envBuf[:n]
	for i := range e {
		e[i] = value.V{}
	}
	return e
}

// evalPreds evaluates a conjunction left to right. Choice points
// (certificateSays over several certificates) snapshot the environment
// and retry the continuation per candidate.
func (ev *evaluator) evalPreds(preds []CPred, env []value.V) (bool, error) {
	if len(preds) == 0 {
		return true, nil
	}
	ev.steps++
	if ev.steps > maxSteps {
		return false, ErrEvalBudget
	}
	p, rest := preds[0], preds[1:]
	switch p.ID {
	case PEq, PLe, PLt, PGe, PGt:
		ok, err := ev.evalRelational(p, env)
		if err != nil || !ok {
			return false, err
		}
		return ev.evalPreds(rest, env)
	case PSessionKeyIs:
		if !ev.unify(p.Args[0], value.PubKey(ev.req.SessionKey), env) {
			return false, nil
		}
		return ev.evalPreds(rest, env)
	case PCertificateSays:
		return ev.evalCertificateSays(p, rest, env)
	case PObjID:
		ok, err := ev.evalObjID(p, env)
		if err != nil || !ok {
			return false, err
		}
		return ev.evalPreds(rest, env)
	case PCurrVersion:
		ok, err := ev.evalCurrVersion(p, env)
		if err != nil || !ok {
			return false, err
		}
		return ev.evalPreds(rest, env)
	case PNextVersion:
		ok := ev.evalNextVersion(p, env)
		if !ok {
			return false, nil
		}
		return ev.evalPreds(rest, env)
	case PObjSize, PObjHash, PObjPolicy:
		ok, err := ev.evalObjMeta(p, env)
		if err != nil || !ok {
			return false, err
		}
		return ev.evalPreds(rest, env)
	case PObjSays:
		ok, err := ev.evalObjSays(p, env)
		if err != nil || !ok {
			return false, err
		}
		return ev.evalPreds(rest, env)
	default:
		return false, fmt.Errorf("policy: unknown predicate id %d", p.ID)
	}
}

// evalRelational handles eq/le/lt/ge/gt. eq can bind an unbound side;
// the ordering predicates require both sides ground.
func (ev *evaluator) evalRelational(p CPred, env []value.V) (bool, error) {
	a, aOK := ev.resolve(p.Args[0], env)
	b, bOK := ev.resolve(p.Args[1], env)
	if p.ID == PEq {
		switch {
		case aOK && bOK:
			return a.Equal(b), nil
		case aOK:
			return ev.unify(p.Args[1], a, env), nil
		case bOK:
			return ev.unify(p.Args[0], b, env), nil
		default:
			return false, errors.New("policy: eq with both sides unbound")
		}
	}
	if !aOK || !bOK {
		return false, fmt.Errorf("policy: %s requires ground arguments", predName(p.ID))
	}
	c, err := a.Compare(b)
	if err != nil {
		return false, nil // incomparable values simply fail the clause
	}
	switch p.ID {
	case PLe:
		return c <= 0, nil
	case PLt:
		return c < 0, nil
	case PGe:
		return c >= 0, nil
	case PGt:
		return c > 0, nil
	}
	return false, nil
}

// evalCertificateSays tries every presented certificate as a choice
// point: certificateSays(authority, [freshness,] fact).
func (ev *evaluator) evalCertificateSays(p CPred, rest []CPred, env []value.V) (bool, error) {
	authArg := p.Args[0]
	factArg := p.Args[len(p.Args)-1]
	var window time.Duration
	if len(p.Args) == 3 {
		f, ok := ev.resolve(p.Args[1], env)
		if !ok || f.Kind != value.KInt {
			return false, errors.New("policy: certificateSays freshness must be a ground integer (seconds)")
		}
		window = time.Duration(f.Int) * time.Second
	}
	for _, cert := range ev.req.Certificates {
		snapshot := append([]value.V(nil), env...)
		if !ev.unify(authArg, value.PubKey(cert.Signer), snapshot) {
			continue
		}
		if cert.Verify() != nil {
			continue
		}
		if cert.Fresh(ev.req.Now, window) != nil {
			continue
		}
		if !ev.unify(factArg, cert.Fact, snapshot) {
			continue
		}
		ok, err := ev.evalPreds(rest, snapshot)
		if err != nil {
			return false, err
		}
		if ok {
			copy(env, snapshot)
			return true, nil
		}
	}
	return false, nil
}

// designatorID resolves an object-designator argument to an object id
// string, or binds it. Returns (id, isNull, ok).
func (ev *evaluator) designatorID(a CArg, env []value.V) (string, bool, bool) {
	switch a.Kind {
	case CThis:
		return ev.req.ObjectID, false, true
	case CLog:
		return ev.req.LogID, false, true
	case CNull:
		return "", true, true
	default:
		v, ok := ev.resolve(a, env)
		if !ok {
			return "", false, false
		}
		if v.Kind != value.KString {
			return "", false, false
		}
		return v.Str, false, true
	}
}

// evalObjID implements objId(obj, id): binds/compares the object id,
// with objId(this, null) succeeding exactly when the accessed object
// does not exist yet (the versioned-store creation case, §5.3).
func (ev *evaluator) evalObjID(p CPred, env []value.V) (bool, error) {
	id, _, ok := ev.designatorID(p.Args[0], env)
	if !ok {
		return false, errors.New("policy: objId first argument must resolve to an object")
	}
	if p.Args[1].Kind == CNull {
		if ev.objects == nil {
			return false, errors.New("policy: objId needs an object source")
		}
		_, exists, err := ev.objects.Info(id)
		if err != nil {
			return false, err
		}
		return !exists, nil
	}
	return ev.unify(p.Args[1], value.Str(id), env), nil
}

func (ev *evaluator) evalCurrVersion(p CPred, env []value.V) (bool, error) {
	id, isNull, ok := ev.designatorID(p.Args[0], env)
	if !ok || isNull {
		return false, nil
	}
	if ev.objects == nil {
		return false, errors.New("policy: currVersion needs an object source")
	}
	info, exists, err := ev.objects.Info(id)
	if err != nil {
		return false, err
	}
	if !exists {
		return false, nil
	}
	return ev.unify(p.Args[1], value.Int(info.Version), env), nil
}

func (ev *evaluator) evalNextVersion(p CPred, env []value.V) bool {
	if !ev.req.HasNextVersion {
		return false
	}
	// Two-argument form nextIndex(obj, v): the object designator is
	// checked only for resolvability; the version is the last arg.
	arg := p.Args[len(p.Args)-1]
	return ev.unify(arg, value.Int(ev.req.NextVersion), env)
}

// evalObjMeta implements objSize/objHash/objPolicy(obj, v, x). An
// unbound version argument binds to the object's current version.
func (ev *evaluator) evalObjMeta(p CPred, env []value.V) (bool, error) {
	id, isNull, ok := ev.designatorID(p.Args[0], env)
	if !ok || isNull {
		return false, nil
	}
	if ev.objects == nil {
		return false, fmt.Errorf("policy: %s needs an object source", predName(p.ID))
	}
	info, exists, err := ev.infoForVersionArg(id, p.Args[1], env)
	if err != nil || !exists {
		return exists, err
	}
	var v value.V
	switch p.ID {
	case PObjSize:
		v = value.Int(info.Size)
	case PObjHash:
		v = value.Hash(info.Hash)
	case PObjPolicy:
		v = value.Hash(info.PolicyHash)
	}
	return ev.unify(p.Args[2], v, env), nil
}

// evalObjSays implements objSays(obj, v, pattern): the content of obj
// at version v, parsed as a policy value, must unify with pattern. An
// unbound v binds to the latest version — the "most recent log entry"
// semantics MAL needs (§5.4).
func (ev *evaluator) evalObjSays(p CPred, env []value.V) (bool, error) {
	id, isNull, ok := ev.designatorID(p.Args[0], env)
	if !ok || isNull {
		return false, nil
	}
	if ev.objects == nil {
		return false, errors.New("policy: objSays needs an object source")
	}
	info, exists, err := ev.infoForVersionArg(id, p.Args[1], env)
	if err != nil || !exists {
		return exists, err
	}
	content, exists, err := ev.objects.Content(id, info.Version)
	if err != nil || !exists {
		return false, err
	}
	said, perr := lang.ParseValue(string(content))
	if perr != nil {
		// Content that is not a well-formed value cannot say anything.
		return false, nil
	}
	return ev.unify(p.Args[2], said, env), nil
}

// infoForVersionArg resolves the version argument of an object
// predicate: bound → exact version lookup; unbound → latest version,
// binding the argument.
func (ev *evaluator) infoForVersionArg(id string, vArg CArg, env []value.V) (ObjectInfo, bool, error) {
	v, bound := ev.resolve(vArg, env)
	if bound {
		if v.Kind != value.KInt {
			return ObjectInfo{}, false, nil
		}
		return ev.objects.InfoAt(id, v.Int)
	}
	info, exists, err := ev.objects.Info(id)
	if err != nil || !exists {
		return info, exists, err
	}
	if !ev.unify(vArg, value.Int(info.Version), env) {
		return ObjectInfo{}, false, nil
	}
	return info, true, nil
}

// resolve evaluates an argument to a ground value if possible.
func (ev *evaluator) resolve(a CArg, env []value.V) (value.V, bool) {
	switch a.Kind {
	case CConst:
		return ev.prog.Consts[a.Const], true
	case CVar:
		v := env[a.Slot]
		return v, v.Kind != value.KInvalid
	case CExpr:
		v := env[a.Slot]
		if v.Kind != value.KInt {
			return value.V{}, false
		}
		return value.Int(v.Int + a.Add), true
	case CThis:
		return value.Str(ev.req.ObjectID), true
	case CLog:
		return value.Str(ev.req.LogID), true
	case CTuple:
		args := make([]value.V, len(a.TupArgs))
		for i, t := range a.TupArgs {
			v, ok := ev.resolve(t, env)
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

// unify matches an argument pattern against a ground value, binding
// unbound variables in env. Returns false on mismatch.
func (ev *evaluator) unify(a CArg, v value.V, env []value.V) bool {
	switch a.Kind {
	case CConst:
		return ev.prog.Consts[a.Const].Equal(v)
	case CVar:
		cur := env[a.Slot]
		if cur.Kind == value.KInvalid {
			env[a.Slot] = v
			return true
		}
		return cur.Equal(v)
	case CExpr:
		cur := env[a.Slot]
		if cur.Kind == value.KInt {
			return v.Kind == value.KInt && cur.Int+a.Add == v.Int
		}
		if cur.Kind == value.KInvalid && v.Kind == value.KInt {
			// Solve Var + Add = v.
			env[a.Slot] = value.Int(v.Int - a.Add)
			return true
		}
		return false
	case CTuple:
		if v.Kind != value.KTuple || v.Tuple.Name != a.TupName || len(v.Tuple.Args) != len(a.TupArgs) {
			return false
		}
		for i, t := range a.TupArgs {
			if !ev.unify(t, v.Tuple.Args[i], env) {
				return false
			}
		}
		return true
	case CThis:
		return v.Kind == value.KString && v.Str == ev.req.ObjectID
	case CLog:
		return v.Kind == value.KString && v.Str == ev.req.LogID
	case CNull:
		return false
	default:
		return false
	}
}
