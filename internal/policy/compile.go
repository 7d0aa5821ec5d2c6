package policy

import (
	"fmt"

	"repro/internal/policy/lang"
	"repro/internal/policy/value"
)

// CompileError reports a semantic error found while lowering a policy.
type CompileError struct {
	Pos lang.Pos
	Msg string
}

// Error implements error.
func (e *CompileError) Error() string {
	return fmt.Sprintf("policy:%s: %s", e.Pos, e.Msg)
}

// CompileSource parses and compiles policy text in one step — the
// controller's path for client-submitted policies.
func CompileSource(src string) (*Program, error) {
	ast, err := lang.Parse(src)
	if err != nil {
		return nil, err
	}
	return Compile(ast)
}

// Compile lowers a parsed policy to its binary program. It checks
// predicate names and arities, interns constants into the pool, and
// assigns variable slots per clause (variables scope over one clause:
// each disjunct is evaluated with a fresh environment, §3.3).
func Compile(ast *lang.Policy) (*Program, error) {
	c := &compiler{prog: &Program{}, constIdx: make(map[string]uint32)}
	for perm := lang.Perm(0); perm < lang.NumPerms; perm++ {
		cond := ast.Conditions[perm]
		if cond == nil {
			continue
		}
		for _, clause := range cond.Clauses {
			cc, err := c.compileClause(clause)
			if err != nil {
				return nil, err
			}
			c.prog.Perms[perm] = append(c.prog.Perms[perm], cc)
		}
	}
	return c.prog, nil
}

type compiler struct {
	prog     *Program
	constIdx map[string]uint32
}

func (c *compiler) compileClause(clause *lang.Clause) (CClause, error) {
	slots := make(map[string]uint32)
	var cc CClause
	for _, pred := range clause.Preds {
		cp, err := c.compilePred(pred, slots)
		if err != nil {
			return CClause{}, err
		}
		cc.Preds = append(cc.Preds, cp)
	}
	cc.Slots = uint32(len(slots))
	return cc, nil
}

func (c *compiler) compilePred(pred *lang.Pred, slots map[string]uint32) (CPred, error) {
	spec, ok := predsByName[lowerASCII(pred.Name)]
	if !ok {
		return CPred{}, &CompileError{Pos: pred.Pos,
			Msg: fmt.Sprintf("unknown predicate %q", pred.Name)}
	}
	arityOK := false
	for _, a := range spec.arities {
		if len(pred.Args) == a {
			arityOK = true
			break
		}
	}
	if !arityOK {
		return CPred{}, &CompileError{Pos: pred.Pos,
			Msg: fmt.Sprintf("%s takes %v arguments, got %d", predName(spec.id), spec.arities, len(pred.Args))}
	}
	cp := CPred{ID: spec.id}
	for _, arg := range pred.Args {
		ca, err := c.compileArg(arg, slots, 0)
		if err != nil {
			return CPred{}, err
		}
		cp.Args = append(cp.Args, ca)
	}
	return cp, nil
}

// compileArg lowers an argument depth tuples deep, refusing one deeper
// than a program's decoder reads (value.MaxDepth).
func (c *compiler) compileArg(arg *lang.Arg, slots map[string]uint32, depth int) (CArg, error) {
	if depth > value.MaxDepth {
		return CArg{}, &CompileError{Pos: arg.Pos, Msg: fmt.Sprintf("tuple pattern nested deeper than %d", value.MaxDepth)}
	}
	switch arg.Kind {
	case lang.AVal:
		return CArg{Kind: CConst, Const: c.intern(arg.Val)}, nil
	case lang.AVar:
		return CArg{Kind: CVar, Slot: c.slot(arg.Var, slots)}, nil
	case lang.AExpr:
		return CArg{Kind: CExpr, Slot: c.slot(arg.Var, slots), Add: arg.Add}, nil
	case lang.ATuple:
		ca := CArg{Kind: CTuple, TupName: arg.TupleName}
		for _, t := range arg.TupleArgs {
			sub, err := c.compileArg(t, slots, depth+1)
			if err != nil {
				return CArg{}, err
			}
			ca.TupArgs = append(ca.TupArgs, sub)
		}
		return ca, nil
	case lang.AThis:
		return CArg{Kind: CThis}, nil
	case lang.ALog:
		return CArg{Kind: CLog}, nil
	case lang.ANull:
		return CArg{Kind: CNull}, nil
	default:
		return CArg{}, &CompileError{Pos: arg.Pos, Msg: "unsupported argument form"}
	}
}

// intern deduplicates a constant into the pool.
func (c *compiler) intern(v value.V) uint32 {
	key := v.String()
	if idx, ok := c.constIdx[key]; ok {
		return idx
	}
	idx := uint32(len(c.prog.Consts))
	c.prog.Consts = append(c.prog.Consts, v)
	c.constIdx[key] = idx
	return idx
}

func (c *compiler) slot(name string, slots map[string]uint32) uint32 {
	if s, ok := slots[name]; ok {
		return s
	}
	s := uint32(len(slots))
	slots[name] = s
	return s
}

func lowerASCII(s string) string {
	b := []byte(s)
	for i, ch := range b {
		if ch >= 'A' && ch <= 'Z' {
			b[i] = ch + ('a' - 'A')
		}
	}
	return string(b)
}
