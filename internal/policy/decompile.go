package policy

import (
	"fmt"
	"strings"

	"repro/internal/policy/lang"
	"repro/internal/policy/value"
)

// Source reconstructs canonical policy text from a compiled program —
// the audit path: a client can fetch the compiled policy behind an id
// and read back exactly what it enforces. Round trip:
// CompileSource(p.Source()) produces a program with the same hash.
func (p *Program) Source() (string, error) {
	var b strings.Builder
	for perm := lang.Perm(0); perm < lang.NumPerms; perm++ {
		clauses := p.Perms[perm]
		if len(clauses) == 0 {
			continue
		}
		parts := make([]string, 0, len(clauses))
		for _, cl := range clauses {
			s, err := p.clauseSource(cl)
			if err != nil {
				return "", err
			}
			parts = append(parts, s)
		}
		fmt.Fprintf(&b, "%s :- %s\n", perm, strings.Join(parts, " or "))
	}
	return b.String(), nil
}

func (p *Program) clauseSource(cl CClause) (string, error) {
	preds := make([]string, 0, len(cl.Preds))
	for _, pr := range cl.Preds {
		args := make([]string, 0, len(pr.Args))
		for _, a := range pr.Args {
			s, err := p.argSource(a)
			if err != nil {
				return "", err
			}
			args = append(args, s)
		}
		preds = append(preds, predName(pr.ID)+"("+strings.Join(args, ", ")+")")
	}
	return strings.Join(preds, " and "), nil
}

func (p *Program) argSource(a CArg) (string, error) {
	switch a.Kind {
	case CConst:
		if int(a.Const) >= len(p.Consts) {
			return "", fmt.Errorf("policy: constant %d out of range", a.Const)
		}
		return p.Consts[a.Const].String(), nil
	case CVar:
		return slotName(a.Slot), nil
	case CExpr:
		if a.Add < 0 {
			return fmt.Sprintf("%s - %d", slotName(a.Slot), -a.Add), nil
		}
		return fmt.Sprintf("%s + %d", slotName(a.Slot), a.Add), nil
	case CTuple:
		args := make([]string, 0, len(a.TupArgs))
		for _, t := range a.TupArgs {
			s, err := p.argSource(t)
			if err != nil {
				return "", err
			}
			args = append(args, s)
		}
		return value.Str(a.TupName).String() + "(" + strings.Join(args, ", ") + ")", nil // quoted: any name reads back
	case CThis:
		return "this", nil
	case CLog:
		return "log", nil
	case CNull:
		return "null", nil
	default:
		return "", fmt.Errorf("policy: bad arg kind %d", a.Kind)
	}
}

// slotName produces stable variable names V0, V1, ... for decompiled
// output.
func slotName(slot uint32) string { return fmt.Sprintf("V%d", slot) }
