// Package policy is Pesos' unified policy engine (§3.1, §3.3): it
// compiles the declarative policy language into a compact binary
// program and evaluates compiled programs against requests inside the
// controller's trusted environment. All enforcement in Pesos funnels
// through Eval in this package — the single enforcement layer the
// paper argues for.
package policy

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/policy/lang"
	"repro/internal/policy/value"
)

// PredID identifies a predicate in the compiled form.
type PredID uint8

// Predicate identifiers (Table 1).
const (
	PEq PredID = iota + 1
	PLe
	PLt
	PGe
	PGt
	PCertificateSays
	PSessionKeyIs
	PObjID
	PCurrVersion
	PNextVersion
	PObjSize
	PObjPolicy
	PObjHash
	PObjSays
	numPreds
)

// predSpec describes a predicate's surface names and accepted arities.
type predSpec struct {
	id      PredID
	arities []int
}

// predsByName maps source-level predicate names (and their aliases in
// the paper's examples) to specs.
var predsByName = map[string]predSpec{
	"eq": {PEq, []int{2}},
	"le": {PLe, []int{2}},
	"lt": {PLt, []int{2}},
	"ge": {PGe, []int{2}},
	"gt": {PGt, []int{2}},
	// certificateSays(authority, freshness, fact) — freshness optional.
	"certificatesays": {PCertificateSays, []int{2, 3}},
	"sessionkeyis":    {PSessionKeyIs, []int{1}},
	"objid":           {PObjID, []int{2}},
	// currVersion/currIndex(obj, v)
	"currversion": {PCurrVersion, []int{2}},
	"currindex":   {PCurrVersion, []int{2}},
	// nextVersion(v) — the paper's MAL example also writes
	// nextIndex(obj, v); both arities are accepted.
	"nextversion": {PNextVersion, []int{1, 2}},
	"nextindex":   {PNextVersion, []int{1, 2}},
	"objsize":     {PObjSize, []int{3}},
	"objpolicy":   {PObjPolicy, []int{3}},
	"objhash":     {PObjHash, []int{3}},
	"objsays":     {PObjSays, []int{3}},
}

// predName returns the canonical source name of a predicate id.
func predName(id PredID) string {
	switch id {
	case PEq:
		return "eq"
	case PLe:
		return "le"
	case PLt:
		return "lt"
	case PGe:
		return "ge"
	case PGt:
		return "gt"
	case PCertificateSays:
		return "certificateSays"
	case PSessionKeyIs:
		return "sessionKeyIs"
	case PObjID:
		return "objId"
	case PCurrVersion:
		return "currVersion"
	case PNextVersion:
		return "nextVersion"
	case PObjSize:
		return "objSize"
	case PObjPolicy:
		return "objPolicy"
	case PObjHash:
		return "objHash"
	case PObjSays:
		return "objSays"
	default:
		return fmt.Sprintf("pred(%d)", uint8(id))
	}
}

// ArgKind discriminates compiled argument forms.
type ArgKind uint8

// Compiled argument kinds.
const (
	CConst ArgKind = iota + 1 // constant-pool reference
	CVar                      // variable slot
	CExpr                     // variable slot + integer offset
	CTuple                    // tuple pattern
	CThis                     // accessed-object designator
	CLog                      // paired log object designator
	CNull                     // object-absent marker
)

// CArg is one compiled argument.
type CArg struct {
	Kind    ArgKind
	Const   uint32 // CConst: constant pool index
	Slot    uint32 // CVar, CExpr: variable slot
	Add     int64  // CExpr offset
	TupName string // CTuple
	TupArgs []CArg // CTuple
}

// CPred is one compiled predicate application.
type CPred struct {
	ID   PredID
	Args []CArg
}

// CClause is a conjunction of compiled predicates.
type CClause struct {
	Preds []CPred
	Slots uint32 // number of variable slots this clause uses
}

// Program is a compiled policy: per-permission DNF over compiled
// predicates plus a shared constant pool. This is the "compact binary
// representation" produced by the policy compiler (§3.1).
type Program struct {
	Consts []value.V
	Perms  [lang.NumPerms][]CClause
}

// Hash returns the canonical policy hash: SHA-256 of the marshaled
// program. objPolicy compares against this (Table 1).
func (p *Program) Hash() [32]byte {
	data, err := p.Marshal()
	if err != nil {
		// Programs built by Compile always marshal; this indicates a
		// hand-constructed invalid program.
		panic("policy: hash: " + err.Error())
	}
	return sha256.Sum256(data)
}

// progMagic identifies serialized programs.
var progMagic = []byte("PSC1")

// Marshal encodes the program to its storage format.
func (p *Program) Marshal() ([]byte, error) {
	buf := append([]byte(nil), progMagic...)
	buf = binary.AppendUvarint(buf, uint64(len(p.Consts)))
	var err error
	for _, c := range p.Consts {
		if buf, err = c.AppendBinary(buf); err != nil {
			return nil, err
		}
	}
	for perm := 0; perm < int(lang.NumPerms); perm++ {
		clauses := p.Perms[perm]
		buf = binary.AppendUvarint(buf, uint64(len(clauses)))
		for _, cl := range clauses {
			buf = binary.AppendUvarint(buf, uint64(cl.Slots))
			buf = binary.AppendUvarint(buf, uint64(len(cl.Preds)))
			for _, pr := range cl.Preds {
				buf = append(buf, byte(pr.ID))
				buf = binary.AppendUvarint(buf, uint64(len(pr.Args)))
				for _, a := range pr.Args {
					if buf, err = appendCArg(buf, a, 0); err != nil {
						return nil, err
					}
				}
			}
		}
	}
	return buf, nil
}

func appendCArg(buf []byte, a CArg, depth int) ([]byte, error) {
	if depth > value.MaxDepth {
		return nil, errors.New("policy: tuple pattern too deep")
	}
	buf = append(buf, byte(a.Kind))
	switch a.Kind {
	case CConst:
		return binary.AppendUvarint(buf, uint64(a.Const)), nil
	case CVar:
		return binary.AppendUvarint(buf, uint64(a.Slot)), nil
	case CExpr:
		buf = binary.AppendUvarint(buf, uint64(a.Slot))
		return binary.AppendVarint(buf, a.Add), nil
	case CTuple:
		buf = binary.AppendUvarint(buf, uint64(len(a.TupName)))
		buf = append(buf, a.TupName...)
		buf = binary.AppendUvarint(buf, uint64(len(a.TupArgs)))
		var err error
		for _, t := range a.TupArgs {
			if buf, err = appendCArg(buf, t, depth+1); err != nil {
				return nil, err
			}
		}
		return buf, nil
	case CThis, CLog, CNull:
		return buf, nil
	default:
		return nil, fmt.Errorf("policy: cannot encode arg kind %d", a.Kind)
	}
}

// Unmarshal decodes a program from its storage format.
func Unmarshal(data []byte) (*Program, error) {
	if !bytes.HasPrefix(data, progMagic) {
		return nil, errors.New("policy: bad program magic")
	}
	r := &reader{data: data[len(progMagic):]}
	p := &Program{}
	nConsts := r.uvarint()
	if nConsts > 1<<20 {
		return nil, errors.New("policy: implausible constant count")
	}
	p.Consts = make([]value.V, 0, min(nConsts, uint64(len(r.data))/2)) // two or more bytes a constant
	for i := uint64(0); i < nConsts; i++ {
		v, rest, err := value.DecodeBinary(r.data)
		if err != nil {
			return nil, err
		}
		r.data = rest
		p.Consts = append(p.Consts, v)
	}
	for perm := 0; perm < int(lang.NumPerms); perm++ {
		nClauses := r.uvarint()
		if nClauses > 1<<16 {
			return nil, errors.New("policy: implausible clause count")
		}
		// Two or more bytes a clause, and a read past the end ends the claim.
		clauses := make([]CClause, 0, min(nClauses, uint64(len(r.data))/2))
		for i := uint64(0); i < nClauses && r.err == nil; i++ {
			var cl CClause
			cl.Slots = uint32(r.uvarint())
			nPreds := r.uvarint()
			if nPreds > 1<<16 {
				return nil, errors.New("policy: implausible predicate count")
			}
			for j := uint64(0); j < nPreds; j++ {
				var pr CPred
				pr.ID = PredID(r.byte())
				if pr.ID == 0 || pr.ID >= numPreds {
					return nil, fmt.Errorf("policy: bad predicate id %d", pr.ID)
				}
				nArgs := r.uvarint()
				for k := uint64(0); k < nArgs; k++ {
					a, err := r.carg(0)
					if err != nil {
						return nil, err
					}
					pr.Args = append(pr.Args, a)
				}
				cl.Preds = append(cl.Preds, pr)
			}
			clauses = append(clauses, cl)
		}
		p.Perms[perm] = clauses
	}
	if r.err != nil {
		return nil, r.err
	}
	// Validate constant references.
	for perm := range p.Perms {
		for _, cl := range p.Perms[perm] {
			for _, pr := range cl.Preds {
				for _, a := range pr.Args {
					if err := validateArg(a, uint32(len(p.Consts)), cl.Slots); err != nil {
						return nil, err
					}
				}
			}
		}
	}
	return p, nil
}

func validateArg(a CArg, nConsts, slots uint32) error {
	switch a.Kind {
	case CConst:
		if a.Const >= nConsts {
			return fmt.Errorf("policy: constant index %d out of range", a.Const)
		}
	case CVar, CExpr:
		if a.Slot >= slots {
			return fmt.Errorf("policy: variable slot %d out of range", a.Slot)
		}
	case CTuple:
		for _, t := range a.TupArgs {
			if err := validateArg(t, nConsts, slots); err != nil {
				return err
			}
		}
	case CThis, CLog, CNull:
	default:
		return fmt.Errorf("policy: bad arg kind %d", a.Kind)
	}
	return nil
}

type reader struct {
	data []byte
	err  error
}

func (r *reader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.data)
	if n <= 0 {
		r.err = errors.New("policy: truncated uvarint")
		return 0
	}
	r.data = r.data[n:]
	return v
}

func (r *reader) varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.data)
	if n <= 0 {
		r.err = errors.New("policy: truncated varint")
		return 0
	}
	r.data = r.data[n:]
	return v
}

func (r *reader) byte() byte {
	if r.err != nil {
		return 0
	}
	if len(r.data) == 0 {
		r.err = errors.New("policy: truncated byte")
		return 0
	}
	b := r.data[0]
	r.data = r.data[1:]
	return b
}

func (r *reader) carg(depth int) (CArg, error) {
	if depth > value.MaxDepth {
		return CArg{}, errors.New("policy: tuple pattern too deep")
	}
	var a CArg
	a.Kind = ArgKind(r.byte())
	switch a.Kind {
	case CConst:
		a.Const = uint32(r.uvarint())
	case CVar:
		a.Slot = uint32(r.uvarint())
	case CExpr:
		a.Slot = uint32(r.uvarint())
		a.Add = r.varint()
	case CTuple:
		n := r.uvarint()
		if n > 255 {
			return CArg{}, errors.New("policy: tuple name too long")
		}
		if r.err == nil && uint64(len(r.data)) >= n {
			a.TupName = string(r.data[:n])
			r.data = r.data[n:]
		} else if r.err == nil {
			r.err = errors.New("policy: truncated tuple name")
		}
		nArgs := r.uvarint()
		if nArgs > 255 {
			return CArg{}, errors.New("policy: tuple too wide")
		}
		for i := uint64(0); i < nArgs; i++ {
			t, err := r.carg(depth + 1)
			if err != nil {
				return CArg{}, err
			}
			a.TupArgs = append(a.TupArgs, t)
		}
	case CThis, CLog, CNull:
	default:
		if r.err == nil {
			r.err = fmt.Errorf("policy: bad arg kind %d", a.Kind)
		}
	}
	return a, r.err
}
