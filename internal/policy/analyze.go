package policy

import (
	"sort"

	"repro/internal/policy/lang"
	"repro/internal/policy/value"
)

// Analysis is a static summary of a compiled policy, the audit view
// policyc and operators use to understand what a policy id enforces
// without reading the clause structure.
type Analysis struct {
	// Principals are the public-key fingerprints named anywhere in
	// the policy (sessionKeyIs or key literals).
	Principals []string
	// Authorities are key fingerprints used as certificate signers.
	Authorities []string
	// Predicates counts predicate uses by canonical name.
	Predicates map[string]int
	// Grants reports which permissions have at least one clause.
	Grants [lang.NumPerms]bool
	// UsesContent is true when the policy reads object content
	// (objSays), which makes evaluation data-dependent.
	UsesContent bool
	// UsesCertificates is true when external certified facts are
	// required (certificateSays).
	UsesCertificates bool
	// UsesVersions is true for currVersion/nextVersion policies.
	UsesVersions bool
	// Clauses and PredicateCount size the policy.
	Clauses        int
	PredicateCount int
}

// Analyze computes the static summary of a program.
func Analyze(p *Program) *Analysis {
	a := &Analysis{Predicates: make(map[string]int)}
	principals := map[string]bool{}
	authorities := map[string]bool{}

	for perm := lang.Perm(0); perm < lang.NumPerms; perm++ {
		clauses := p.Perms[perm]
		if len(clauses) > 0 {
			a.Grants[perm] = true
		}
		a.Clauses += len(clauses)
		for _, cl := range clauses {
			for _, pr := range cl.Preds {
				a.PredicateCount++
				a.Predicates[predName(pr.ID)]++
				switch pr.ID {
				case PObjSays:
					a.UsesContent = true
				case PCertificateSays:
					a.UsesCertificates = true
					if len(pr.Args) > 0 && pr.Args[0].Kind == CConst {
						v := p.Consts[pr.Args[0].Const]
						if v.Kind == value.KPubKey {
							authorities[v.Key] = true
						}
					}
				case PCurrVersion, PNextVersion:
					a.UsesVersions = true
				case PSessionKeyIs:
					if len(pr.Args) == 1 && pr.Args[0].Kind == CConst {
						v := p.Consts[pr.Args[0].Const]
						if v.Kind == value.KPubKey {
							principals[v.Key] = true
						}
					}
				}
			}
		}
	}
	for k := range principals {
		a.Principals = append(a.Principals, k)
	}
	for k := range authorities {
		a.Authorities = append(a.Authorities, k)
	}
	sort.Strings(a.Principals)
	sort.Strings(a.Authorities)
	return a
}

// Open reports whether the permission can be satisfied by any
// authenticated client regardless of identity: a clause whose only
// session requirement is an unbound variable. Conservative: clauses
// using other predicates report false even if always satisfiable.
func (a *Analysis) Open(p *Program, perm lang.Perm) bool {
	for _, cl := range p.Perms[perm] {
		open := true
		for _, pr := range cl.Preds {
			if pr.ID != PSessionKeyIs {
				open = false
				break
			}
			if pr.Args[0].Kind == CConst {
				open = false
				break
			}
		}
		if open && len(cl.Preds) > 0 {
			return true
		}
	}
	return false
}
