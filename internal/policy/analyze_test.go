package policy

import (
	"strings"
	"testing"

	"repro/internal/policy/lang"
)

func TestAnalyzeACL(t *testing.T) {
	prog := mustCompile(t, `
		read :- sessionKeyIs(k'aa') or sessionKeyIs(k'bb')
		update :- sessionKeyIs(k'aa')
	`)
	a := Analyze(prog)
	if len(a.Principals) != 2 || a.Principals[0] != "aa" || a.Principals[1] != "bb" {
		t.Errorf("principals: %v", a.Principals)
	}
	if !a.Grants[lang.PermRead] || !a.Grants[lang.PermUpdate] || a.Grants[lang.PermDelete] {
		t.Errorf("grants: %v", a.Grants)
	}
	if a.UsesContent || a.UsesCertificates || a.UsesVersions {
		t.Error("flags should be clear for a plain ACL")
	}
	if a.Predicates["sessionKeyIs"] != 3 || a.Clauses != 3 {
		t.Errorf("counts: %+v", a)
	}
	if a.Open(prog, lang.PermRead) {
		t.Error("key-pinned policy reported open")
	}
}

func TestAnalyzeRichPolicy(t *testing.T) {
	prog := mustCompile(t, `
		read :- sessionKeyIs(U) and objSays(log, V, read(O, U))
		update :- certificateSays(k'cafe', 60, 'time'(T)) and currVersion(this, CV) and nextVersion(CV + 1)
	`)
	a := Analyze(prog)
	if !a.UsesContent || !a.UsesCertificates || !a.UsesVersions {
		t.Errorf("flags: %+v", a)
	}
	if len(a.Authorities) != 1 || a.Authorities[0] != "cafe" {
		t.Errorf("authorities: %v", a.Authorities)
	}
	if a.Open(prog, lang.PermRead) {
		t.Error("objSays-guarded read reported open")
	}
}

func TestAnalyzeOpen(t *testing.T) {
	prog := mustCompile(t, "read :- sessionKeyIs(U)")
	a := Analyze(prog)
	if !a.Open(prog, lang.PermRead) {
		t.Error("any-authenticated-client policy not reported open")
	}
	if a.Open(prog, lang.PermUpdate) {
		t.Error("ungranted permission reported open")
	}
}

func TestAnalyzeMALTemplateShape(t *testing.T) {
	// The MAL use-case policy should register as content-dependent.
	src := "read :- objId(this, O) and sessionKeyIs(U) and objSays(log, LV, read(O, U))"
	prog := mustCompile(t, src)
	a := Analyze(prog)
	if !a.UsesContent {
		t.Error("MAL-style policy not flagged content-dependent")
	}
	if a.PredicateCount != 3 {
		t.Errorf("predicate count %d", a.PredicateCount)
	}
	// Analysis must not mutate the program: hash stays stable.
	h1 := prog.Hash()
	Analyze(prog)
	if prog.Hash() != h1 {
		t.Error("analysis mutated the program")
	}
	_ = strings.TrimSpace(src)
}
