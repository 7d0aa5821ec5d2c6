// Package archtest checks the architecture from the module's syntax
// trees: the invariants each "one X" simplification left behind, and the
// two rules the security argument rests on — a read is judged in one
// place, and no byte a drive returns is believed before its record's
// bound opener has checked it (docs/storage.md, "Who opens what").
//
// A rule is a row of the table in rules_test.go. It carries the
// violations it must catch: each mutant is a textual edit to an
// in-memory copy of one real file, and the rule must report that file
// once the edit is applied. The checker imports only the standard
// library and reads the tree once: every Go file, the docs and the CI
// workflow.
package archtest

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"maps"
	"os"
	pathpkg "path"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// The files besides Go source that rules read: these, and every
// docs/*.md.
const (
	workflow   = ".github/workflows/ci.yml"
	readme     = "README.md"
	storageDoc = "docs/storage.md"
	perfDoc    = "docs/perf.md"
)

// drive is the qualifier of a selector on a drive connection or on the
// records layer's drive table.
const drive = "drive"

// A rule is one architectural invariant. check reports every place the
// tree breaks it as "path:line: what", or "path: what" where no line
// applies; table is the whole rule table, for rules about the table.
type rule struct {
	name    string
	check   func(t *tree, table []rule) []string
	mutants []mutant
}

// A mutant replaces the one occurrence of old in file with new.
type mutant struct {
	file, old, new string
}

// tree is the module as the rules see it: its Go files, test files
// included, and the text files rules read.
type tree struct {
	files []*goFile // sorted by path
	text  map[string]string
}

// goFile is what one Go file declares and references.
type goFile struct {
	path    string // module-relative, slash-separated
	test    bool
	src     string
	imports []lit // import paths
	decls   []decl
	refs    []ref
	lits    []lit
	notes   []lit // comment groups, comment markers stripped
}

// funcName names a function: a method carries its receiver's type.
type funcName struct{ recv, name string }

// is reports whether s names f: "name" names every function or method so
// called, "Recv.name" only the method of that type.
func (f funcName) is(s string) bool {
	return s == f.name || f.recv != "" && s == f.recv+"."+f.name
}

func (f funcName) String() string {
	switch {
	case f.name == "":
		return "package scope"
	case f.recv == "":
		return f.name
	}
	return f.recv + "." + f.name
}

// decl is a declared name: a function or method, a package-level type,
// variable or constant, or a struct field (recv is then empty).
type decl struct {
	funcName
	line int
}

// ref is one selector expression X.name inside function fn; a closure
// belongs to the function that encloses it.
type ref struct {
	fn   funcName
	pkg  string // X's import path, drive if X is a drive connection, else ""
	name string
	args []string // for a call, the callee names of the arguments that are calls
	argv []string // for a call, each argument as spelled
	line int
}

// lit is one string literal, unquoted.
type lit struct {
	val  string
	line int
}

// A sym picks out references X.Name.
type sym struct {
	// pkg is the import path X must name, or drive: X is a drive
	// connection or table — a pick() call or a field named drives, or a
	// variable one was assigned to in the same function. Empty matches
	// any X.
	pkg   string
	names []string
	// arg, if set, keeps only calls one of whose arguments is a call of
	// a function so named.
	arg string
}

func (s sym) match(r ref) bool {
	return (s.pkg == "" || s.pkg == r.pkg) && slices.Contains(s.names, r.name) &&
		(s.arg == "" || slices.Contains(r.args, s.arg))
}

func (s sym) String() string {
	str := strings.Join(s.names, "|")
	if s.pkg != "" {
		str = pathpkg.Base(s.pkg) + "." + str
	}
	if s.arg != "" {
		str += "(…" + s.arg + "(…)…)"
	}
	return str
}

// onlyIn: s is referenced in scope only inside fns, and inside each of
// them, so a listed function that stops using it makes the rule stale.
func onlyIn(s sym, scope []string, fns ...string) func(*tree, []rule) []string {
	return func(t *tree, _ []rule) (bad []string) {
		used := map[string]bool{}
		for _, f := range t.goFiles(scope) {
			for _, r := range f.refs {
				if !s.match(r) {
					continue
				}
				if i := slices.IndexFunc(fns, r.fn.is); i >= 0 {
					used[fns[i]] = true
				} else {
					bad = append(bad, fmt.Sprintf("%s:%d: %s in %s", f.path, r.line, s, r.fn))
				}
			}
		}
		for _, fn := range fns {
			if !used[fn] {
				bad = append(bad, fmt.Sprintf("%s: the rule lists %s, which no longer references it", s, fn))
			}
		}
		return bad
	}
}

// all: every one of checks holds.
func all(checks ...func(*tree, []rule) []string) func(*tree, []rule) []string {
	return func(t *tree, table []rule) (bad []string) {
		for _, c := range checks {
			bad = append(bad, c(t, table)...)
		}
		return bad
	}
}

// nowhere: s is not referenced in scope at all.
func nowhere(s sym, scope ...string) func(*tree, []rule) []string {
	return onlyIn(s, scope)
}

// inFiles: s is referenced in scope only inside the files named.
func inFiles(s sym, scope []string, files ...string) func(*tree, []rule) []string {
	return func(t *tree, _ []rule) (bad []string) {
		for _, f := range t.goFiles(scope) {
			if slices.Contains(files, f.path) {
				continue
			}
			for _, r := range f.refs {
				if s.match(r) {
					bad = append(bad, fmt.Sprintf("%s:%d: %s outside %s", f.path, r.line, s, strings.Join(files, ", ")))
				}
			}
		}
		return bad
	}
}

// count: s is referenced exactly want[path] times in each file of scope,
// and nowhere else in it.
func count(s sym, scope []string, want map[string]int) func(*tree, []rule) []string {
	return func(t *tree, _ []rule) (bad []string) {
		seen := map[string]bool{}
		for _, f := range t.goFiles(scope) {
			seen[f.path] = true
			n := 0
			for _, r := range f.refs {
				if s.match(r) {
					n++
				}
			}
			if n != want[f.path] {
				bad = append(bad, fmt.Sprintf("%s: %d references to %s, want %d", f.path, n, s, want[f.path]))
			}
		}
		for p := range want {
			if !seen[p] {
				bad = append(bad, fmt.Sprintf("%s: the rule counts in a file that does not exist", p))
			}
		}
		return bad
	}
}

// argIs: every reference in scope to a function named in pos is a call
// that passes want, as spelled, as its argument pos[name].
func argIs(scope []string, want string, pos map[string]int) func(*tree, []rule) []string {
	return func(t *tree, _ []rule) (bad []string) {
		for _, f := range t.goFiles(scope) {
			for _, r := range f.refs {
				if i, ok := pos[r.name]; ok && (i >= len(r.argv) || r.argv[i] != want) {
					bad = append(bad, fmt.Sprintf("%s:%d: %s in %s does not pass %s", f.path, r.line, r.name, r.fn, want))
				}
			}
		}
		return bad
	}
}

// gone: nothing in scope is declared under any of names ("name", or
// "Recv.name" for one type's method).
func gone(scope []string, names ...string) func(*tree, []rule) []string {
	return func(t *tree, _ []rule) (bad []string) {
		for _, f := range t.goFiles(scope) {
			for _, d := range f.decls {
				if slices.ContainsFunc(names, d.is) {
					bad = append(bad, fmt.Sprintf("%s:%d: %s is declared", f.path, d.line, d.funcName))
				}
			}
		}
		return bad
	}
}

// declaredOnlyIn: of the files in scope, only those under within
// declare name ("name", or "Recv.name"), and one of them does.
func declaredOnlyIn(name string, scope []string, within ...string) func(*tree, []rule) []string {
	return func(t *tree, _ []rule) (bad []string) {
		declared := false
		for _, f := range t.goFiles(scope) {
			for _, d := range f.decls {
				switch {
				case !d.is(name):
				case under(within, f.path):
					declared = true
				default:
					bad = append(bad, fmt.Sprintf("%s:%d: %s is declared outside %s", f.path, d.line, d.funcName, strings.Join(within, ", ")))
				}
			}
		}
		if !declared {
			bad = append(bad, fmt.Sprintf("%s: the rule pins %s, which %s no longer declares", strings.Join(within, ", "), name, strings.Join(within, ", ")))
		}
		return bad
	}
}

// importedOnlyIn: of the files in scope, only those under within
// import pkg.
func importedOnlyIn(pkg string, scope []string, within ...string) func(*tree, []rule) []string {
	return func(t *tree, _ []rule) (bad []string) {
		for _, f := range t.goFiles(scope) {
			if under(within, f.path) {
				continue
			}
			for _, im := range f.imports {
				if im.val == pkg {
					bad = append(bad, fmt.Sprintf("%s:%d: imports %s outside %s", f.path, im.line, pkg, strings.Join(within, ", ")))
				}
			}
		}
		return bad
	}
}

// noLiteral: no string literal in scope matches pattern.
func noLiteral(scope []string, pattern string) func(*tree, []rule) []string {
	re := regexp.MustCompile(pattern)
	return func(t *tree, _ []rule) (bad []string) {
		for _, f := range t.goFiles(scope) {
			for _, l := range f.lits {
				if re.MatchString(l.val) {
					bad = append(bad, fmt.Sprintf("%s:%d: literal %q matches %s", f.path, l.line, l.val, pattern))
				}
			}
		}
		return bad
	}
}

// fuzzStep is a fuzz-smoke step: its target and its package directory.
var fuzzStep = regexp.MustCompile(`-fuzz '\^(Fuzz\w*)\$'.*\s\./(\S+)\s*$`)

// fuzzSmoke: every fuzz target in the module is run by a step of the
// workflow's fuzz-smoke job, and every such step runs a target that
// exists.
func fuzzSmoke(t *tree, _ []rule) (bad []string) {
	targets := map[string]string{} // "dir.FuzzX" → where it is declared
	for _, f := range t.files {
		for _, d := range f.decls {
			if f.test && d.recv == "" && strings.HasPrefix(d.name, "Fuzz") {
				targets[pathpkg.Dir(f.path)+"."+d.name] = fmt.Sprintf("%s:%d", f.path, d.line)
			}
		}
	}
	run := map[string]string{} // "dir.FuzzX" → the step that runs it
	in := false
	for i, line := range strings.Split(t.text[workflow], "\n") {
		if len(line) > 2 && line[:2] == "  " && line[2] != ' ' {
			in = line == "  fuzz-smoke:"
		}
		if m := fuzzStep.FindStringSubmatch(line); in && m != nil {
			run[m[2]+"."+m[1]] = fmt.Sprintf("%s:%d", workflow, i+1)
		}
	}
	for k, at := range targets {
		if _, ok := run[k]; !ok {
			bad = append(bad, fmt.Sprintf("%s: %s is run by no fuzz-smoke step", at, k))
		}
	}
	for k, at := range run {
		if _, ok := targets[k]; !ok {
			bad = append(bad, fmt.Sprintf("%s: fuzz-smoke runs %s, which is declared nowhere", at, k))
		}
	}
	slices.Sort(bad)
	return bad
}

// docTable: the "checked by" column of docs/storage.md's "Who opens
// what" table names existing rules only, and every opener and writer
// rule (named open-… or write-…) is named by some row.
func docTable(t *tree, table []rule) (bad []string) {
	named := map[string]bool{}
	col, in := -1, false
	for i, line := range strings.Split(t.text[storageDoc], "\n") {
		if strings.HasPrefix(line, "#") {
			in = strings.HasPrefix(line, "### Who opens what")
			continue
		}
		if !in || !strings.HasPrefix(line, "|") || strings.HasPrefix(line, "|---") {
			continue
		}
		cells := strings.Split(line, "|")
		if col < 0 {
			col = slices.IndexFunc(cells, func(c string) bool { return strings.TrimSpace(c) == "checked by" })
			if col < 0 {
				return []string{fmt.Sprintf("%s:%d: the table has no \"checked by\" column", storageDoc, i+1)}
			}
			continue
		}
		var names []string
		if col < len(cells) {
			names = backticked.FindAllString(cells[col], -1)
		}
		if len(names) == 0 {
			bad = append(bad, fmt.Sprintf("%s:%d: the row names no rule", storageDoc, i+1))
		}
		for _, n := range names {
			n = strings.Trim(n, "`")
			named[n] = true
			if !slices.ContainsFunc(table, func(r rule) bool { return r.name == n }) {
				bad = append(bad, fmt.Sprintf("%s:%d: checked by %s, which is no rule", storageDoc, i+1, n))
			}
		}
	}
	if col < 0 {
		return []string{storageDoc + `: no "Who opens what" table`}
	}
	for _, r := range table {
		if (strings.HasPrefix(r.name, "open-") || strings.HasPrefix(r.name, "write-")) && !named[r.name] {
			bad = append(bad, fmt.Sprintf("%s: no row is checked by %s", storageDoc, r.name))
		}
	}
	return bad
}

var backticked = regexp.MustCompile("`[^`]+`")

// perfNotesMax is the length docs/perf.md stays under: one design note
// per mechanism; run logs go in CHANGES.md.
const perfNotesMax = 600

// citation is a reference to a section of a doc: docs/x.md, maybe
// closed by a backtick or a parenthesis or followed by 's, maybe a
// comma, then a quoted heading, then maybe more quoted headings of the
// same doc joined by "and" or commas.
var (
	citation = regexp.MustCompile("docs/(\\w+\\.md)(?:`|\\)|'s)?,?\\s*\"([^\"]+)\"((?:\\s*(?:,|and)\\s*\"[^\"]+\")*)")
	quoted   = regexp.MustCompile(`"([^"]+)"`)
)

// docCitations: every citation of a doc section in a Go comment, a doc
// or the README names a heading of that doc, and docs/perf.md stays
// under perfNotesMax lines.
func docCitations(t *tree, _ []rule) (bad []string) {
	headings := map[string][]string{} // doc → its headings
	for p, text := range t.text {
		if strings.HasPrefix(p, "docs/") {
			headings[p] = mdHeadings(text)
		}
	}
	check := func(path string, line int, text string) {
		for _, m := range citation.FindAllStringSubmatchIndex(text, -1) {
			doc := "docs/" + text[m[2]:m[3]]
			at := line + strings.Count(text[:m[0]], "\n")
			names := []string{text[m[4]:m[5]]}
			for _, q := range quoted.FindAllStringSubmatch(text[m[6]:m[7]], -1) {
				names = append(names, q[1])
			}
			hs, ok := headings[doc]
			for _, n := range names {
				n = strings.Join(strings.Fields(n), " ")
				switch {
				case !ok:
					bad = append(bad, fmt.Sprintf("%s:%d: cites %s, which does not exist", path, at, doc))
				case !slices.ContainsFunc(hs, func(h string) bool { return cites(n, h) }):
					bad = append(bad, fmt.Sprintf("%s:%d: cites %s %q, which is no heading of it", path, at, doc, n))
				}
			}
		}
	}
	for _, f := range t.files {
		for _, c := range f.notes {
			check(f.path, c.line, c.val)
		}
	}
	for p, text := range t.text {
		if strings.HasSuffix(p, ".md") {
			check(p, 1, text)
		}
	}
	if n := strings.Count(t.text[perfDoc], "\n"); n >= perfNotesMax {
		bad = append(bad, fmt.Sprintf("%s:%d: design notes stay under %d lines", perfDoc, n, perfNotesMax))
	}
	slices.Sort(bad)
	return bad
}

// mdHeadings lists a markdown text's headings, whitespace collapsed,
// outside fenced code blocks.
func mdHeadings(text string) (hs []string) {
	fenced := false
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, "```") {
			fenced = !fenced
		} else if h, ok := strings.CutPrefix(line, "#"); ok && !fenced {
			hs = append(hs, strings.Join(strings.Fields(strings.TrimLeft(h, "#")), " "))
		}
	}
	return hs
}

// cites reports whether the cited name c names heading h: h whole, h's
// title (its text before the first colon), or, when c ends in "…", a
// prefix of h.
func cites(c, h string) bool {
	if p, ok := strings.CutSuffix(c, "…"); ok {
		return strings.HasPrefix(h, strings.TrimSpace(p))
	}
	title, _, _ := strings.Cut(h, ":")
	return c == h || c == title
}

// under reports whether path is in scope: a pattern is a path.Match glob,
// "dir/..." for everything below dir, or "..." for the module.
func under(scope []string, path string) bool {
	for _, p := range scope {
		if dir, ok := strings.CutSuffix(p, "..."); ok && strings.HasPrefix(path, dir) {
			return true
		}
		if ok, _ := pathpkg.Match(p, path); ok {
			return true
		}
	}
	return false
}

// goFiles returns the non-test Go files in scope.
func (t *tree) goFiles(scope []string) []*goFile {
	var out []*goFile
	for _, f := range t.files {
		if !f.test && under(scope, f.path) {
			out = append(out, f)
		}
	}
	return out
}

// load reads the module rooted at root.
func load(root string) (*tree, error) {
	t := &tree{text: map[string]string{}}
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") {
			return nil
		}
		src, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, p)
		if err != nil {
			return err
		}
		f, err := parse(filepath.ToSlash(rel), string(src))
		if err != nil {
			return err
		}
		t.files = append(t.files, f)
		return nil
	})
	if err != nil {
		return nil, err
	}
	texts := []string{workflow, readme}
	docs, err := filepath.Glob(filepath.Join(root, "docs", "*.md"))
	if err != nil {
		return nil, err
	}
	for _, d := range docs {
		texts = append(texts, "docs/"+filepath.Base(d))
	}
	for _, p := range texts {
		b, err := os.ReadFile(filepath.Join(root, p))
		if err != nil {
			return nil, err
		}
		t.text[p] = string(b)
	}
	return t, nil
}

// with returns a copy of t with m applied; t is unchanged.
func (t *tree) with(m mutant) (*tree, error) {
	src, isText := t.text[m.file]
	i := slices.IndexFunc(t.files, func(f *goFile) bool { return f.path == m.file })
	if i >= 0 {
		src = t.files[i].src
	} else if !isText {
		return nil, fmt.Errorf("mutant: no file %s", m.file)
	}
	if n := strings.Count(src, m.old); n != 1 {
		return nil, fmt.Errorf("mutant: %q occurs %d times in %s, want once", m.old, n, m.file)
	}
	src = strings.Replace(src, m.old, m.new, 1)
	out := &tree{files: slices.Clone(t.files), text: t.text}
	if isText {
		out.text = maps.Clone(t.text)
		out.text[m.file] = src
		return out, nil
	}
	f, err := parse(m.file, src)
	if err != nil {
		return nil, err
	}
	out.files[i] = f
	return out, nil
}

// parse indexes one Go file.
func parse(path, src string) (*goFile, error) {
	fset := token.NewFileSet()
	af, err := parser.ParseFile(fset, path, src, parser.SkipObjectResolution|parser.ParseComments)
	if err != nil {
		return nil, err
	}
	f := &goFile{path: path, test: strings.HasSuffix(path, "_test.go"), src: src}
	line := func(n ast.Node) int { return fset.Position(n.Pos()).Line }
	for _, cg := range af.Comments {
		f.notes = append(f.notes, lit{cg.Text(), line(cg)})
	}
	imports := map[string]string{} // local name → import path
	for _, im := range af.Imports {
		p, _ := strconv.Unquote(im.Path.Value)
		name := pathpkg.Base(p)
		if im.Name != nil {
			name = im.Name.Name
		}
		imports[name] = p
		f.imports = append(f.imports, lit{p, line(im)})
	}
	for _, d := range af.Decls {
		fn := funcName{}
		if fd, ok := d.(*ast.FuncDecl); ok {
			fn.name = fd.Name.Name
			if fd.Recv != nil && len(fd.Recv.List) == 1 {
				fn.recv = recvType(fd.Recv.List[0].Type)
			}
			f.decls = append(f.decls, decl{fn, line(fd)})
		}
		drives := map[string]bool{} // variables holding a drive connection
		seen := map[*ast.SelectorExpr]bool{}
		ast.Inspect(d, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.TypeSpec:
				f.decls = append(f.decls, decl{funcName{name: n.Name.Name}, line(n)})
			case *ast.ValueSpec:
				for i, id := range n.Names {
					if fn.name == "" {
						f.decls = append(f.decls, decl{funcName{name: id.Name}, line(id)})
					}
					if i < len(n.Values) && isDrive(n.Values[i]) {
						drives[id.Name] = true
					}
				}
			case *ast.StructType:
				for _, fld := range n.Fields.List {
					for _, id := range fld.Names {
						f.decls = append(f.decls, decl{funcName{name: id.Name}, line(id)})
					}
				}
			case *ast.AssignStmt:
				for i, rhs := range n.Rhs {
					if id, ok := n.Lhs[i].(*ast.Ident); ok && isDrive(rhs) {
						drives[id.Name] = true
					}
				}
			case *ast.CallExpr:
				if s, ok := n.Fun.(*ast.SelectorExpr); ok {
					seen[s] = true
					r := ref{fn: fn, pkg: qualifier(s.X, imports, drives), name: s.Sel.Name, line: line(s.Sel)}
					for _, a := range n.Args {
						if c, ok := a.(*ast.CallExpr); ok {
							r.args = append(r.args, callee(c))
						}
						r.argv = append(r.argv, src[fset.Position(a.Pos()).Offset:fset.Position(a.End()).Offset])
					}
					f.refs = append(f.refs, r)
				}
			case *ast.SelectorExpr:
				if !seen[n] {
					f.refs = append(f.refs, ref{fn: fn, pkg: qualifier(n.X, imports, drives), name: n.Sel.Name, line: line(n.Sel)})
				}
			case *ast.BasicLit:
				if n.Kind == token.STRING {
					if v, err := strconv.Unquote(n.Value); err == nil {
						f.lits = append(f.lits, lit{v, line(n)})
					}
				}
			}
			return true
		})
	}
	return f, nil
}

// recvType is the base type name of a method receiver.
func recvType(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

// isDrive reports whether e is a drive connection, a pool.pick() call, or
// the records layer's drive table, a field named drives.
func isDrive(e ast.Expr) bool {
	if s, ok := e.(*ast.SelectorExpr); ok {
		return s.Sel.Name == "drives"
	}
	c, ok := e.(*ast.CallExpr)
	return ok && len(c.Args) == 0 && callee(c) == "pick"
}

// callee is the name a call calls: f in f(…) and x.f(…).
func callee(c *ast.CallExpr) string {
	switch fn := c.Fun.(type) {
	case *ast.Ident:
		return fn.Name
	case *ast.SelectorExpr:
		return fn.Sel.Name
	}
	return ""
}

// qualifier classifies the X of a selector X.name.
func qualifier(x ast.Expr, imports map[string]string, drives map[string]bool) string {
	if isDrive(x) {
		return drive
	}
	if id, ok := x.(*ast.Ident); ok {
		if drives[id.Name] {
			return drive
		}
		return imports[id.Name]
	}
	return ""
}

// base is the module as it is, read once for every test.
var base = sync.OnceValues(func() (*tree, error) { return load(filepath.Join("..", "..")) })

func baseTree(t *testing.T) *tree {
	t.Helper()
	tr, err := base()
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestRules runs every rule on the module: each reports nothing.
func TestRules(t *testing.T) {
	tr := baseTree(t)
	for _, r := range rules {
		t.Run(r.name, func(t *testing.T) {
			for _, v := range r.check(tr, rules) {
				t.Error(v)
			}
		})
	}
}

// TestMutants plants each rule's violations: every rule has at least
// one, and reports each in the file it was planted in.
func TestMutants(t *testing.T) {
	tr := baseTree(t)
	names := map[string]bool{}
	for _, r := range rules {
		if names[r.name] {
			t.Errorf("two rules are named %s", r.name)
		}
		names[r.name] = true
		t.Run(r.name, func(t *testing.T) {
			if len(r.mutants) == 0 {
				t.Fatal("no mutant shows the rule can fail")
			}
			for _, m := range r.mutants {
				mt, err := tr.with(m)
				if err != nil {
					t.Error(err)
					continue
				}
				got := r.check(mt, rules)
				if !slices.ContainsFunc(got, func(v string) bool { return strings.HasPrefix(v, m.file+":") }) {
					t.Errorf("%q → %q is not reported in %s; the rule says %q", m.old, m.new, m.file, got)
				}
			}
		})
	}
}
