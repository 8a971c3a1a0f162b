// Package reach checks that every non-test declaration of the module is
// reached by some program. The package holds only this test.
//
// Roots: main of every main package, every init function, the
// initializers of package-level variables, every exported
// declaration of the root package (with the exported methods of the
// types it re-exports by alias), every non-test declaration of the
// benchmark module, and every allowlisted declaration. Rules:
//
//   - a declaration reaches whatever its body names;
//   - a method is live when its receiver type is live and the method is
//     named by live code, or has the name of a method of some interface
//     type in the program or the standard library;
//   - a struct type is live only when live code makes a value of it: a
//     composite literal, new, make, a conversion, or a value-typed
//     variable, field, element or type argument. Naming it in a type
//     switch, an assertion or a signature does not count.
//
// Struct fields and flags are out of scope. Everything is parsed and
// type-checked with the standard library: go list for the file sets and
// the export data, go/parser, go/types and the gc importer.
package reach

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"
)

// allowed names one declaration ("pkg.Name"), one type with its methods
// ("pkg.Type"), or one package ("pkg") that no program reaches on purpose.
type allowed struct {
	name, reason string
}

// allowlist is kept to at most maxAllowed entries, each with its reason.
// An entry that no longer matches a finding fails the test.
var allowlist = []allowed{
	{"alloctest", "allocation-ceiling fixture for the engine and tpch tests"},
	{"faultfs", "filesystem fault injector for the tests of seven packages"},
	{"faultnet.Plan", "the fault-plan builders the controlplane tests call"},
	{"expr.EvalScalar", "row-at-a-time reference evaluator the expression kernels are checked against"},
	{"catalog.Table.AppendRow", "builds small tables row by row in the tests of seven packages"},
	{"vector.Chunk.AppendRowValues", "builds chunks row by row in the tests of five packages"},
	{"vector.Chunk.Types", "the column types the expr tests hand to EvalScalar"},
	{"obs.Event.Attr", "reads one attribute of a trace event in the root, engine and obs tests"},
	{"server.Server.InfoByKey", "looks a session up by its key in the server and controlplane tests"},
	{"server.Server.Kill", "the in-process instance death the server and controlplane tests inflict"},
}

const maxAllowed = 25

// TestEveryDeclarationIsReached fails on any declaration no program
// reaches that the allowlist does not name, and on any stale entry.
func TestEveryDeclarationIsReached(t *testing.T) {
	start := time.Now()
	if len(allowlist) > maxAllowed {
		t.Errorf("allowlist has %d entries, at most %d allowed", len(allowlist), maxAllowed)
	}
	for _, a := range allowlist {
		if a.reason == "" {
			t.Errorf("allowlist entry %s gives no reason", a.name)
		}
	}
	res, err := analyze(filepath.Join("..", ".."), []string{filepath.Join("..", "..", "benchmark")}, allowlist)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range res.unlisted {
		t.Errorf("%s (unreached: delete it, or give it a caller)", f)
	}
	for _, s := range res.stale {
		t.Errorf("allowlist: %s", s)
	}
	t.Logf("%d declarations, %d allowlisted findings, %s", res.decls, len(res.listed), time.Since(start).Round(time.Millisecond))
}

// TestCheckRulesOnFixture runs the check on a small module that holds one
// case of each rule, and on an allowlist with one live and one missing
// entry.
func TestCheckRulesOnFixture(t *testing.T) {
	res, err := analyze(filepath.Join("testdata", "fixture"), nil, []allowed{
		{"inner.kept", "allowlisted: its callee is reached through it"},
		{"inner.revived", "stale: live code calls it"},
		{"inner.gone", "stale: no such declaration"},
	})
	if err != nil {
		t.Fatal(err)
	}
	names := func(fs []finding) []string {
		var out []string
		for _, f := range fs {
			out = append(out, f.name)
		}
		return out
	}
	want := []string{
		"inner.Thing.reset", // no caller, no interface of its name
		"inner.orphan",      // named only in a type switch
		"inner.orphan.kind", // its receiver is never made
		"inner.deadCaller",  // no caller
		"inner.deadCallee",  // only a dead function calls it
	}
	if got := names(res.unlisted); !slices.Equal(got, want) {
		t.Errorf("unlisted findings = %q, want %q", got, want)
	}
	if got := names(res.listed); !slices.Equal(got, []string{"inner.kept"}) {
		t.Errorf("allowlisted findings = %q, want inner.kept", got)
	}
	wantStale := []string{
		"inner.revived is no longer unreached; remove its entry",
		"inner.gone no longer exists; remove its entry",
	}
	if !slices.Equal(res.stale, wantStale) {
		t.Errorf("stale entries = %q, want %q", res.stale, wantStale)
	}
	if len(res.unlisted) > 0 && res.unlisted[0].String() != "inner/inner.go:13: inner.Thing.reset" {
		t.Errorf("a finding prints as %q, want file:line: pkg.Name", res.unlisted[0])
	}
}

// result is one run of the check.
type result struct {
	decls    int
	listed   []finding // unreached, and named by the allowlist
	unlisted []finding // unreached, and not named by it
	stale    []string  // allowlist entries that match no unreached declaration
}

type finding struct {
	pos  token.Position
	name string
}

func (f finding) String() string {
	return fmt.Sprintf("%s:%d: %s", filepath.ToSlash(f.pos.Filename), f.pos.Line, f.name)
}

// listedPkg is the part of `go list -json` the check reads.
type listedPkg struct {
	Dir        string
	ImportPath string
	Name       string
	GoFiles    []string
	Imports    []string
	Export     string
	Module     *struct{ Path string }
	Error      *struct{ Err string }
}

// goList lists the packages of the module in dir that hold non-test Go
// files.
func goList(dir string) ([]*listedPkg, error) {
	all, err := runGoList(dir, "-json=Dir,ImportPath,Name,GoFiles,Imports,Module,Error", "./...")
	if err != nil {
		return nil, err
	}
	var pkgs []*listedPkg
	for _, p := range all {
		if len(p.GoFiles) > 0 {
			pkgs = append(pkgs, p)
		}
	}
	return pkgs, nil
}

func runGoList(dir string, args ...string) ([]*listedPkg, error) {
	cmd := exec.Command("go", append([]string{"list"}, args...)...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list in %s: %v\n%s", dir, err, stderr.Bytes())
	}
	var pkgs []*listedPkg
	dec := json.NewDecoder(bytes.NewReader(out))
	for dec.More() {
		p := new(listedPkg)
		if err := dec.Decode(p); err != nil {
			return nil, err
		}
		if p.Error != nil {
			return nil, fmt.Errorf("go list: %s: %s", p.ImportPath, p.Error.Err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// stdImporter is the gc importer over the export data of every package
// outside pkgs that pkgs import. importer.Default finds the same files,
// but with one go command per package; one go list -export for all of
// them takes a tenth of the time.
func stdImporter(dir string, pkgs []*listedPkg) (types.Importer, error) {
	inModule := map[string]bool{}
	for _, p := range pkgs {
		inModule[p.ImportPath] = true
	}
	need := map[string]bool{}
	for _, p := range pkgs {
		for _, ip := range p.Imports {
			if !inModule[ip] && ip != "unsafe" {
				need[ip] = true
			}
		}
	}
	args := []string{"-export", "-json=ImportPath,Export,Error"}
	for ip := range need {
		args = append(args, ip)
	}
	listed, err := runGoList(dir, args...)
	if err != nil {
		return nil, err
	}
	exports := map[string]string{}
	for _, p := range listed {
		exports[p.ImportPath] = p.Export
	}
	return importer.ForCompiler(token.NewFileSet(), "gc", func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %s", path)
		}
		return os.Open(file)
	}), nil
}

// decl is one node of the graph: a function, a method, a type, a
// variable or a constant. The constants of one iota group share a node,
// since deleting one renumbers the rest.
type decl struct {
	name   string
	pos    token.Position
	syntax []ast.Node        // its declaration: one spec, or an iota group's specs
	recv   *decl             // the receiver type's node, for a method
	strukt bool              // a struct type: live only once made
	root   bool              // reached whatever names it
	report bool              // a finding when unreached (false in the benchmark)
	names  []types.Object    // what its syntax names
	makes  []*types.TypeName // the struct types it makes values of
}

// graph holds every declaration of the checked packages.
type graph struct {
	fset    *token.FileSet
	nodes   []*decl
	byObj   map[types.Object]*decl
	methods map[*decl][]*decl // a type's node to its methods' nodes
	ifaces  map[string]bool   // method names of every interface type seen
}

func analyze(moduleDir string, rootDirs []string, allow []allowed) (*result, error) {
	mod, err := goList(moduleDir)
	if err != nil {
		return nil, err
	}
	var extra []*listedPkg
	for _, d := range rootDirs {
		ps, err := goList(d)
		if err != nil {
			return nil, err
		}
		extra = append(extra, ps...)
	}
	g := &graph{
		fset:    token.NewFileSet(),
		byObj:   map[types.Object]*decl{},
		methods: map[*decl][]*decl{},
		// errors.Is, As and Unwrap look these up through unexported
		// interfaces that export data does not show.
		ifaces: map[string]bool{"Error": true, "Unwrap": true, "Is": true, "As": true},
	}
	modPath := ""
	if len(mod) > 0 && mod[0].Module != nil {
		modPath = mod[0].Module.Path
	}
	all := append(append([]*listedPkg{}, mod...), extra...)
	std, err := stdImporter(moduleDir, all)
	if err != nil {
		return nil, err
	}
	imp := &moduleImporter{std: std, pkgs: map[string]*types.Package{}}
	ordered, err := topoSort(all)
	if err != nil {
		return nil, err
	}
	isExtra := map[*listedPkg]bool{}
	for _, p := range extra {
		isExtra[p] = true
	}
	for _, p := range ordered {
		if err := g.check(p, imp, modPath, !isExtra[p]); err != nil {
			return nil, err
		}
	}
	g.collectStdInterfaces(imp)

	first := g.unreached(nil)
	res := &result{}
	for _, n := range g.nodes {
		if n.report {
			res.decls++
		}
	}
	var extraRoots []*decl
	for _, a := range allow {
		matched := false
		for _, n := range first {
			if a.matches(n.name) {
				matched = true
				break
			}
		}
		if !matched {
			state := "no longer exists"
			for _, n := range g.nodes {
				if a.matches(n.name) {
					state = "is no longer unreached"
					break
				}
			}
			res.stale = append(res.stale, fmt.Sprintf("%s %s; remove its entry", a.name, state))
		}
		for _, n := range g.nodes {
			if a.matches(n.name) {
				extraRoots = append(extraRoots, n)
			}
		}
	}
	abs, err := filepath.Abs(moduleDir)
	if err != nil {
		return nil, err
	}
	findingOf := func(n *decl) finding {
		f := finding{n.pos, n.name}
		if rel, err := filepath.Rel(abs, f.pos.Filename); err == nil {
			f.pos.Filename = rel
		}
		return f
	}
	for _, n := range first {
		if matchesAny(allow, n.name) {
			res.listed = append(res.listed, findingOf(n))
		}
	}
	for _, n := range g.unreached(extraRoots) {
		res.unlisted = append(res.unlisted, findingOf(n))
	}
	sortFindings(res.listed)
	sortFindings(res.unlisted)
	return res, nil
}

func (a allowed) matches(name string) bool {
	return name == a.name || strings.HasPrefix(name, a.name+".")
}

func matchesAny(allow []allowed, name string) bool {
	for _, a := range allow {
		if a.matches(name) {
			return true
		}
	}
	return false
}

func sortFindings(fs []finding) {
	sort.Slice(fs, func(i, j int) bool {
		if fs[i].pos.Filename != fs[j].pos.Filename {
			return fs[i].pos.Filename < fs[j].pos.Filename
		}
		return fs[i].pos.Line < fs[j].pos.Line
	})
}

// topoSort orders packages so that each comes after the packages of the
// list it imports.
func topoSort(pkgs []*listedPkg) ([]*listedPkg, error) {
	byPath := map[string]*listedPkg{}
	for _, p := range pkgs {
		byPath[p.ImportPath] = p
	}
	var out []*listedPkg
	state := map[*listedPkg]int{} // 1 visiting, 2 done
	var visit func(p *listedPkg) error
	visit = func(p *listedPkg) error {
		switch state[p] {
		case 1:
			return fmt.Errorf("import cycle through %s", p.ImportPath)
		case 2:
			return nil
		}
		state[p] = 1
		for _, ip := range p.Imports {
			if q := byPath[ip]; q != nil {
				if err := visit(q); err != nil {
					return err
				}
			}
		}
		state[p] = 2
		out = append(out, p)
		return nil
	}
	for _, p := range pkgs {
		if err := visit(p); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// moduleImporter serves the checked packages and leaves the rest to the
// standard library's importer.
type moduleImporter struct {
	std  types.Importer
	pkgs map[string]*types.Package
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	if p, ok := m.pkgs[path]; ok {
		return p, nil
	}
	return m.std.Import(path)
}

// qualifier is the name findings use for a package: the last element of
// its import path, so that the module's main packages stay apart.
func qualifier(importPath string) string {
	return path.Base(importPath)
}

// check type-checks one package and adds its declarations to the graph.
func (g *graph) check(p *listedPkg, imp *moduleImporter, modPath string, report bool) error {
	var files []*ast.File
	for _, name := range p.GoFiles {
		f, err := parser.ParseFile(g.fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:     map[ast.Expr]types.TypeAndValue{},
		Defs:      map[*ast.Ident]types.Object{},
		Uses:      map[*ast.Ident]types.Object{},
		Instances: map[*ast.Ident]types.Instance{},
	}
	conf := types.Config{Importer: imp}
	pkg, err := conf.Check(p.ImportPath, g.fset, files, info)
	if err != nil {
		return fmt.Errorf("type-check %s: %v", p.ImportPath, err)
	}
	imp.pkgs[p.ImportPath] = pkg

	for _, tv := range info.Types {
		g.addInterface(tv.Type)
	}
	isRootPkg := report && p.ImportPath == modPath
	qual := qualifier(p.ImportPath)
	var added []*decl
	add := func(name string, root bool, syntax ast.Node, objs ...types.Object) *decl {
		n := &decl{
			name:   qual + "." + name,
			pos:    g.fset.Position(syntax.Pos()),
			syntax: []ast.Node{syntax},
			root:   root || !report,
			report: report,
		}
		g.nodes = append(g.nodes, n)
		added = append(added, n)
		for _, o := range objs {
			g.byObj[o] = n
		}
		return n
	}
	var methods []*ast.FuncDecl
	for _, f := range files {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				name := d.Name.Name
				switch {
				case d.Recv != nil:
					methods = append(methods, d)
				case name == "init":
					add(name, true, d)
				default:
					add(name, (p.Name == "main" && name == "main") || (isRootPkg && d.Name.IsExported()), d, info.Defs[d.Name])
				}
			case *ast.GenDecl:
				var group *decl // the node an iota group's constants share
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						obj := info.Defs[s.Name].(*types.TypeName)
						n := add(s.Name.Name, isRootPkg && s.Name.IsExported(), s, obj)
						_, isStruct := obj.Type().Underlying().(*types.Struct)
						n.strukt = isStruct && !obj.IsAlias()
						if n.root && obj.IsAlias() {
							g.aliasRoots(obj)
						}
					case *ast.ValueSpec:
						var objs []types.Object
						for _, id := range s.Names {
							if o := info.Defs[id]; o != nil && id.Name != "_" {
								objs = append(objs, o)
							}
						}
						if group != nil {
							group.syntax = append(group.syntax, s)
							for _, o := range objs {
								g.byObj[o] = group
							}
							continue
						}
						root := (d.Tok == token.VAR && len(s.Values) > 0) || (isRootPkg && s.Names[0].IsExported())
						n := add(s.Names[0].Name, root, s, objs...)
						if d.Tok == token.CONST && d.Lparen.IsValid() && mentionsIota(d) {
							group = n
						}
					}
				}
			}
		}
	}
	for _, d := range methods {
		obj := info.Defs[d.Name].(*types.Func)
		recv := obj.Type().(*types.Signature).Recv().Type()
		if ptr, ok := recv.(*types.Pointer); ok {
			recv = ptr.Elem()
		}
		named := recv.(*types.Named).Origin()
		rn := g.byObj[named.Obj()]
		n := add(named.Obj().Name()+"."+d.Name.Name, isRootPkg && d.Name.IsExported(), d, obj)
		n.recv = rn
		g.methods[rn] = append(g.methods[rn], n)
	}
	for _, n := range added {
		w := &walker{info: info, n: n}
		for _, syn := range n.syntax {
			w.walk(syn)
			if ts, ok := syn.(*ast.TypeSpec); ok {
				w.addMakes(info.Defs[ts.Name].Type().Underlying())
			}
		}
	}
	return nil
}

func mentionsIota(d *ast.GenDecl) bool {
	found := false
	ast.Inspect(d, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && id.Name == "iota" {
			found = true
		}
		return !found
	})
	return found
}

// aliasRoots makes the exported methods of an aliased type roots, and the
// type itself: a user of the root package can make and call them.
func (g *graph) aliasRoots(alias *types.TypeName) {
	named, ok := types.Unalias(alias.Type()).(*types.Named)
	if !ok {
		return
	}
	named = named.Origin()
	if n := g.byObj[named.Obj()]; n != nil {
		n.root = true
	}
	for i := 0; i < named.NumMethods(); i++ {
		if m := named.Method(i); m.Exported() {
			if n := g.byObj[m]; n != nil {
				n.root = true
			}
		}
	}
}

func (g *graph) addInterface(t types.Type) {
	if t == nil {
		return
	}
	if it, ok := t.Underlying().(*types.Interface); ok {
		for i := 0; i < it.NumMethods(); i++ {
			g.ifaces[it.Method(i).Name()] = true
		}
	}
}

// collectStdInterfaces adds the method names of every interface type
// declared in a package the checked ones import, directly or not.
func (g *graph) collectStdInterfaces(imp *moduleImporter) {
	seen := map[*types.Package]bool{}
	var visit func(p *types.Package)
	visit = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		scope := p.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				g.addInterface(tn.Type())
			}
		}
		for _, q := range p.Imports() {
			visit(q)
		}
	}
	for _, p := range imp.pkgs {
		visit(p)
	}
}

// walker records what one declaration names and makes.
type walker struct {
	info   *types.Info
	n      *decl
	params map[*ast.Ident]bool
}

func (w *walker) walk(root ast.Node) {
	w.params = map[*ast.Ident]bool{}
	ast.Inspect(root, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.FuncType:
			for _, fl := range []*ast.FieldList{x.Params, x.Results} {
				if fl == nil {
					continue
				}
				for _, f := range fl.List {
					for _, id := range f.Names {
						w.params[id] = true
					}
				}
			}
		case *ast.Ident:
			if o := w.info.Uses[x]; o != nil {
				w.n.names = append(w.n.names, origin(o))
			}
			if inst, ok := w.info.Instances[x]; ok {
				for i := 0; i < inst.TypeArgs.Len(); i++ {
					w.addMakes(inst.TypeArgs.At(i))
				}
			}
			if v, ok := w.info.Defs[x].(*types.Var); ok && !v.IsField() && !w.params[x] {
				w.addMakes(v.Type())
			}
		case *ast.CompositeLit:
			w.addMakes(w.info.Types[x].Type)
		case *ast.CallExpr:
			if tv, ok := w.info.Types[x.Fun]; ok && tv.IsType() {
				w.addMakes(tv.Type)
			} else if id, ok := ast.Unparen(x.Fun).(*ast.Ident); ok && len(x.Args) > 0 {
				if b, ok := w.info.Uses[id].(*types.Builtin); ok && (b.Name() == "new" || b.Name() == "make") {
					w.addMakes(w.info.Types[x.Args[0]].Type)
				}
			}
		}
		return true
	})
}

// addMakes records the struct types a value of type t holds by value.
func (w *walker) addMakes(t types.Type) {
	switch t := types.Unalias(t).(type) {
	case *types.Named:
		if _, ok := t.Underlying().(*types.Struct); ok {
			w.n.makes = append(w.n.makes, t.Origin().Obj())
		}
	case *types.Array:
		w.addMakes(t.Elem())
	case *types.Slice:
		w.addMakes(t.Elem())
	case *types.Map:
		w.addMakes(t.Key())
		w.addMakes(t.Elem())
	case *types.Chan:
		w.addMakes(t.Elem())
	case *types.Struct:
		for i := 0; i < t.NumFields(); i++ {
			w.addMakes(t.Field(i).Type())
		}
	}
}

func origin(o types.Object) types.Object {
	switch o := o.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	case *types.TypeName:
		if named, ok := o.Type().(*types.Named); ok && !o.IsAlias() {
			return named.Origin().Obj()
		}
	}
	return o
}

// unreached walks the graph from its roots, plus extra, and returns the
// reported declarations it does not reach.
func (g *graph) unreached(extra []*decl) []*decl {
	live := map[*decl]bool{}
	named := map[*decl]bool{} // methods live code names
	var queue []*decl
	mark := func(n *decl) {
		if n == nil || live[n] {
			return
		}
		live[n] = true
		queue = append(queue, n)
		for _, m := range g.methods[n] {
			if !live[m] && (named[m] || g.ifaces[nameOf(m)]) {
				live[m] = true
				queue = append(queue, m)
			}
		}
	}
	for _, n := range g.nodes {
		if n.root {
			mark(n)
		}
	}
	for _, n := range extra {
		mark(n)
	}
	for len(queue) > 0 {
		n := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		for _, o := range n.names {
			t := g.byObj[o]
			switch {
			case t == nil:
			case t.recv != nil:
				named[t] = true
				if live[t.recv] {
					mark(t)
				}
			case !t.strukt:
				mark(t)
			}
		}
		for _, tn := range n.makes {
			mark(g.byObj[tn])
		}
	}
	var out []*decl
	for _, n := range g.nodes {
		if n.report && !live[n] {
			out = append(out, n)
		}
	}
	return out
}

func nameOf(method *decl) string {
	return method.name[strings.LastIndexByte(method.name, '.')+1:]
}
