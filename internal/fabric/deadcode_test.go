package fabric

import (
	"bytes"
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// testOnlyAllowlist names the root-module declarations that no command,
// example or benchmark reaches and that stay anyway, each with its reason.
// An entry is "import/path.Name" or "import/path.Type.Method".
// TestNoTestOnlyCode fails on an entry that names nothing or that production
// code already reaches, so the list can only shrink.
var testOnlyAllowlist = []string{
	// Test-support APIs: a test forces one operation to fail.
	"passcloud/internal/sim.FaultInjector.FailOp",     // fail every matching request
	"passcloud/internal/sim.FaultInjector.FailNextOp", // fail the next n matching requests
	"passcloud/internal/sim.FaultInjector.ClearOp",    // disarm a forced fault
	// Test-support API: the crash matrices shorten the WAL's visibility
	// timeout, as SQS's SetQueueAttributes would.
	"passcloud/internal/cloud/sqs.QueueSet.SetVisibility",
	// Test-support API: examples and provctl compare their output with a golden file.
	"passcloud/internal/golden.Check",
	// Test oracles: the query engine and the collector are checked against
	// the in-memory graph's own closures and invariants.
	"passcloud/internal/prov.Graph.Reachable",
	"passcloud/internal/prov.Graph.AncestorClosure",
	"passcloud/internal/prov.Graph.CheckAcyclic",
	"passcloud/internal/prov.Graph.Dangling",
	// Fabric scenario drivers that only their gate tests run; they wait for
	// the randomized seed sweep (ROADMAP item 24(b)) to absorb or drop them.
	"passcloud/internal/bench.ChaosCommitQueryReshard",
	"passcloud/internal/bench.CoherentReads",
	"passcloud/internal/bench.CoherentReadsRun.CostRatio",
	"passcloud/internal/bench.ReshardUnderLoad",
	"passcloud/internal/bench.ShardedWrite",
	"passcloud/internal/bench.TenantIsolation",
	"passcloud/internal/bench.TamperDetection",
}

// TestNoTestOnlyCode fails on every declaration of the root module that only
// tests reach: nothing in a command, an example, the benchmark module or
// another reached declaration uses it, and it is not on testOnlyAllowlist.
// It prints "file:line name lines" for each one.
func TestNoTestOnlyCode(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := loadModules(fset, filepath.Join("..", ".."), filepath.Join("..", "..", "benchmark"))
	if err != nil {
		t.Fatal(err)
	}
	dead, err := unreached(fset, pkgs, func(p *types.Package) bool {
		return !strings.HasPrefix(p.Path(), "passcloud/benchmark")
	}, testOnlyAllowlist)
	if err != nil {
		t.Error(err)
	}
	root, _ := filepath.Abs(filepath.Join("..", ".."))
	lines := 0
	for _, d := range dead {
		start, end := fset.Position(d.pos), fset.Position(d.end)
		file, _ := filepath.Rel(root, start.Filename)
		t.Errorf("%s:%d %s %d", filepath.ToSlash(file), start.Line, d.name, end.Line-start.Line+1)
		lines += end.Line - start.Line + 1
	}
	if len(dead) > 0 {
		t.Errorf("%d declarations (%d lines) are reached only from tests: delete them, move them into the test that uses them, or give them a caller", len(dead), lines)
	}
}

// benchmarkOnlyAllowlist names the root-module declarations that only the
// benchmark module reaches, each with the benchmark call site that keeps it.
// benchmark/ is a module of its own, which a change to the root may not edit
// in the same commit, so these wait for a benchmark change to drop the call.
// TestBenchmarkOnlyAPI fails on an entry that names nothing, that
// production code already reaches or that benchmark/ no longer reaches, so
// the list can only shrink.
var benchmarkOnlyAllowlist = []string{
	"passcloud/internal/cloud/sdb.DomainSet.Select",          // wl_query_mix.go:126, and with it the SELECT parser
	"passcloud/internal/cloud/sdb.DomainSet.SelectAllRouted", // probes.go:379
	"passcloud/internal/cloud/sqs.Queue.SendMessageBatch",    // probes.go:149, 415
	"passcloud/internal/cloud/sqs.Queue.ReceiveMessage",      // probes.go:159, 418
	"passcloud/internal/core.PopulateItems",                  // wl_query_mix.go:122, and with it core.ItemSpec
	"passcloud/internal/core.ClosureRoot",                    // probes.go:128
	"passcloud/internal/core.P3.CommitOnce",                  // oracle.go:214
	"passcloud/internal/frontdoor.Door.Resilience",           // layers.go:59
	"passcloud/internal/pass.Collector.Graph",                // wl_ingest_client.go:125, 141
	"passcloud/internal/pass.Collector.FullClosureFor",       // probes.go:268
	"passcloud/internal/prov.Bundle.Size",                    // gen_test.go:72, and with it prov.Record.Size
	"passcloud/internal/query.Engine.Collect",                // oracle.go:241
	"passcloud/internal/sim.Env.GateDepths",                  // live.go:256
	"passcloud/internal/translog.Log.Size",                   // cpu.go:159
}

// TestBenchmarkOnlyAPI prints "file:line name lines" for every declaration
// of the root module that only the benchmark module reaches: what the root's
// own commands, examples and tests would leave dead. It fails on one that no
// benchmarkOnlyAllowlist entry reaches, so no new root API lives on a
// benchmark caller alone.
func TestBenchmarkOnlyAPI(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := loadModules(fset, filepath.Join("..", ".."), filepath.Join("..", "..", "benchmark"))
	if err != nil {
		t.Fatal(err)
	}
	inBenchmark := func(p *types.Package) bool { return strings.HasPrefix(p.Path(), "passcloud/benchmark") }
	root := slices.DeleteFunc(slices.Clone(pkgs), func(p *goPackage) bool { return inBenchmark(p.types) })
	inRoot := func(*types.Package) bool { return true }
	names := func(ds []decl) map[string]bool {
		m := map[string]bool{}
		for _, d := range ds {
			m[d.name] = true
		}
		return m
	}
	// TestNoTestOnlyCode reports what is dead even with the benchmark's calls.
	dead, _ := unreached(fset, pkgs, func(p *types.Package) bool { return !inBenchmark(p) }, testOnlyAllowlist)
	deadAnyway := names(dead)
	rootOnly, err := unreached(fset, root, inRoot, testOnlyAllowlist)
	if err != nil {
		t.Error(err)
	}
	dir, _ := filepath.Abs(filepath.Join("..", ".."))
	benchOnly, lines := map[string]bool{}, 0
	for _, d := range rootOnly {
		if deadAnyway[d.name] {
			continue
		}
		benchOnly[d.name] = true
		start, end := fset.Position(d.pos), fset.Position(d.end)
		file, _ := filepath.Rel(dir, start.Filename)
		t.Logf("%s:%d %s %d", filepath.ToSlash(file), start.Line, d.name, end.Line-start.Line+1)
		lines += end.Line - start.Line + 1
	}
	t.Logf("%d declarations (%d lines) are reached only from benchmark/", len(benchOnly), lines)
	uncovered, err := unreached(fset, root, inRoot, slices.Concat(testOnlyAllowlist, benchmarkOnlyAllowlist))
	if err != nil {
		t.Error(err)
	}
	for _, d := range uncovered {
		if !deadAnyway[d.name] {
			t.Errorf("%s is reached only from benchmark/: give it a root caller, or list the benchmark call that keeps it in benchmarkOnlyAllowlist", d.name)
		}
	}
	for _, name := range benchmarkOnlyAllowlist {
		if !benchOnly[name] {
			t.Errorf("benchmarkOnlyAllowlist entry %s is not reached only from benchmark/", name)
		}
	}
}

// goPackage is one package's non-test files, type-checked.
type goPackage struct {
	types *types.Package
	files []*ast.File
	info  *types.Info
}

// loadModules type-checks the non-test files of every package that
// `go list -deps ./...` finds in the root module's directory and in the
// benchmark module's, in dependency order. The benchmark module's in-package
// test files are checked too: that module cannot change with the root, so
// its tests count as callers. Packages already checked are served to later
// ones, and the standard library comes from its export data, located by one
// `go list -export` over the standard packages the modules import.
func loadModules(fset *token.FileSet, root, benchmark string) ([]*goPackage, error) {
	type listed struct {
		ImportPath, Dir, Export                    string
		GoFiles, TestGoFiles, Imports, TestImports []string
		Standard                                   bool
	}
	goList := func(dir string, args ...string) ([]listed, error) {
		cmd := exec.Command("go", append([]string{"list", "-json"}, args...)...)
		cmd.Dir = dir
		out, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("go list in %s: %w", dir, err)
		}
		var pkgs []listed
		for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
			var lp listed
			if err := dec.Decode(&lp); err != nil {
				return nil, err
			}
			pkgs = append(pkgs, lp)
		}
		return pkgs, nil
	}
	var mods [2][]listed
	ours := map[string]bool{}
	for i, dir := range []string{root, benchmark} {
		var err error
		if mods[i], err = goList(dir, "-deps", "./..."); err != nil {
			return nil, err
		}
		for _, lp := range mods[i] {
			ours[lp.ImportPath] = !lp.Standard
		}
	}
	var stdImports []string
	for i, lps := range mods {
		for _, lp := range lps {
			if lp.Standard {
				continue
			}
			imports := lp.Imports
			if i == 1 {
				imports = append(imports, lp.TestImports...)
			}
			for _, imp := range imports {
				if !ours[imp] && imp != "unsafe" && !slices.Contains(stdImports, imp) {
					stdImports = append(stdImports, imp)
				}
			}
		}
	}
	exports := map[string]string{}
	stdPkgs, err := goList(root, append([]string{"-export"}, stdImports...)...)
	if err != nil {
		return nil, err
	}
	for _, lp := range stdPkgs {
		exports[lp.ImportPath] = lp.Export
	}
	stdImporter := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) { return os.Open(exports[path]) })

	var pkgs []*goPackage
	byPath := map[string]*types.Package{}
	conf := types.Config{Importer: importerFunc(func(path string) (*types.Package, error) {
		if p := byPath[path]; p != nil {
			return p, nil
		}
		return stdImporter.Import(path)
	})}
	for i, lps := range mods {
		for _, lp := range lps {
			if lp.Standard || byPath[lp.ImportPath] != nil {
				continue
			}
			files := lp.GoFiles
			if i == 1 {
				files = append(files, lp.TestGoFiles...)
			}
			p := &goPackage{info: newInfo()}
			for _, name := range files {
				f, err := parser.ParseFile(fset, filepath.Join(lp.Dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
				if err != nil {
					return nil, err
				}
				p.files = append(p.files, f)
			}
			if p.types, err = conf.Check(lp.ImportPath, fset, p.files, p.info); err != nil {
				return nil, err
			}
			byPath[lp.ImportPath] = p.types
			pkgs = append(pkgs, p)
		}
	}
	return pkgs, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

func newInfo() *types.Info {
	return &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
}

// decl is one top-level declaration, its doc comment included in its span.
type decl struct {
	name     string // import/path.Name or import/path.Type.Method
	pos, end token.Pos
}

// interfaceMethods are the names of the standard library's interface
// methods that the module's types implement for a caller the module does
// not see (fmt, errors, sort, container/heap, io, encoding/json).
var interfaceMethods = []string{"String", "Error", "Unwrap", "Is", "As", "Len", "Less", "Swap", "Push", "Pop", "Read", "Write", "Close", "MarshalJSON", "UnmarshalJSON"}

// unreached returns, in source order, the declarations that no root
// reaches. The roots are every declaration of a package for which inModule
// is false, every main and init, every package-level var with an
// initializer or named _, and the allowlist. A declaration reaches every
// declaration it uses, and a reached type reaches its methods named like a
// method of an interface declared in pkgs or of interfaceMethods. It returns
// an error for an allowlist entry that names nothing or that the other roots
// reach.
func unreached(fset *token.FileSet, pkgs []*goPackage, inModule func(*types.Package) bool, allow []string) ([]decl, error) {
	decls := map[types.Object]decl{}
	byName := map[string]types.Object{}
	uses := map[types.Object][]types.Object{}
	methods := map[*types.TypeName][]types.Object{}
	ifaceNames := map[string]bool{}
	for _, name := range interfaceMethods {
		ifaceNames[name] = true
	}
	var roots []types.Object
	for _, p := range pkgs {
		add := func(obj types.Object, node ast.Node, doc *ast.CommentGroup, pos, end token.Pos) {
			if doc != nil {
				pos = doc.Pos()
			}
			name := p.types.Path() + "." + obj.Name()
			if recv := receiver(obj); recv != nil {
				name = p.types.Path() + "." + recv.Name() + "." + obj.Name()
				methods[recv] = append(methods[recv], obj)
			}
			decls[obj], byName[name] = decl{name, pos, end}, obj
			if !inModule(p.types) {
				roots = append(roots, obj)
			}
			ast.Inspect(node, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && p.info.Uses[id] != nil {
					uses[obj] = append(uses[obj], origin(p.info.Uses[id]))
				}
				return true
			})
		}
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				if it, ok := n.(*ast.InterfaceType); ok {
					for _, m := range it.Methods.List {
						for _, id := range m.Names {
							ifaceNames[id.Name] = true
						}
					}
				}
				return true
			})
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					obj := p.info.Defs[d.Name]
					add(obj, d, d.Doc, d.Pos(), d.End())
					if d.Recv == nil && (d.Name.Name == "init" || d.Name.Name == "main" && p.types.Name() == "main") {
						roots = append(roots, obj)
					}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						doc, pos, end := d.Doc, d.Pos(), d.End()
						if d.Lparen.IsValid() { // a spec of a group spans itself
							doc, pos, end = nil, s.Pos(), s.End()
						}
						switch s := s.(type) {
						case *ast.TypeSpec:
							add(p.info.Defs[s.Name], s, cmp.Or(doc, s.Doc), pos, end)
						case *ast.ValueSpec:
							for _, id := range s.Names {
								obj := p.info.Defs[id]
								add(obj, s, cmp.Or(doc, s.Doc), pos, end)
								if d.Tok == token.VAR && (len(s.Values) > 0 || id.Name == "_") {
									roots = append(roots, obj)
								}
							}
						}
					}
				}
			}
		}
	}

	reach := func(roots []types.Object) map[types.Object]bool {
		seen := map[types.Object]bool{}
		for work := slices.Clone(roots); len(work) > 0; {
			obj := work[len(work)-1]
			work = work[:len(work)-1]
			if seen[obj] {
				continue
			}
			seen[obj] = true
			for _, u := range uses[obj] {
				if _, ok := decls[u]; ok && !seen[u] {
					work = append(work, u)
				}
			}
			if tn, ok := obj.(*types.TypeName); ok {
				for _, m := range methods[tn] {
					if ifaceNames[m.Name()] {
						work = append(work, m)
					}
				}
			}
		}
		return seen
	}

	var errs []error
	production := reach(roots)
	for _, name := range allow {
		obj, ok := byName[name]
		switch {
		case !ok:
			errs = append(errs, fmt.Errorf("allowlist entry %s names no declaration", name))
		case production[obj]:
			errs = append(errs, fmt.Errorf("allowlist entry %s is reached without the allowlist", name))
		default:
			roots = append(roots, obj)
		}
	}
	reached := reach(roots)
	var dead []decl
	for obj, d := range decls {
		if !reached[obj] {
			dead = append(dead, d)
		}
	}
	slices.SortFunc(dead, func(a, b decl) int {
		pa, pb := fset.Position(a.pos), fset.Position(b.pos)
		return cmp.Or(strings.Compare(pa.Filename, pb.Filename), cmp.Compare(pa.Offset, pb.Offset))
	})
	return dead, errors.Join(errs...)
}

// receiver returns the named type a method is declared on, or nil for any
// other object.
func receiver(obj types.Object) *types.TypeName {
	f, ok := obj.(*types.Func)
	if !ok || f.Signature().Recv() == nil {
		return nil
	}
	t := f.Signature().Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Origin().Obj()
	}
	return nil
}

// origin maps an instantiated function or variable to its declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// TestUnreached runs the reachability pass on in-memory modules: packages
// are checked in order, and files named *_test.go are left out as go list
// leaves them out of GoFiles.
func TestUnreached(t *testing.T) {
	const lib = `package lib
type Speaker interface{ Speak() string }
type Dog struct{}
func (Dog) Speak() string { return "woof" }
func (Dog) Fetch() {}
func Used() {}
func TestOnly() { helper() }
func helper() {}
func Dead() { deadHelper() }
func deadHelper() {}
`
	const libTest = `package lib
func calls() { TestOnly(); Dead() }
`
	const cmd = `package main
import "m/lib"
func main() {
	lib.Used()
	var s lib.Speaker = lib.Dog{}
	_ = s.Speak()
}
`
	for _, tc := range []struct {
		name    string
		allow   []string
		dead    []string
		wantErr string
	}{
		{
			// TestOnly has only a test caller, Dead only a dead one, and
			// Fetch is no interface's method; Speak is reached through
			// Speaker.
			name: "flagged",
			dead: []string{"m/lib.Dog.Fetch", "m/lib.TestOnly", "m/lib.helper", "m/lib.Dead", "m/lib.deadHelper"},
		},
		{
			name:  "allowlisted with its callees",
			allow: []string{"m/lib.TestOnly"},
			dead:  []string{"m/lib.Dog.Fetch", "m/lib.Dead", "m/lib.deadHelper"},
		},
		{
			name:    "allowlist names nothing",
			allow:   []string{"m/lib.Gone"},
			dead:    []string{"m/lib.Dog.Fetch", "m/lib.TestOnly", "m/lib.helper", "m/lib.Dead", "m/lib.deadHelper"},
			wantErr: "m/lib.Gone names no declaration",
		},
		{
			name:    "allowlist names reachable code",
			allow:   []string{"m/lib.Dog.Speak"},
			dead:    []string{"m/lib.Dog.Fetch", "m/lib.TestOnly", "m/lib.helper", "m/lib.Dead", "m/lib.deadHelper"},
			wantErr: "m/lib.Dog.Speak is reached without the allowlist",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fset := token.NewFileSet()
			pkgs := checkSources(t, fset, []memPackage{
				{"m/lib", map[string]string{"lib.go": lib, "lib_test.go": libTest}},
				{"m/cmd", map[string]string{"main.go": cmd}},
			})
			dead, err := unreached(fset, pkgs, func(*types.Package) bool { return true }, tc.allow)
			var names []string
			for _, d := range dead {
				names = append(names, d.name)
			}
			if !slices.Equal(names, tc.dead) {
				t.Errorf("flagged %v, want %v", names, tc.dead)
			}
			if tc.wantErr == "" && err != nil || tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)) {
				t.Errorf("error %v, want %q", err, tc.wantErr)
			}
		})
	}
}

// memPackage is one package's files, by name.
type memPackage struct {
	path  string
	files map[string]string
}

// checkSources type-checks in-memory packages in order, each importing only
// the ones before it, and skips *_test.go files.
func checkSources(t *testing.T, fset *token.FileSet, mps []memPackage) []*goPackage {
	t.Helper()
	var pkgs []*goPackage
	byPath := map[string]*types.Package{}
	conf := types.Config{Importer: importerFunc(func(path string) (*types.Package, error) {
		if p := byPath[path]; p != nil {
			return p, nil
		}
		return nil, fmt.Errorf("no package %s", path)
	})}
	for _, mp := range mps {
		p := &goPackage{info: newInfo()}
		names := slices.Sorted(maps.Keys(mp.files))
		for _, name := range names {
			if strings.HasSuffix(name, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, name, mp.files[name], parser.ParseComments)
			if err != nil {
				t.Fatal(err)
			}
			p.files = append(p.files, f)
		}
		var err error
		if p.types, err = conf.Check(mp.path, fset, p.files, p.info); err != nil {
			t.Fatal(err)
		}
		byPath[mp.path] = p.types
		pkgs = append(pkgs, p)
	}
	return pkgs
}
