package repro

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// This file holds the core of the unreached-code guard
// (unreached_test.go): it type-checks the non-test Go files of one or
// more modules and finds every package-level object under an internal/
// directory that no non-test code reaches from a program's entry points.

// goModule is one module's source tree: its directory and module path.
type goModule struct{ dir, path string }

// srcPackage is one package's non-test files, parsed and type-checked.
type srcPackage struct {
	files []*ast.File
	pkg   *types.Package
	info  *types.Info
}

// unreached is one package-level object (or method) that no non-test
// code reaches.
type unreached struct {
	pos  token.Position
	name string // "pkg.Name" or "pkg.Type.Method"
}

func (u unreached) String() string {
	return fmt.Sprintf("%s:%d %s", u.pos.Filename, u.pos.Line, u.name)
}

// loadModules parses and type-checks the non-test files of every package
// in mods. A directory holding its own go.mod below a module root belongs
// to that other module and is skipped, as are testdata and "."/"_"
// directories.
func loadModules(fset *token.FileSet, mods []goModule) (map[string]*srcPackage, error) {
	pkgs := map[string]*srcPackage{}
	for _, m := range mods {
		err := filepath.WalkDir(m.dir, func(dir string, d fs.DirEntry, err error) error {
			if err != nil || !d.IsDir() {
				return err
			}
			name := d.Name()
			if dir != m.dir {
				if name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
					return filepath.SkipDir
				}
				if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
					return filepath.SkipDir
				}
			}
			entries, err := os.ReadDir(dir)
			if err != nil {
				return err
			}
			var files []*ast.File
			for _, e := range entries {
				fn := e.Name()
				if e.IsDir() || !strings.HasSuffix(fn, ".go") || strings.HasSuffix(fn, "_test.go") {
					continue
				}
				ok, err := build.Default.MatchFile(dir, fn)
				if err != nil {
					return err
				}
				if !ok {
					continue
				}
				f, err := parser.ParseFile(fset, filepath.Join(dir, fn), nil, parser.SkipObjectResolution)
				if err != nil {
					return err
				}
				files = append(files, f)
			}
			if len(files) == 0 {
				return nil
			}
			rel, err := filepath.Rel(m.dir, dir)
			if err != nil {
				return err
			}
			path := m.path
			if rel != "." {
				path += "/" + filepath.ToSlash(rel)
			}
			pkgs[path] = &srcPackage{files: files}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	imp := &moduleImporter{fset: fset, pkgs: pkgs, std: importer.Default()}
	for path := range pkgs {
		if _, err := imp.Import(path); err != nil {
			return nil, err
		}
	}
	return pkgs, nil
}

// moduleImporter type-checks the loaded packages on demand, in
// dependency order, and hands every other import path to std.
type moduleImporter struct {
	fset *token.FileSet
	pkgs map[string]*srcPackage
	std  types.Importer
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	p, ok := m.pkgs[path]
	if !ok {
		return m.std.Import(path)
	}
	if p.pkg == nil {
		p.info = &types.Info{
			Types: map[ast.Expr]types.TypeAndValue{},
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
		}
		conf := types.Config{Importer: m}
		pkg, err := conf.Check(path, m.fset, p.files, p.info)
		if err != nil {
			return nil, fmt.Errorf("type-check %s: %w", path, err)
		}
		p.pkg = pkg
	}
	return p.pkg, nil
}

// findUnreached returns, sorted by position, every package-level object
// and method declared in a package under an internal/ directory that no
// non-test code reaches. The entry points are each main package's main,
// every init function and blank package-level variable, and the exported
// API of every package that is neither main nor internal. An object is
// reached when a reached declaration names it, or names something whose
// type mentions it. A method is also reached when its receiver type is
// reached and implements an interface the program can call it through:
// one declared in a reached type or an interface literal of reached
// code, the predeclared error, or any exported interface of a standard
// library package the modules import (those packages may assert to it).
func findUnreached(fset *token.FileSet, pkgs map[string]*srcPackage) []unreached {
	g := &reachGraph{
		decls:   map[types.Object][]ast.Node{},
		infos:   map[types.Object]*types.Info{},
		reached: map[types.Object]bool{},
	}
	std := map[*types.Package]bool{}
	var stdWalk func(*types.Package)
	stdWalk = func(p *types.Package) {
		if std[p] {
			return
		}
		std[p] = true
		for _, q := range p.Imports() {
			stdWalk(q)
		}
	}
	var roots []types.Object
	for _, p := range pkgs {
		for _, q := range p.pkg.Imports() {
			if pkgs[q.Path()] == nil {
				stdWalk(q)
			}
		}
		for _, f := range p.files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					obj := p.info.Defs[d.Name]
					g.add(obj, d, p.info)
					if d.Recv == nil && d.Name.Name == "init" {
						roots = append(roots, obj)
					}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							g.add(p.info.Defs[s.Name], s, p.info)
						case *ast.ValueSpec:
							for _, id := range s.Names {
								obj := p.info.Defs[id]
								g.add(obj, s, p.info)
								if id.Name == "_" {
									roots = append(roots, obj)
								}
							}
						}
					}
				}
			}
		}
		scope := p.pkg.Scope()
		switch {
		case p.pkg.Name() == "main":
			if obj := scope.Lookup("main"); obj != nil {
				roots = append(roots, obj)
			}
		case !isInternal(p.pkg.Path()):
			for _, name := range scope.Names() {
				obj := scope.Lookup(name)
				if !obj.Exported() {
					continue
				}
				roots = append(roots, obj)
				if tn, ok := obj.(*types.TypeName); ok && !tn.IsAlias() {
					if n, ok := tn.Type().(*types.Named); ok {
						for i := 0; i < n.NumMethods(); i++ {
							if m := n.Method(i); m.Exported() {
								roots = append(roots, m)
							}
						}
					}
				}
			}
		}
	}
	g.ifaces = append(g.ifaces, types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	for p := range std {
		scope := p.Scope()
		for _, name := range scope.Names() {
			if obj, ok := scope.Lookup(name).(*types.TypeName); ok && obj.Exported() {
				g.addIface(obj.Type())
			}
		}
	}

	for _, r := range roots {
		g.reach(r)
	}
	g.fixpoint()

	var out []unreached
	for obj := range g.decls {
		if !g.reached[obj] && isInternal(obj.Pkg().Path()) {
			out = append(out, unreached{pos: fset.Position(obj.Pos()), name: qualifiedName(obj)})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].pos, out[j].pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Offset < b.Offset
	})
	return out
}

// isInternal reports whether an import path lies under an internal/
// directory.
func isInternal(path string) bool {
	for _, el := range strings.Split(path, "/") {
		if el == "internal" {
			return true
		}
	}
	return false
}

// qualifiedName is "pkg.Name" for a package-level object and
// "pkg.Type.Method" for a method.
func qualifiedName(obj types.Object) string {
	name := obj.Pkg().Name() + "."
	if fn, ok := obj.(*types.Func); ok {
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			t := recv.Type()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			if n, ok := t.(*types.Named); ok {
				name += n.Obj().Name() + "."
			}
		}
	}
	return name + obj.Name()
}

// reachGraph is the reachability walk over the modules' declarations.
type reachGraph struct {
	decls   map[types.Object][]ast.Node // the declaration(s) of each object
	infos   map[types.Object]*types.Info
	reached map[types.Object]bool
	queue   []types.Object
	named   []*types.Named       // reached module types that may carry methods
	ifaces  []*types.Interface   // interfaces reached code can call methods through
	checked map[*types.Named]int // how many of ifaces each named type was checked against
}

func (g *reachGraph) add(obj types.Object, n ast.Node, info *types.Info) {
	if obj == nil {
		return
	}
	g.decls[obj] = append(g.decls[obj], n)
	g.infos[obj] = info
}

// origin maps an instantiated generic function, method or field to its
// declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

func (g *reachGraph) reach(obj types.Object) {
	obj = origin(obj)
	if g.reached[obj] {
		return
	}
	g.reached[obj] = true
	if _, ok := g.decls[obj]; ok {
		g.queue = append(g.queue, obj)
	}
}

// addIface records t as an interface reached code calls methods through.
func (g *reachGraph) addIface(t types.Type) {
	if it, ok := t.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
		g.ifaces = append(g.ifaces, it)
	}
}

// drain walks the declarations of every newly reached object.
func (g *reachGraph) drain() {
	for len(g.queue) > 0 {
		obj := g.queue[len(g.queue)-1]
		g.queue = g.queue[:len(g.queue)-1]
		info := g.infos[obj]
		g.reachTypes(obj.Type(), map[types.Type]bool{})
		if tn, ok := obj.(*types.TypeName); ok && !tn.IsAlias() {
			if n, ok := tn.Type().(*types.Named); ok {
				if _, isIface := n.Underlying().(*types.Interface); isIface {
					g.addIface(n)
				} else {
					g.named = append(g.named, n)
				}
			}
		}
		for _, d := range g.decls[obj] {
			ast.Inspect(d, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.Ident:
					if u := info.Uses[n]; u != nil {
						g.reach(u)
					}
				case *ast.InterfaceType:
					if tv, ok := info.Types[n]; ok {
						g.addIface(tv.Type)
					}
				}
				return true
			})
		}
	}
}

// reachTypes reaches every named type t mentions, so that a value whose
// type no reached declaration spells out still keeps that type's
// interface methods.
func (g *reachGraph) reachTypes(t types.Type, seen map[types.Type]bool) {
	if t == nil || seen[t] {
		return
	}
	seen[t] = true
	switch t := types.Unalias(t).(type) {
	case *types.Named:
		g.reach(t.Origin().Obj())
		for i := 0; i < t.TypeArgs().Len(); i++ {
			g.reachTypes(t.TypeArgs().At(i), seen)
		}
	case *types.Pointer:
		g.reachTypes(t.Elem(), seen)
	case *types.Slice:
		g.reachTypes(t.Elem(), seen)
	case *types.Array:
		g.reachTypes(t.Elem(), seen)
	case *types.Chan:
		g.reachTypes(t.Elem(), seen)
	case *types.Map:
		g.reachTypes(t.Key(), seen)
		g.reachTypes(t.Elem(), seen)
	case *types.Signature:
		g.reachTypes(t.Params(), seen)
		g.reachTypes(t.Results(), seen)
	case *types.Tuple:
		for i := 0; i < t.Len(); i++ {
			g.reachTypes(t.At(i).Type(), seen)
		}
	case *types.Struct:
		for i := 0; i < t.NumFields(); i++ {
			g.reachTypes(t.Field(i).Type(), seen)
		}
	}
}

// fixpoint alternates the declaration walk with the interface rule until
// neither reaches anything new.
func (g *reachGraph) fixpoint() {
	g.checked = map[*types.Named]int{}
	for {
		g.drain()
		for _, n := range g.named {
			from := g.checked[n]
			g.checked[n] = len(g.ifaces)
			ptr := types.NewPointer(n)
			for _, it := range g.ifaces[from:] {
				if !types.Implements(ptr, it) {
					continue
				}
				for i := 0; i < it.NumMethods(); i++ {
					m, _, _ := types.LookupFieldOrMethod(ptr, true, it.Method(i).Pkg(), it.Method(i).Name())
					if m != nil {
						g.reach(m)
					}
				}
			}
		}
		if len(g.queue) == 0 {
			return
		}
	}
}
