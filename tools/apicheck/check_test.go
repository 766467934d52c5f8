// Package apicheck holds a test that keeps the repro module's exported API
// honest: every exported name of the facade and of the internal packages
// must have a caller outside its own package (TestExportedAPIHasCallers).
// The checker type-checks with the standard library's go/* packages only,
// reading dependencies from the export data `go list -export` reports.
package apicheck

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// Class says how far an exported name's callers reach.
type Class string

const (
	// NoCaller: nothing uses the name, not even its own package or a test.
	NoCaller Class = "no caller"
	// TestOnly: only _test.go files use the name.
	TestOnly Class = "test only"
	// OwnPackage: only non-test files of the name's own package use it
	// (tests may use it as well).
	OwnPackage Class = "own package"
)

// Finding is one exported name that no non-test file outside its own
// package uses.
type Finding struct {
	Name  string // "pkg/path.Name" or "pkg/path.Type.Method"
	Class Class
}

// listed is the subset of `go list -json` output the checker reads.
type listed struct {
	Dir          string
	ImportPath   string
	Export       string
	GoFiles      []string
	TestGoFiles  []string
	XTestGoFiles []string
	Imports      []string
	TestImports  []string
	XTestImports []string
	Error        *struct{ Err string }
}

func goList(dir string, args ...string) ([]*listed, error) {
	cmd := exec.Command("go", append([]string{"list", "-e", "-json"}, args...)...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list in %s: %v: %s", dir, err, stderr.String())
	}
	var pkgs []*listed
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listed
		if err := dec.Decode(&p); err == io.EOF {
			return pkgs, nil
		} else if err != nil {
			return nil, err
		}
		if p.Error != nil {
			return nil, fmt.Errorf("go list %s: %s", p.ImportPath, p.Error.Err)
		}
		pkgs = append(pkgs, &p)
	}
}

// checker type-checks every package of one or more modules from source,
// importing everything else (the standard library) from the compiler's
// export data, and records which file uses which object.
type checker struct {
	fset    *token.FileSet
	src     map[string]*listed // import path -> source package
	files   map[string]*ast.File
	plain   map[string]*types.Package // non-test variants, by import path
	testVar map[string]*types.Package // in-package test variants
	gc      types.Importer
	ifaces  []*types.Interface
	uses    []use
	// testing selects the in-package test variant of this path, as the
	// go command does when it builds the path's external test package.
	testing string
}

// use is one identifier's reference to an object. Objects are compared by
// declaration position (key), so the plain and test variants of a package
// agree.
type use struct {
	obj     types.Object
	fromPkg string // import path of the package the identifier is in
	test    bool   // the identifier is in a _test.go file
}

func (c *checker) Import(path string) (*types.Package, error) {
	if _, ok := c.src[path]; !ok {
		return c.gc.Import(path)
	}
	if path == c.testing {
		if p := c.testVar[path]; p != nil {
			return p, nil
		}
	}
	return c.checkPlain(path)
}

func (c *checker) parse(dir string, names []string) ([]*ast.File, error) {
	var out []*ast.File
	for _, n := range names {
		fn := filepath.Join(dir, n)
		f, ok := c.files[fn]
		if !ok {
			var err error
			if f, err = parser.ParseFile(c.fset, fn, nil, parser.SkipObjectResolution); err != nil {
				return nil, err
			}
			c.files[fn] = f
		}
		out = append(out, f)
	}
	return out, nil
}

// check type-checks files as package path and records their uses. Test
// variants may not type-check exactly (an external test package sees the
// test variant of its package under test, the rest of the module does
// not), so their errors are ignored; the plain variants must be clean.
func (c *checker) check(path string, files []*ast.File, strict bool) (*types.Package, error) {
	info := &types.Info{
		Uses:  map[*ast.Ident]types.Object{},
		Types: map[ast.Expr]types.TypeAndValue{},
	}
	var firstErr error
	conf := types.Config{Importer: c, Error: func(err error) {
		if firstErr == nil {
			firstErr = err
		}
	}}
	pkg, _ := conf.Check(path, c.fset, files, info)
	if strict && firstErr != nil {
		return nil, firstErr
	}
	fromPkg := strings.TrimSuffix(path, "_test")
	for id, obj := range info.Uses {
		test := strings.HasSuffix(c.fset.Position(id.Pos()).Filename, "_test.go")
		if !strict && !test {
			continue // recorded by the plain variant already
		}
		c.uses = append(c.uses, use{obj: obj, fromPkg: fromPkg, test: test})
	}
	if strict {
		for _, tv := range info.Types {
			if it, ok := tv.Type.(*types.Interface); ok && tv.IsType() {
				c.ifaces = append(c.ifaces, it)
			}
		}
	}
	return pkg, nil
}

func (c *checker) checkPlain(path string) (*types.Package, error) {
	if p, ok := c.plain[path]; ok {
		if p == nil {
			return nil, fmt.Errorf("import cycle through %s", path)
		}
		return p, nil
	}
	c.plain[path] = nil
	lp := c.src[path]
	files, err := c.parse(lp.Dir, lp.GoFiles)
	if err != nil {
		return nil, err
	}
	pkg, err := c.check(path, files, true)
	if err != nil {
		return nil, err
	}
	c.plain[path] = pkg
	return pkg, nil
}

// Check type-checks every package of the modules rooted at dirs and
// returns, sorted by name, every exported name of a package that inScope
// selects which no non-test file outside that package uses.
//
// A name counts as used outside its package when such a file refers to it,
// when it is a method that lets its type satisfy an interface (callers
// reach it through the interface), or when it is a type that appears in
// the type of an object that such a file refers to (callers hold its
// values without naming it). A constant of its own package's named type
// counts as used when that type does: callers receive the values with the
// type. Struct fields and interface methods are not checked.
func Check(dirs []string, inScope func(path string) bool) ([]Finding, error) {
	c := &checker{
		fset:    token.NewFileSet(),
		src:     map[string]*listed{},
		files:   map[string]*ast.File{},
		plain:   map[string]*types.Package{},
		testVar: map[string]*types.Package{},
	}
	for _, d := range dirs {
		pkgs, err := goList(d, "./...")
		if err != nil {
			return nil, err
		}
		for _, p := range pkgs {
			c.src[p.ImportPath] = p
		}
	}
	if len(c.src) == 0 {
		return nil, errors.New("no packages")
	}
	// Export data for every import outside the modules, built (or read
	// from the build cache) by the go command.
	ext := map[string]bool{}
	for _, p := range c.src {
		for _, list := range [][]string{p.Imports, p.TestImports, p.XTestImports} {
			for _, imp := range list {
				if _, ok := c.src[imp]; !ok && imp != "unsafe" && imp != "C" {
					ext[imp] = true
				}
			}
		}
	}
	exports := map[string]string{}
	if len(ext) > 0 {
		args := []string{"-export", "-deps"}
		for imp := range ext {
			args = append(args, imp)
		}
		deps, err := goList(dirs[0], args...)
		if err != nil {
			return nil, err
		}
		for _, p := range deps {
			exports[p.ImportPath] = p.Export
		}
	}
	c.gc = importer.ForCompiler(c.fset, "gc", func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok || f == "" {
			return nil, fmt.Errorf("no export data for %s", path)
		}
		return os.Open(f)
	})

	paths := make([]string, 0, len(c.src))
	for p := range c.src {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		if _, err := c.checkPlain(p); err != nil {
			return nil, err
		}
	}
	for _, path := range paths {
		lp := c.src[path]
		if len(lp.TestGoFiles) > 0 {
			files, err := c.parse(lp.Dir, append(append([]string{}, lp.GoFiles...), lp.TestGoFiles...))
			if err != nil {
				return nil, err
			}
			c.testVar[path], _ = c.check(path, files, false)
		}
		if len(lp.XTestGoFiles) > 0 {
			files, err := c.parse(lp.Dir, lp.XTestGoFiles)
			if err != nil {
				return nil, err
			}
			c.testing = path
			c.check(path+"_test", files, false)
			c.testing = ""
		}
	}
	for imp := range ext {
		if p, err := c.gc.Import(imp); err == nil {
			c.collectIfaces(p.Scope())
		}
	}
	c.collectIfaces(types.Universe)
	for _, p := range paths {
		c.collectIfaces(c.plain[p].Scope())
	}
	return c.findings(paths, inScope), nil
}

func (c *checker) collectIfaces(s *types.Scope) {
	for _, name := range s.Names() {
		tn, ok := s.Lookup(name).(*types.TypeName)
		if !ok {
			continue
		}
		if n, ok := tn.Type().(*types.Named); ok && n.TypeParams().Len() > 0 {
			continue
		}
		if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.IsMethodSet() {
			c.ifaces = append(c.ifaces, it)
		}
	}
}

// key identifies an object across the plain and test variants of its
// package.
func (c *checker) key(obj types.Object) string {
	switch o := obj.(type) {
	case *types.Func:
		obj = o.Origin()
	case *types.Var:
		obj = o.Origin()
	}
	return c.fset.Position(obj.Pos()).String()
}

func (c *checker) findings(paths []string, inScope func(string) bool) []Finding {
	type usage struct{ external, own, test bool }
	seen := map[string]*usage{}
	mark := func(k string) *usage {
		u := seen[k]
		if u == nil {
			u = &usage{}
			seen[k] = u
		}
		return u
	}
	// Types reachable from what callers outside a package refer to.
	var reach func(t types.Type)
	visited := map[types.Type]bool{}
	reach = func(t types.Type) {
		if t == nil || visited[t] {
			return
		}
		visited[t] = true
		switch t := t.(type) {
		case *types.Alias:
			mark(c.key(t.Obj())).external = true
			reach(t.Rhs())
		case *types.Named:
			mark(c.key(t.Obj())).external = true
			for i := 0; i < t.TypeArgs().Len(); i++ {
				reach(t.TypeArgs().At(i))
			}
		case *types.Pointer:
			reach(t.Elem())
		case *types.Slice:
			reach(t.Elem())
		case *types.Array:
			reach(t.Elem())
		case *types.Chan:
			reach(t.Elem())
		case *types.Map:
			reach(t.Key())
			reach(t.Elem())
		case *types.Signature:
			for i := 0; i < t.Params().Len(); i++ {
				reach(t.Params().At(i).Type())
			}
			for i := 0; i < t.Results().Len(); i++ {
				reach(t.Results().At(i).Type())
			}
		case *types.Struct:
			for i := 0; i < t.NumFields(); i++ {
				reach(t.Field(i).Type())
			}
		case *types.Interface:
			for i := 0; i < t.NumMethods(); i++ {
				reach(t.Method(i).Type())
			}
		}
	}
	for _, u := range c.uses {
		if u.obj.Pkg() == nil {
			continue
		}
		m := mark(c.key(u.obj))
		switch {
		case u.test:
			m.test = true
		case u.obj.Pkg().Path() != u.fromPkg:
			m.external = true
			reach(u.obj.Type())
		default:
			m.own = true
		}
	}

	var out []Finding
	add := func(name string, obj types.Object) {
		u := seen[c.key(obj)]
		if k, ok := obj.(*types.Const); ok {
			// An enumeration value reaches callers with its type.
			if n, ok := k.Type().(*types.Named); ok && n.Obj().Pkg() == k.Pkg() {
				if tu := seen[c.key(n.Obj())]; tu != nil && tu.external {
					return
				}
			}
		}
		switch {
		case u == nil:
			out = append(out, Finding{name, NoCaller})
		case u.external:
		case u.own:
			out = append(out, Finding{name, OwnPackage})
		case u.test:
			out = append(out, Finding{name, TestOnly})
		default:
			out = append(out, Finding{name, NoCaller})
		}
	}
	for _, path := range paths {
		if !inScope(path) {
			continue
		}
		scope := c.plain[path].Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if !obj.Exported() {
				continue
			}
			add(path+"."+name, obj)
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || types.IsInterface(named) {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				m := named.Method(i)
				if m.Exported() && !c.satisfies(named, m.Name()) {
					add(path+"."+name+"."+m.Name(), m)
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// satisfies reports whether T or *T implements an interface that has a
// method called name.
func (c *checker) satisfies(t *types.Named, name string) bool {
	if t.TypeParams().Len() > 0 {
		return false
	}
	ptr := types.NewPointer(t)
	for _, it := range c.ifaces {
		has := false
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() == name {
				has = true
				break
			}
		}
		if has && (types.Implements(t, it) || types.Implements(ptr, it)) {
			return true
		}
	}
	return false
}
