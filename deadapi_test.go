package itsbed_test

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
	"sync"
	"testing"
)

// deadAPIAllowlist names the exported functions and methods under
// internal/ that may stay without a non-test use, each with its reason.
// Keys are spelt as TestNoDeadAPI reports them: the full name with the
// "itsbed/internal/" prefix dropped.
var deadAPIAllowlist = map[string]string{
	"(*its/geonet.LocationTable).GC": "duplicate-filter expiry of the simulated GN router; ROADMAP item 11 gives it a caller or deletes it",
}

// deadAPIDebt names dead API that is still to be deleted, each with the
// tests that exercise only it and go with it. Entries leave this list,
// none join it: a new function without a caller fails the test.
var deadAPIDebt = map[string]string{
	"(*vehicle.Vehicle).Reset": "TestResetRestoresStartState",
}

// deadAPIStdlibInterfaces are the standard-library interfaces through
// which the standard library itself calls a module method: a method
// that implements one of them is in use without a call in the module.
var deadAPIStdlibInterfaces = []struct{ pkg, name string }{
	{"fmt", "Stringer"},
	{"encoding/json", "Marshaler"},
	{"encoding/json", "Unmarshaler"},
	{"sort", "Interface"},
	{"math/rand", "Source64"},
	{"net/http", "ResponseWriter"},
	{"net/http", "Handler"},
	{"io", "Reader"},
	{"io", "Writer"},
	{"io", "Closer"},
}

// TestNoDeadAPI keeps the rule "delete any API that nothing outside its
// own tests calls" as a check. It type-checks the non-test Go files of
// the module and of the bench module, and fails for every exported
// function or method declared under internal/ that no non-test file
// uses, unless the method implements an interface declared in the
// module, an interface in deadAPIStdlibInterfaces or error, or the name
// is in deadAPIAllowlist or deadAPIDebt.
func TestNoDeadAPI(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the module and the standard library it imports from source")
	}
	l := loadModule(t)

	used := map[*types.Func]bool{}
	var ifaces []*types.Interface
	for _, p := range l.pkgs {
		for _, obj := range p.info.Uses {
			if fn, ok := obj.(*types.Func); ok {
				used[fn.Origin()] = true
			}
		}
		scope := p.types.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok && !tn.IsAlias() {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.IsMethodSet() && it.NumMethods() > 0 {
					ifaces = append(ifaces, it)
				}
			}
		}
	}
	ifaces = append(ifaces, types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	for _, si := range deadAPIStdlibInterfaces {
		pkg, err := l.std.Import(si.pkg)
		if err != nil {
			t.Fatal(err)
		}
		ifaces = append(ifaces, pkg.Scope().Lookup(si.name).Type().Underlying().(*types.Interface))
	}

	var dead []string
	for path, p := range l.pkgs {
		if !strings.HasPrefix(path, "itsbed/internal/") {
			continue
		}
		scope := p.types.Scope()
		for _, name := range scope.Names() {
			switch obj := scope.Lookup(name).(type) {
			case *types.Func:
				if obj.Exported() && !used[obj] {
					dead = append(dead, apiName(obj))
				}
			case *types.TypeName:
				named, ok := obj.Type().(*types.Named)
				if !ok || obj.IsAlias() {
					continue
				}
				for i := 0; i < named.NumMethods(); i++ {
					m := named.Method(i)
					if m.Exported() && !used[m] && !implementsAny(named, m.Name(), ifaces) {
						dead = append(dead, apiName(m))
					}
				}
			}
		}
	}
	sort.Strings(dead)
	for _, name := range dead {
		_, allowed := deadAPIAllowlist[name]
		_, owed := deadAPIDebt[name]
		if !allowed && !owed {
			t.Errorf("%s has no use outside tests: delete it, give it a caller, or add it to deadAPIAllowlist with a reason", name)
		}
	}
	for _, list := range []map[string]string{deadAPIAllowlist, deadAPIDebt} {
		for name := range list {
			if i := sort.SearchStrings(dead, name); i == len(dead) || dead[i] != name {
				t.Errorf("dead-API entry %s is stale: it is in use or gone", name)
			}
		}
	}
	t.Logf("deadAPIDebt: %d entries", len(deadAPIDebt))
}

// moduleLoad is the type-checked load of the module and of the bench
// module that TestNoDeadAPI and TestNoUnsetOption share.
var moduleLoad struct {
	once sync.Once
	l    *apiLoader
	err  error
}

// loadModule type-checks the non-test Go files of the module and of the
// bench module once per test binary.
func loadModule(t *testing.T) *apiLoader {
	t.Helper()
	moduleLoad.once.Do(func() {
		l := newAPILoader()
		if err := l.loadTree(".", "itsbed"); err != nil {
			moduleLoad.err = err
			return
		}
		moduleLoad.l, moduleLoad.err = l, l.loadTree("bench", "itsbed/bench")
	})
	if moduleLoad.err != nil {
		t.Fatal(moduleLoad.err)
	}
	return moduleLoad.l
}

func apiName(fn *types.Func) string {
	return strings.ReplaceAll(fn.FullName(), "itsbed/internal/", "")
}

// implementsAny reports whether named's method called method belongs to
// one of ifaces that named (or a pointer to it) implements.
func implementsAny(named *types.Named, method string, ifaces []*types.Interface) bool {
	ptr := types.NewPointer(named)
	for _, it := range ifaces {
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() == method && types.Implements(ptr, it) {
				return true
			}
		}
	}
	return false
}

type apiPackage struct {
	types *types.Package
	info  *types.Info
	files []*ast.File
}

// apiLoader type-checks the non-test files of module packages, found
// through their import path, and reads the standard library from source.
type apiLoader struct {
	fset *token.FileSet
	std  types.ImporterFrom
	dirs map[string]string // import path → directory
	pkgs map[string]*apiPackage
}

func newAPILoader() *apiLoader {
	fset := token.NewFileSet()
	return &apiLoader{
		fset: fset,
		std:  importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		dirs: map[string]string{},
		pkgs: map[string]*apiPackage{},
	}
}

// loadTree type-checks every package in the directory tree root, whose
// import path is prefix. Subdirectories holding their own go.mod are
// separate modules and are skipped, as are testdata trees.
func (l *apiLoader) loadTree(root, prefix string) error {
	var paths []string
	err := filepath.WalkDir(root, func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if dir != root {
			if d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
				return filepath.SkipDir
			}
		}
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			return err
		}
		path := prefix
		if rel != "." {
			path += "/" + filepath.ToSlash(rel)
		}
		l.dirs[path] = dir
		paths = append(paths, path)
		return nil
	})
	if err != nil {
		return err
	}
	for _, path := range paths {
		if _, err := l.load(path); err != nil {
			return err
		}
	}
	return nil
}

// load returns the type-checked package at path, or nil when its
// directory holds no non-test Go file.
func (l *apiLoader) load(path string) (*apiPackage, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	bp, err := build.Default.ImportDir(l.dirs[path], 0)
	if _, ok := err.(*build.NoGoError); ok {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(bp.Dir, name), nil, 0)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
	conf := types.Config{Importer: l}
	pkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, err
	}
	p := &apiPackage{types: pkg, info: info, files: files}
	l.pkgs[path] = p
	return p, nil
}

func (l *apiLoader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, "", 0)
}

func (l *apiLoader) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if _, ok := l.dirs[path]; !ok {
		return l.std.ImportFrom(path, dir, mode)
	}
	p, err := l.load(path)
	if err != nil {
		return nil, err
	}
	if p == nil {
		return nil, fmt.Errorf("%s: no non-test Go files", path)
	}
	return p.types, nil
}

// unsetOptionDebt names the option fields that no non-test code writes
// and that stay for now, each with its reason. Keys are spelt as
// TestNoUnsetOption reports them. Entries leave this list, none join
// it: a new option that nothing sets fails the test.
var unsetOptionDebt = map[string]string{
	"core.Config.HTTP":                    "root-package API (itsbed.Config aliases core.Config): the OpenC2X API latency model of the 4→5 hop, for library callers",
	"core.Config.MailboxCap":              "SimNode's openc2x_mailbox_dropped_total lines in the -metrics goldens come with the mailbox bound",
	"core.Config.SPS":                     "root-package API (itsbed.Config aliases core.Config): the cv2x-pc5 mode-4 scheduler, which ROADMAP item 9 reworks",
	"experiments.CityOptions.City":        "part of the spatial grid (ROADMAP item 5); its removal changes the city bench digest",
	"experiments.CityOptions.DisableGrid": "part of the spatial grid (ROADMAP item 5); its removal changes the city bench digest",
	"radio.PC5Config.LossProbability":     "its radio_frames_lost_total{reason=decode} line is in the PC5 -metrics golden; ROADMAP item 9 replaces it",
}

// TestNoUnsetOption keeps the rule "an option no caller sets is a
// constant" as a check. On the load TestNoDeadAPI makes, it fails for
// every exported field of an exported struct type under internal/
// whose name ends in Config or Options that no non-test file of the
// module or of the bench module writes, unless the field is in
// unsetOptionDebt. A write is a keyed element of a composite literal or
// the left side of an assignment, wherever it appears, unless its value
// selects the same field (c.X = prev.X writes nothing new).
func TestNoUnsetOption(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the module and the standard library it imports from source")
	}
	l := loadModule(t)

	written := map[*types.Var]bool{}
	for _, p := range l.pkgs {
		field := func(id *ast.Ident) *types.Var {
			if v, ok := p.info.Uses[id].(*types.Var); ok && v.IsField() {
				return v.Origin()
			}
			return nil
		}
		// write records a write of the field id names, unless value (nil
		// when unknown) selects that same field: copying a field from
		// another value of its own type sets nothing new.
		write := func(id *ast.Ident, value ast.Expr) {
			v := field(id)
			if v == nil {
				return
			}
			if sel, ok := ast.Unparen(value).(*ast.SelectorExpr); ok && field(sel.Sel) == v {
				return
			}
			written[v] = true
		}
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.KeyValueExpr:
					if id, ok := n.Key.(*ast.Ident); ok {
						write(id, n.Value)
					}
				case *ast.AssignStmt:
					for i, lhs := range n.Lhs {
						var value ast.Expr
						if len(n.Rhs) == len(n.Lhs) {
							value = n.Rhs[i]
						}
						if sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr); ok {
							write(sel.Sel, value)
						}
					}
				}
				return true
			})
		}
	}

	var unset []string
	for path, p := range l.pkgs {
		if !strings.HasPrefix(path, "itsbed/internal/") {
			continue
		}
		scope := p.types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || !tn.Exported() || tn.IsAlias() || !(strings.HasSuffix(name, "Config") || strings.HasSuffix(name, "Options")) {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				if f := st.Field(i); f.Exported() && !written[f] {
					unset = append(unset, strings.TrimPrefix(path, "itsbed/internal/")+"."+name+"."+f.Name())
				}
			}
		}
	}
	sort.Strings(unset)
	for _, name := range unset {
		if _, owed := unsetOptionDebt[name]; !owed {
			t.Errorf("%s is set by no non-test code: make it a constant, give it a caller, or delete it", name)
		}
	}
	for name := range unsetOptionDebt {
		if i := sort.SearchStrings(unset, name); i == len(unset) || unset[i] != name {
			t.Errorf("unset-option entry %s is stale: it is set or gone", name)
		}
	}
	t.Logf("unsetOptionDebt: %d entries", len(unsetOptionDebt))
}
