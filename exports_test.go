package audiofile

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
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
)

// orphanAllowed names the declarations that may stand without a non-test
// reference, each with its reason. A key is "importpath.Name" or
// "importpath.Type.Method"; a key that ends in "/*" covers a package's
// exported names, each of which still needs a reference from non-test
// code or from another package's tests. An interface method named here
// counts as called, so its implementations need no entry of their own.
var orphanAllowed = map[string]string{
	"audiofile/internal/netsim/*": "fault injection for the soaks; the rig and the lineserver firmware are its only non-test callers",
	"audiofile/internal/rig/*":    "the fixtures every test outside aserver builds its system from; only afperf's measurement rig has a non-test caller",

	"audiofile/internal/proto.MaxOpcode": "the last opcode; af's and aserver's opcode-coverage tests walk 1…MaxOpcode",

	"audiofile/aserver.Server.Do":     "af's robustness test reads a device's record reference count under the control lock",
	"audiofile/aserver.Server.Device": "af's robustness test reads a device's record reference count under the control lock",

	"audiofile/internal/vdev.Clock.Rate":      "NewManualClock's rate, which bench/ and the tests pass, is read back only through it",
	"audiofile/internal/vdev.ManualClock.Set": "the root broadcast soak and core's wrap tests start the clock just before the wrap",

	"audiofile/internal/lineserver.NewFirmware":      "boots the simulated LineServer box the root soaks and af's tests run against",
	"audiofile/internal/lineserver.Firmware.Addr":    "the address the root soaks and af's tests point a lineserver device at",
	"audiofile/internal/lineserver.Firmware.Close":   "the root soaks and af's tests shut the box down, or kill it to test recovery",
	"audiofile/internal/lineserver.Firmware.Faults":  "the chaos soak reads the injected packet faults' accounting",
	"audiofile/internal/lineserver.Firmware.Packets": "af's LineServer test counts the packets the box served",
	"audiofile/internal/lineserver.Backend.ReadReg":  "the chaos soak's register traffic, the one retried round trip",
	"audiofile/internal/lineserver.Backend.WriteReg": "the chaos soak's register traffic, the one retried round trip",
	"audiofile/internal/lineserver.RegOutputGain":    "the register the chaos soak writes and reads back",
}

// timeOrderAllowed names the ordered comparisons on a device time that are
// meant, keyed "file:function", each with its reason.
var timeOrderAllowed = map[string]string{
	"af/example_test.go:ExampleTimeBefore": "prints the plain comparison's wrong answer beside TimeBefore's right one",
}

// TestNoOrphanExports type-checks the module, tests included, and holds
// two rules over it.
//
// Every declaration in the non-test files of a package other than bench/
// needs a reference from non-test code, bench/'s included: a name no code
// reaches is surface nobody uses. A reference is an identifier the type
// checker resolves to the declaration, so a method shares nothing with a
// namesake on another type. A method also counts as reached when it
// implements an interface method some code calls, or an interface of the
// standard library, which calls it unseen. Exempt are af's and afutil's
// exported API, with the types they re-export by alias, the members of an
// iota block any of whose members is used, and orphanAllowed; a package
// it names whole is exempt only for what another package's tests reach.
//
// Device time is a wrapping 32-bit counter, so an ordered comparison (<,
// <=, >, >=) on an ATime is wrong near the wrap: outside internal/atime,
// one fails unless timeOrderAllowed names it.
//
// A function that callRules names is called only from its homes.
func TestNoOrphanExports(t *testing.T) {
	m := loadModule(t)
	errs := slices.Concat(m.orphans(), m.timeOrders(), m.callSites())
	sort.Strings(errs)
	for _, e := range errs {
		t.Error(e)
	}
}

// listedPkg is one of the module's packages, as go list reports it for
// this build configuration.
type listedPkg struct {
	ImportPath, Dir                    string
	GoFiles, TestGoFiles, XTestGoFiles []string
	Imports, TestImports, XTestImports []string
	Deps                               []string // the non-test build's, transitively
}

// unit is one type-checked build of a package.
type unit struct {
	path  string
	files []*ast.File
	info  *types.Info
}

// module is the type-checked module.
type module struct {
	fset   *token.FileSet
	pkgs   map[string]*types.Package // the non-test builds, by import path
	std    map[string]*types.Package // the standard packages the module imports
	builds []*unit                   // each package's non-test files
	tests  []*unit                   // each in-package and external test build
}

// loadModule type-checks every package of the module from source, alone
// and with its tests, against the standard library's export data. As in
// go test, every build imports the other packages' non-test builds, but
// an external test imports its package's test build, and every package
// between them is checked again against that build.
func loadModule(t *testing.T) *module {
	t.Helper()
	out, err := exec.Command("go", "list", "-e", "-json=ImportPath,Dir,GoFiles,TestGoFiles,XTestGoFiles,Imports,TestImports,XTestImports,Deps", "./...").Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	listed := map[string]*listedPkg{}
	var paths, std []string
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		p := new(listedPkg)
		if err := dec.Decode(p); err != nil {
			t.Fatal(err)
		}
		listed[p.ImportPath] = p
		paths = append(paths, p.ImportPath)
		std = slices.Concat(std, p.Imports, p.TestImports, p.XTestImports)
	}
	std = slices.DeleteFunc(std, func(path string) bool { return listed[path] != nil })
	out, err = exec.Command("go", append([]string{"list", "-export", "-f", "{{.ImportPath}}\t{{.Export}}"}, std...)...).Output()
	if err != nil {
		t.Fatalf("go list -export: %v", err)
	}
	export := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		path, file, _ := strings.Cut(line, "\t")
		export[path] = file
	}

	m := &module{fset: token.NewFileSet(), pkgs: map[string]*types.Package{}, std: map[string]*types.Package{}}
	gc := importer.ForCompiler(m.fset, "gc", func(path string) (io.ReadCloser, error) {
		return os.Open(export[path])
	})
	parsed := map[string]*ast.File{} // a file shared by two builds is parsed once
	var imp importerFunc
	check := func(to *[]*unit, imp importerFunc, path, dir string, names []string) *types.Package {
		u := &unit{path: path, info: &types.Info{
			Types: map[ast.Expr]types.TypeAndValue{},
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
		}}
		for _, name := range names {
			name = filepath.Join(dir, name)
			if parsed[name] == nil {
				f, err := parser.ParseFile(m.fset, name, nil, parser.SkipObjectResolution)
				if err != nil {
					t.Fatal(err)
				}
				parsed[name] = f
			}
			u.files = append(u.files, parsed[name])
		}
		conf := types.Config{Importer: imp, Error: func(err error) { t.Error(err) }}
		pkg, _ := conf.Check(path, m.fset, u.files, u.info)
		*to = append(*to, u)
		return pkg
	}
	imp = func(path string) (*types.Package, error) {
		if pkg := m.pkgs[path]; pkg != nil {
			return pkg, nil
		}
		if p := listed[path]; p != nil {
			m.pkgs[path] = check(&m.builds, imp, path, p.Dir, p.GoFiles)
			return m.pkgs[path], nil
		}
		pkg, err := gc.Import(path)
		m.std[path] = pkg
		return pkg, err
	}
	sort.Strings(paths)
	for _, path := range paths {
		imp(path) //nolint:errcheck — a type error has failed t
	}
	for _, path := range paths {
		p, ximp := listed[path], imp
		if len(p.TestGoFiles) > 0 {
			variant := map[string]*types.Package{path: check(&m.tests, imp, path, p.Dir, slices.Concat(p.GoFiles, p.TestGoFiles))}
			ximp = func(dep string) (*types.Package, error) {
				if variant[dep] == nil && listed[dep] != nil && slices.Contains(listed[dep].Deps, path) {
					var recheck []*unit // the same files as dep's build, whose units stand for them
					variant[dep] = check(&recheck, ximp, dep, listed[dep].Dir, listed[dep].GoFiles)
				}
				if variant[dep] != nil {
					return variant[dep], nil
				}
				return imp(dep)
			}
		}
		if len(p.XTestGoFiles) > 0 {
			check(&m.tests, ximp, path+"_test", p.Dir, p.XTestGoFiles)
		}
	}
	if t.Failed() {
		t.FailNow()
	}
	return m
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// orphans lists the scanned declarations no non-test code reaches.
func (m *module) orphans() []string {
	used := map[types.Object]bool{}
	var decls []types.Object
	iota := map[types.Object][]types.Object{} // a member of an iota block -> the block
	for _, u := range m.builds {
		scan := u.path != modulePath+"/bench" // bench/ measures: what it alone reaches may stand
		for _, f := range u.files {
			for _, d := range f.Decls {
				var self types.Object // a declaration does not reach itself
				if fd, ok := d.(*ast.FuncDecl); ok {
					self = u.info.Defs[fd.Name]
					if scan && (fd.Recv != nil || fd.Name.Name != "init" && fd.Name.Name != "main") {
						decls = append(decls, self)
					}
				}
				var visit func(n ast.Node) bool
				visit = func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.FuncDecl:
						if n.Recv != nil { // a receiver names its own type: not a reference
							ast.Inspect(n.Type, visit)
							if n.Body != nil {
								ast.Inspect(n.Body, visit)
							}
							return false
						}
					case *ast.GenDecl:
						if scan {
							decls = append(decls, members(u.info, n, iota)...)
						}
					case *ast.Ident:
						if obj := u.info.Uses[n]; obj != nil && obj != self {
							used[origin(obj)] = true
						}
					}
					return true
				}
				ast.Inspect(d, visit)
			}
		}
	}

	// What another package's tests reach, by position: a package a test
	// imports may be checked twice, as two sets of objects.
	foreign := map[token.Pos]bool{}
	for _, u := range m.tests {
		for _, obj := range u.info.Uses {
			if obj.Pkg() != nil && obj.Pkg().Path() != strings.TrimSuffix(u.path, "_test") {
				foreign[obj.Pos()] = true
			}
		}
	}

	// The interfaces whose methods count as called: each one a method of
	// which some code calls or orphanAllowed names, and every interface of
	// the standard library.
	ifaces := map[string][]*types.Interface{} // method name -> interfaces
	called := func(obj types.Object) {
		if f, ok := obj.(*types.Func); ok && recvOf(f) != nil && types.IsInterface(recvOf(f)) {
			ifaces[f.Name()] = append(ifaces[f.Name()], recvOf(f).Underlying().(*types.Interface))
		}
	}
	for obj := range used {
		called(obj)
	}
	for _, obj := range decls {
		if _, ok := orphanAllowed[declKey(obj)]; ok {
			called(obj)
		}
	}
	scopes := []*types.Scope{types.Universe}
	for _, pkg := range m.std {
		scopes = append(scopes, pkg.Scope())
	}
	for _, sc := range scopes {
		for _, name := range sc.Names() {
			obj := sc.Lookup(name)
			if it, ok := obj.Type().Underlying().(*types.Interface); ok && (obj.Exported() || sc == types.Universe) {
				for i := 0; i < it.NumMethods(); i++ {
					ifaces[it.Method(i).Name()] = append(ifaces[it.Method(i).Name()], it)
				}
			}
		}
	}

	// af's and afutil's exported API, with the types they re-export by alias.
	api := map[types.Object]bool{}
	for _, path := range []string{modulePath + "/af", modulePath + "/afutil"} {
		sc := m.pkgs[path].Scope()
		for _, name := range sc.Names() {
			obj := sc.Lookup(name)
			api[obj] = obj.Exported()
			if _, ok := obj.(*types.TypeName); ok && obj.Exported() && namedOf(obj.Type()) != nil {
				n := namedOf(obj.Type())
				api[n.Obj()] = true
				for i := 0; i < n.NumMethods(); i++ {
					api[n.Method(i)] = n.Method(i).Exported()
				}
			}
		}
	}

	reached := func(obj types.Object) bool {
		if used[obj] || api[obj] || slices.ContainsFunc(iota[obj], func(o types.Object) bool { return used[o] }) {
			return true
		}
		f, ok := obj.(*types.Func)
		if !ok || recvOf(f) == nil {
			return false
		}
		recv := recvOf(f)
		for _, it := range ifaces[f.Name()] {
			if recv.Underlying() != it && (types.Implements(recv, it) || !types.IsInterface(recv) && types.Implements(types.NewPointer(recv), it)) {
				return true
			}
		}
		return false
	}

	var errs []string
	declared := map[string]bool{}
	for _, obj := range decls {
		key := declKey(obj)
		declared[key] = true
		if _, all := orphanAllowed[obj.Pkg().Path()+"/*"]; all && obj.Exported() {
			if !foreign[obj.Pos()] && !reached(obj) {
				errs = append(errs, fmt.Sprintf("%s: %s is reached only by its own package's tests: delete it", m.fset.Position(obj.Pos()), key))
			}
			continue
		}
		_, allowed := orphanAllowed[key]
		switch r := reached(obj); {
		case !allowed && !r:
			errs = append(errs, fmt.Sprintf("%s: %s has no non-test reference: delete it, move it beside its tests, or give orphanAllowed a reason", m.fset.Position(obj.Pos()), key))
		case allowed && r:
			errs = append(errs, fmt.Sprintf("%s: %s has a non-test reference now: drop its orphanAllowed entry", m.fset.Position(obj.Pos()), key))
		}
	}
	for key := range orphanAllowed {
		if !declared[key] && m.pkgs[strings.TrimSuffix(key, "/*")] == nil {
			errs = append(errs, "orphanAllowed names "+key+", which is not declared")
		}
	}
	return errs
}

// members lists what a const, type or var declaration declares, an
// interface type's methods included, and maps each member of an iota
// block to the block.
func members(info *types.Info, d *ast.GenDecl, iota map[types.Object][]types.Object) []types.Object {
	var group []types.Object
	hasIota := false
	for _, s := range d.Specs {
		switch s := s.(type) {
		case *ast.TypeSpec:
			group = append(group, info.Defs[s.Name])
			if it, ok := s.Type.(*ast.InterfaceType); ok {
				for _, fld := range it.Methods.List {
					for _, id := range fld.Names {
						group = append(group, info.Defs[id])
					}
				}
			}
		case *ast.ValueSpec:
			for _, id := range s.Names {
				if id.Name != "_" {
					group = append(group, info.Defs[id])
				}
			}
			for _, v := range s.Values {
				ast.Inspect(v, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok && info.Uses[id] == types.Universe.Lookup("iota") {
						hasIota = true
					}
					return true
				})
			}
		}
	}
	if hasIota {
		for _, o := range group {
			iota[o] = group
		}
	}
	return group
}

// recvOf is a method's receiver type, or nil for a function.
func recvOf(f *types.Func) types.Type {
	if recv := f.Type().(*types.Signature).Recv(); recv != nil {
		return recv.Type()
	}
	return nil
}

// declKey names an object as orphanAllowed does.
func declKey(obj types.Object) string {
	if f, ok := obj.(*types.Func); ok && recvOf(f) != nil {
		return obj.Pkg().Path() + "." + namedOf(recvOf(f)).Obj().Name() + "." + obj.Name()
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// namedOf is the named type behind T or *T, or nil.
func namedOf(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := types.Unalias(t).(*types.Named)
	return n
}

// origin is the generic declaration behind an instantiated object.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// timeOrders lists the ordered comparisons on a device time, outside
// internal/atime, that timeOrderAllowed does not name.
func (m *module) timeOrders() []string {
	root, _ := os.Getwd()
	var errs []string
	seen := map[token.Pos]bool{} // a non-test file is in two builds
	allowed := map[string]bool{}
	for _, u := range slices.Concat(m.builds, m.tests) {
		isTime := func(e ast.Expr) bool {
			n := namedOf(u.info.Types[e].Type)
			return n != nil && n.Obj().Name() == "ATime" && n.Obj().Pkg() != nil && n.Obj().Pkg().Path() == modulePath+"/internal/atime"
		}
		for _, f := range u.files {
			for _, d := range f.Decls {
				fn := ""
				if fd, ok := d.(*ast.FuncDecl); ok {
					fn = fd.Name.Name
				}
				ast.Inspect(d, func(n ast.Node) bool {
					b, ok := n.(*ast.BinaryExpr)
					if !ok || seen[b.OpPos] || u.path == modulePath+"/internal/atime" ||
						b.Op != token.LSS && b.Op != token.LEQ && b.Op != token.GTR && b.Op != token.GEQ || !isTime(b.X) && !isTime(b.Y) {
						return true
					}
					seen[b.OpPos] = true
					pos := m.fset.Position(b.OpPos)
					rel, _ := filepath.Rel(root, pos.Filename)
					if key := rel + ":" + fn; timeOrderAllowed[key] != "" {
						allowed[key] = true
					} else {
						errs = append(errs, fmt.Sprintf("%s:%d: %s on a device time, which wraps: compare with af.TimeBefore or atime.Before and their kin, or give timeOrderAllowed a reason", rel, pos.Line, b.Op))
					}
					return true
				})
			}
		}
	}
	for key := range timeOrderAllowed {
		if !allowed[key] {
			errs = append(errs, "timeOrderAllowed names "+key+", which orders no device time")
		}
	}
	return errs
}

// callRules give each of some standard functions one home: in the
// non-test code of the packages under scope, only a home calls them. A
// home is "importpath" or "importpath.function", with its reason.
var callRules = []struct {
	funcs []string // "importpath.Name"
	scope string   // an import path, with the packages under it
	homes map[string]string
}{
	{
		funcs: []string{"net.Dial", "net.DialTimeout"},
		scope: modulePath + "/af",
		homes: map[string]string{
			modulePath + "/af.dial": "the one dial, under dialTimeout, that Open, a setup redirect and a reconnect share",
		},
	},
	{
		funcs: []string{"syscall.Read", "syscall.Write", "syscall.Recvfrom", "syscall.Recvmsg", "syscall.Sendto", "syscall.Sendmsg", "syscall.SendmsgN",
			"syscall.Syscall", "syscall.Syscall6", "syscall.RawSyscall", "syscall.RawSyscall6"},
		scope: modulePath,
		homes: map[string]string{
			modulePath + "/internal/proto": "the wire layer: both ends' socket reads and writes, plain, vectored and raw, are made there alone",
		},
	},
	{
		funcs: []string{"syscall.Mmap", "syscall.Munmap", "syscall.Madvise"},
		scope: modulePath,
		homes: map[string]string{
			modulePath + "/internal/ring": "device buffer memory is mapped and released there alone",
		},
	},
}

// callSites lists the calls callRules forbid, and the homes that call
// nothing their rule names.
func (m *module) callSites() []string {
	var errs []string
	for _, r := range callRules {
		called := map[string]bool{}
		for _, u := range m.builds {
			if u.path != r.scope && !strings.HasPrefix(u.path, r.scope+"/") {
				continue
			}
			for _, f := range u.files {
				for _, d := range f.Decls {
					home := u.path
					if fd, ok := d.(*ast.FuncDecl); ok {
						home += "." + fd.Name.Name
					}
					ast.Inspect(d, func(n ast.Node) bool {
						id, ok := n.(*ast.Ident)
						fn, _ := u.info.Uses[id].(*types.Func)
						if !ok || fn == nil || fn.Pkg() == nil || !slices.Contains(r.funcs, fn.Pkg().Path()+"."+fn.Name()) || recvOf(fn) != nil {
							return true
						}
						switch {
						case r.homes[u.path] != "":
							called[u.path] = true
						case r.homes[home] != "":
							called[home] = true
						default:
							errs = append(errs, fmt.Sprintf("%s: %s.%s is called only from its homes in callRules", m.fset.Position(id.Pos()), fn.Pkg().Path(), fn.Name()))
						}
						return true
					})
				}
			}
		}
		for home := range r.homes {
			if !called[home] {
				errs = append(errs, "callRules names "+home+", which calls none of "+strings.Join(r.funcs, ", "))
			}
		}
	}
	return errs
}

// modulePath is the module's import path, from go.mod.
const modulePath = "audiofile"

// pkgDir is one package of the module, as go list reports it.
type pkgDir struct{ path, dir string }

// modulePackages lists the module's packages with go list. Every build
// configuration's files are then read from each directory, so the line,
// format and doc scans see rawconn_other.go and mix_amd64.go alike.
func modulePackages(t *testing.T) []pkgDir {
	t.Helper()
	out, err := exec.Command("go", "list", "-e", "-f", "{{.ImportPath}}\t{{.Dir}}", "./...").Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	var pkgs []pkgDir
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		path, dir, _ := strings.Cut(line, "\t")
		pkgs = append(pkgs, pkgDir{path, dir})
	}
	return pkgs
}

// goFiles names the package's Go files: its test files when tests is set,
// every other file otherwise.
func (p pkgDir) goFiles(t *testing.T, tests bool) []string {
	t.Helper()
	entries, err := os.ReadDir(p.dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if !e.IsDir() && strings.HasSuffix(name, ".go") && strings.HasSuffix(name, "_test.go") == tests {
			names = append(names, name)
		}
	}
	return names
}
