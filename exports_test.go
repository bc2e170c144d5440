package audiofile

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// orphanAllowed names the exported identifiers in aserver and internal/...
// that may stand without a non-test caller, each with its reason. A key is
// "importpath.Name" or "importpath.Type.Method"; a key that ends in "/*"
// covers a whole package.
var orphanAllowed = map[string]string{
	"audiofile/internal/netsim/*": "fault injection for the soaks; the rig and the lineserver firmware are its only non-test callers",
	"audiofile/internal/rig/*":    "the fixtures every test outside aserver builds its system from; only afperf's measurement rig has a non-test caller",

	"audiofile/internal/proto.MaxOpcode": "the last opcode; af's and aserver's opcode-coverage tests walk 1…MaxOpcode",

	"audiofile/internal/lineserver.NewFirmware":      "boots the simulated LineServer box the root soaks and af's tests run against",
	"audiofile/internal/lineserver.Firmware.Packets": "af's LineServer test counts the packets the box served",
	"audiofile/internal/lineserver.WithTimeout":      "the chaos soak's reply timeout, shorter than the default under injected loss",
	"audiofile/internal/lineserver.WithHealthTuning": "the chaos soak's resync thresholds, tightened so recovery happens within a run",
	"audiofile/internal/lineserver.Backend.ReadReg":  "the chaos soak's register traffic, the one retried round trip",
	"audiofile/internal/lineserver.Backend.WriteReg": "the chaos soak's register traffic, the one retried round trip",
	"audiofile/internal/lineserver.RegOutputGain":    "the register the chaos soak writes and reads back",
}

// TestNoOrphanExports requires every exported identifier declared in the
// non-test files of aserver and internal/... to have a reference from
// non-test code somewhere in the module: an exported name no traffic
// reaches is surface nobody uses. Top-level names resolve through the
// importing file's imports (or by bare name inside their own package);
// a method counts as referenced when any non-test selector names it, and
// a type does not count as referenced by its own methods' receivers. af
// and afutil are the paper's client library and are not scanned, but
// their calls count, as do bench/'s, cmd/'s and examples/'.
func TestNoOrphanExports(t *testing.T) {
	fset := token.NewFileSet()
	type file struct {
		pkg string
		f   *ast.File
	}
	var files []file
	pkgName := map[string]string{} // import path -> package name
	for _, p := range modulePackages(t) {
		for _, name := range p.goFiles(t, false) {
			f, err := parser.ParseFile(fset, filepath.Join(p.dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, file{p.path, f})
			pkgName[p.path] = f.Name.Name
		}
	}

	scanned := func(pkg string) bool {
		return pkg == modulePath+"/aserver" || strings.HasPrefix(pkg, modulePath+"/internal/")
	}
	declared := map[string]token.Pos{} // key -> declaration
	declIdents := map[*ast.Ident]bool{}
	for _, fl := range files {
		if !scanned(fl.pkg) {
			continue
		}
		declare := func(key string, id *ast.Ident) {
			declIdents[id] = true
			if id.IsExported() {
				declared[key] = id.Pos()
			}
		}
		for _, d := range fl.f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					declare(fl.pkg+"."+d.Name.Name, d.Name)
				} else if recv := recvType(d.Recv.List[0].Type); ast.IsExported(recv) {
					declare(fl.pkg+"."+recv+"."+d.Name.Name, d.Name)
				}
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						declare(fl.pkg+"."+s.Name.Name, s.Name)
					case *ast.ValueSpec:
						for _, id := range s.Names {
							declare(fl.pkg+"."+id.Name, id)
						}
					}
				}
			}
		}
	}

	referenced := map[string]bool{} // "importpath.Name" of top-level names
	selected := map[string]bool{}   // every selector's name, for methods
	for _, fl := range files {
		imports := map[string]string{} // local name -> import path
		for _, im := range fl.f.Imports {
			path := strings.Trim(im.Path.Value, `"`)
			name, ok := pkgName[path]
			if !ok {
				continue
			}
			if im.Name != nil {
				name = im.Name.Name
			}
			imports[name] = path
		}
		var visit func(n ast.Node) bool
		visit = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				// A receiver names its own type: not a reference.
				ast.Inspect(n.Type, visit)
				if n.Body != nil {
					ast.Inspect(n.Body, visit)
				}
				return false
			case *ast.SelectorExpr:
				// Sel names a member or an imported name, never one of
				// this package's top-level names.
				selected[n.Sel.Name] = true
				if x, ok := n.X.(*ast.Ident); ok {
					if path, ok := imports[x.Name]; ok {
						referenced[path+"."+n.Sel.Name] = true
						return false
					}
				}
				ast.Inspect(n.X, visit)
				return false
			case *ast.Ident:
				if !declIdents[n] {
					referenced[fl.pkg+"."+n.Name] = true
				}
			}
			return true
		}
		ast.Inspect(fl.f, visit)
	}

	var errs []string
	for key, pos := range declared {
		pkg, name := splitKey(key, pkgName)
		if _, ok := orphanAllowed[pkg+"/*"]; ok {
			continue
		}
		used := referenced[key]
		if i := strings.IndexByte(name, '.'); i >= 0 {
			used = selected[name[i+1:]]
		}
		_, allowed := orphanAllowed[key]
		switch {
		case !used && !allowed:
			errs = append(errs, fmt.Sprintf("%s: %s has no non-test reference: delete it, unexport it, move it beside its tests, or give orphanAllowed a reason", fset.Position(pos), key))
		case used && allowed:
			errs = append(errs, fmt.Sprintf("%s: %s has a non-test reference now: drop its orphanAllowed entry", fset.Position(pos), key))
		}
	}
	for key := range orphanAllowed {
		if _, ok := declared[key]; !ok && pkgName[strings.TrimSuffix(key, "/*")] == "" {
			errs = append(errs, "orphanAllowed names "+key+", which is not declared")
		}
	}
	sort.Strings(errs)
	for _, e := range errs {
		t.Error(e)
	}
}

// recvType is the type name of a method receiver: T, *T, T[P] or *T[P].
func recvType(x ast.Expr) string {
	for {
		switch e := x.(type) {
		case *ast.StarExpr:
			x = e.X
		case *ast.IndexExpr:
			x = e.X
		case *ast.IndexListExpr:
			x = e.X
		case *ast.Ident:
			return e.Name
		default:
			return ""
		}
	}
}

// splitKey splits "importpath.Name[.Method]" at the end of its import path.
func splitKey(key string, pkgs map[string]string) (pkg, name string) {
	for i := len(key) - 1; i >= 0; i-- {
		if key[i] == '.' {
			if _, ok := pkgs[key[:i]]; ok {
				return key[:i], key[i+1:]
			}
		}
	}
	return "", key
}

// modulePath is the module's import path, from go.mod.
const modulePath = "audiofile"

// pkgDir is one package of the module, as go list reports it.
type pkgDir struct{ path, dir string }

// modulePackages lists the module's packages with go list. Every build
// configuration's files are then read from each directory, so the scans
// below see rawconn_other.go and mix_amd64.go alike.
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
