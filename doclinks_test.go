package audiofile

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// docFiles are the documents whose back-quoted names must resolve.
var docFiles = []string{"README.md", "DESIGN.md", "GLOSSARY.md"}

var (
	codeSpan  = regexp.MustCompile("`([^`\n]+)`")
	qualified = regexp.MustCompile(`^([A-Za-z_]\w*)\.([A-Za-z_]\w*)(?:\.([A-Za-z_]\w*))?$`)
	repoPath  = regexp.MustCompile(`^[\w.-]+(/[\w.-]+)*/?$`)
	fileExt   = regexp.MustCompile(`\.(go|s|md|json|jsonl|yml|txt|hex)$`)
)

// TestDocNamesResolve requires the documents to name only what exists.
// Every back-quoted span outside a fenced block is checked when it has one
// of two shapes:
//   - pkg.Name or pkg.Type.Member, where pkg is one of the module's
//     packages and Name is exported: Name must be declared in pkg, and
//     Member must be a method or field of Type; Type.Member, where Type is
//     an exported type declared in the module, the same for Member;
//   - dir.Name, where dir is a package directory (internal/health.Machine):
//     Name must be declared there;
//   - a repository path: one under a top-level entry (aserver/client.go,
//     .github/workflows/ci.yml) must exist, and a bare file name
//     (rawconn_linux.go) must name some file in the tree.
//
// Anything else (commands, metric names, the standard library) is prose.
func TestDocNamesResolve(t *testing.T) {
	fset := token.NewFileSet()
	decls := map[string]map[string]bool{}   // package name -> top-level names
	members := map[string]map[string]bool{} // type name -> methods and fields
	member := func(typ, name string) {
		if members[typ] == nil {
			members[typ] = map[string]bool{}
		}
		members[typ][name] = true
	}
	for _, p := range modulePackages(t) {
		for _, tests := range []bool{false, true} {
			for _, name := range p.goFiles(t, tests) {
				f, err := parser.ParseFile(fset, filepath.Join(p.dir, name), nil, parser.SkipObjectResolution)
				if err != nil {
					t.Fatal(err)
				}
				pkg := f.Name.Name
				if pkg == "main" || strings.HasSuffix(pkg, "_test") {
					continue
				}
				if decls[pkg] == nil {
					decls[pkg] = map[string]bool{}
				}
				for _, d := range f.Decls {
					switch d := d.(type) {
					case *ast.FuncDecl:
						if d.Recv == nil {
							decls[pkg][d.Name.Name] = true
						} else {
							member(recvType(d.Recv.List[0].Type), d.Name.Name)
						}
					case *ast.GenDecl:
						for _, s := range d.Specs {
							switch s := s.(type) {
							case *ast.TypeSpec:
								decls[pkg][s.Name.Name] = true
								if members[s.Name.Name] == nil { // declared, maybe memberless
									members[s.Name.Name] = map[string]bool{}
								}
								if st, ok := s.Type.(*ast.StructType); ok {
									for _, fld := range st.Fields.List {
										for _, id := range fld.Names {
											member(s.Name.Name, id.Name)
										}
										if len(fld.Names) == 0 { // embedded
											member(s.Name.Name, recvType(fld.Type))
										}
									}
								}
							case *ast.ValueSpec:
								for _, id := range s.Names {
									decls[pkg][id.Name] = true
								}
							}
						}
					}
				}
			}
		}
	}

	top := map[string]bool{}
	entries, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		top[e.Name()] = true
	}
	base := map[string]bool{}
	filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error { //nolint:errcheck
		if err == nil {
			base[d.Name()] = true
		}
		return nil
	})

	for _, doc := range docFiles {
		raw, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		fenced := false
		for i, line := range strings.Split(string(raw), "\n") {
			if strings.HasPrefix(strings.TrimSpace(line), "```") {
				fenced = !fenced
				continue
			}
			if fenced {
				continue
			}
			for _, m := range codeSpan.FindAllStringSubmatch(line, -1) {
				span, _, _ := strings.Cut(m[1], "(")
				if problem := resolveSpan(span, decls, members, top, base); problem != "" {
					t.Errorf("%s:%d: `%s`: %s", doc, i+1, m[1], problem)
				}
			}
		}
	}
}

// resolveSpan reports why span names nothing in the tree, or "" when it
// resolves or is not a name the test checks.
func resolveSpan(span string, decls, members map[string]map[string]bool, top, base map[string]bool) string {
	if m := qualified.FindStringSubmatch(span); m != nil {
		first, name, sub := m[1], m[2], m[3]
		if names, ok := decls[first]; ok && ast.IsExported(name) {
			if !names[name] {
				return "package " + first + " declares no " + name
			}
			if sub != "" && !members[name][sub] {
				return name + " has no method or field " + sub
			}
			return ""
		}
		if ms, ok := members[first]; ok && ast.IsExported(first) && !strings.Contains(span, "/") {
			if !ms[name] {
				return first + " has no method or field " + name
			}
			return ""
		}
	}
	if !repoPath.MatchString(span) {
		return ""
	}
	if dir, name, ok := cutLast(span, "."); ok && strings.Contains(dir, "/") && ast.IsExported(name) {
		if st, err := os.Stat(dir); err == nil && st.IsDir() {
			if !decls[filepath.Base(dir)][name] {
				return "package " + dir + " declares no " + name
			}
			return ""
		}
	}
	if first, _, nested := strings.Cut(span, "/"); nested && top[first] {
		if _, err := os.Stat(span); err != nil {
			return "no such path"
		}
	} else if !nested && fileExt.MatchString(span) && !base[span] {
		return "no such file in the tree"
	}
	return ""
}

// cutLast slices s around the last instance of sep.
func cutLast(s, sep string) (before, after string, found bool) {
	if i := strings.LastIndex(s, sep); i >= 0 {
		return s[:i], s[i+len(sep):], true
	}
	return s, "", false
}
