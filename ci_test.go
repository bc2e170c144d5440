package audiofile

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestCIPatternsMatch holds the CI workflow's test selections to the
// tests they mean to run, since go test passes a pattern that matches
// nothing. Every package a go test line names must declare a function
// its -run pattern (tests, fuzz targets, examples) or -bench pattern
// (benchmarks) matches; a line over ./... needs one somewhere in the
// module. Each fuzz entry must name a fuzz target of its package.
// "-run xxx" deliberately runs no test and is exempt.
func TestCIPatternsMatch(t *testing.T) {
	raw, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	// funcs maps each package's directory, as ci.yml names it, to the
	// functions its test files declare.
	funcs := map[string][]string{}
	for _, p := range modulePackages(t) {
		dir := "."
		if rest, ok := strings.CutPrefix(p.path, modulePath+"/"); ok {
			dir = rest
		}
		for _, name := range p.goFiles(t, true) {
			f, err := parser.ParseFile(token.NewFileSet(), filepath.Join(p.dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range f.Decls {
				if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil {
					funcs[dir] = append(funcs[dir], fn.Name.Name)
				}
			}
		}
	}
	// check fails line n unless each package it names declares a function
	// with one of prefixes whose name pat matches.
	check := func(n int, flag, pat string, prefixes []string, pkgs []string) {
		re, err := regexp.Compile(pat)
		if err != nil {
			t.Errorf("ci.yml:%d: %s %q: %v", n, flag, pat, err)
			return
		}
		for _, pkg := range pkgs {
			found := false
			for dir, names := range funcs {
				if pkg != "./..." && dir != filepath.Clean(pkg) {
					continue
				}
				for _, name := range names {
					for _, p := range prefixes {
						found = found || strings.HasPrefix(name, p) && re.MatchString(name)
					}
				}
			}
			if !found {
				t.Errorf("ci.yml:%d: %s %q matches nothing in %s", n, flag, pat, pkg)
			}
		}
	}
	fuzzList := false
	for i, line := range strings.Split(string(raw), "\n") {
		n, line := i+1, strings.TrimSpace(line)
		switch {
		case strings.HasSuffix(line, "<<'EOF'"):
			fuzzList = true
		case line == "EOF":
			fuzzList = false
		case fuzzList:
			pkg, target, _ := strings.Cut(line, " ")
			check(n, "fuzz entry", "^"+target+"$", []string{"Fuzz"}, []string{pkg})
		default:
			_, cmd, ok := strings.Cut(line, "go test ")
			if !ok {
				continue
			}
			args := shellWords(cmd)
			pats := map[string]string{}
			var pkgs []string
			for j := 0; j < len(args); j++ {
				flag, val, hasVal := strings.Cut(args[j], "=")
				switch {
				case flag == "-run" || flag == "-bench":
					if !hasVal && j+1 < len(args) {
						j++
						val = args[j]
					}
					pats[flag] = val
				case strings.HasPrefix(args[j], "."):
					pkgs = append(pkgs, args[j])
				}
			}
			if pat, ok := pats["-run"]; ok && pat != "xxx" {
				check(n, "-run", pat, []string{"Test", "Fuzz", "Example"}, pkgs)
			}
			if pat, ok := pats["-bench"]; ok {
				check(n, "-bench", pat, []string{"Benchmark"}, pkgs)
			}
		}
	}
}

// shellWords splits a shell command into its words, as far as the first
// ;, |, &, < or > outside quotes: quotes group a word and are dropped.
func shellWords(cmd string) []string {
	var words []string
	var w strings.Builder
	var quote rune
	inWord := false
	for _, r := range cmd {
		switch {
		case quote != 0 && r == quote:
			quote = 0
		case quote != 0:
			w.WriteRune(r)
		case r == '\'' || r == '"':
			quote, inWord = r, true
		case r == ' ' || r == '\t' || strings.ContainsRune(";|&<>", r):
			if inWord {
				words = append(words, w.String())
				w.Reset()
				inWord = false
			}
			if r != ' ' && r != '\t' {
				return words
			}
		default:
			w.WriteRune(r)
			inWord = true
		}
	}
	if inWord {
		words = append(words, w.String())
	}
	return words
}
