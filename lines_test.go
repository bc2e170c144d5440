package audiofile

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// lineSlack is how far a package may fall below its LINES row before the
// row must come down with it.
const lineSlack = 50

// TestLineCeiling holds each top-level package's non-test Go lines to its
// row in LINES: above the row fails, so growth shows in the diff that
// raises it; more than lineSlack below fails too, so a deletion is banked
// by lowering the row. Rows count every file of every build configuration,
// and the root package, which has only tests, counts its tests.
func TestLineCeiling(t *testing.T) {
	got := map[string]int{}
	for _, p := range modulePackages(t) {
		top := "."
		if rest, ok := strings.CutPrefix(p.path, modulePath+"/"); ok {
			top, _, _ = strings.Cut(rest, "/")
		}
		for _, name := range p.goFiles(t, top == ".") {
			src, err := os.ReadFile(filepath.Join(p.dir, name))
			if err != nil {
				t.Fatal(err)
			}
			got[top] += bytes.Count(src, []byte{'\n'})
		}
	}

	holdCeilings(t, "LINES", "lines", got, lineSlack)
}

// docSlack is how far, in bytes, a document may fall below its DOCS row.
const docSlack = 2 << 10

// TestDocCeiling holds each document named in DOCS to its row, in bytes,
// by TestLineCeiling's rule: above the row fails, and so does more than
// docSlack below it.
func TestDocCeiling(t *testing.T) {
	got := map[string]int{}
	for doc := range readCeilings(t, "DOCS") {
		info, err := os.Stat(doc)
		if err != nil {
			t.Fatal(err)
		}
		got[doc] = int(info.Size())
	}
	holdCeilings(t, "DOCS", "bytes", got, docSlack)
}

// readCeilings parses a ceilings file: one "name n" row a line, with
// blank lines and #-comments skipped.
func readCeilings(t *testing.T, file string) map[string]int {
	raw, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int{}
	for _, line := range strings.Split(string(raw), "\n") {
		if line = strings.TrimSpace(line); line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, n, _ := strings.Cut(line, " ")
		row, err := strconv.Atoi(strings.TrimSpace(n))
		if err != nil {
			t.Fatalf("%s: %q: %v", file, line, err)
		}
		want[name] = row
	}
	return want
}

// holdCeilings fails every name in got above its row in file or more than
// slack below it, and every name with no row; on failure it logs the rows
// this tree would have.
func holdCeilings(t *testing.T, file, unit string, got map[string]int, slack int) {
	want := readCeilings(t, file)
	var names []string
	for name := range got {
		names = append(names, name)
	}
	for name := range want {
		if _, ok := got[name]; !ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	bad := false
	var rows strings.Builder
	for _, name := range names {
		n, row := got[name], want[name]
		fmt.Fprintf(&rows, "%s %d\n", name, n)
		switch _, listed := want[name]; {
		case !listed:
			t.Errorf("%s: %d %s and no row in %s", name, n, unit, file)
		case n > row:
			t.Errorf("%s: %d %s, above its row of %d by %d", name, n, unit, row, n-row)
		case n < row-slack:
			t.Errorf("%s: %d %s, %d below its row of %d: lower the row", name, n, unit, row-n, row)
		default:
			continue
		}
		bad = true
	}
	if bad {
		t.Logf("rows for this tree:\n%s", rows.String())
	}
}
