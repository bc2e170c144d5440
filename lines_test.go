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

	raw, err := os.ReadFile("LINES")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int{}
	for _, line := range strings.Split(string(raw), "\n") {
		if line = strings.TrimSpace(line); line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		top, n, _ := strings.Cut(line, " ")
		rows, err := strconv.Atoi(strings.TrimSpace(n))
		if err != nil {
			t.Fatalf("LINES: %q: %v", line, err)
		}
		want[top] = rows
	}

	var tops []string
	for top := range got {
		tops = append(tops, top)
	}
	for top := range want {
		if _, ok := got[top]; !ok {
			tops = append(tops, top)
		}
	}
	sort.Strings(tops)
	bad := false
	var rows strings.Builder
	for _, top := range tops {
		n, row := got[top], want[top]
		fmt.Fprintf(&rows, "%s %d\n", top, n)
		switch _, listed := want[top]; {
		case !listed:
			t.Errorf("%s: %d lines and no row in LINES", top, n)
		case n > row:
			t.Errorf("%s: %d lines, above its row of %d by %d", top, n, row, n-row)
		case n < row-lineSlack:
			t.Errorf("%s: %d lines, %d below its row of %d: lower the row", top, n, row-n, row)
		default:
			continue
		}
		bad = true
	}
	if bad {
		t.Logf("rows for this tree:\n%s", rows.String())
	}
}
