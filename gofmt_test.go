package audiofile

import (
	"bytes"
	"go/format"
	"os"
	"path/filepath"
	"testing"
)

// TestGofmt requires every Go file in the module, tests included, to be
// exactly as gofmt prints it.
func TestGofmt(t *testing.T) {
	for _, p := range modulePackages(t) {
		for _, tests := range []bool{false, true} {
			for _, name := range p.goFiles(t, tests) {
				path := filepath.Join(p.dir, name)
				src, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if out, err := format.Source(src); err != nil {
					t.Errorf("%s: %v", path, err)
				} else if !bytes.Equal(out, src) {
					t.Errorf("%s: not gofmt-clean; run gofmt -w", path)
				}
			}
		}
	}
}
