package audiofile

import (
	"os/exec"
	"slices"
	"strings"
	"testing"
)

// TestLayering holds the module's layering, read from go list's Deps (the
// transitive imports go list -deps walks) of every package's non-test
// build:
//   - internal/core, the device model, never imports aserver, which
//     serves it;
//   - of the module, af imports only internal/proto, internal/atime and
//     internal/sampleconv: the wire and the two leaves of the contract, so
//     a client links no server code;
//   - no internal/* package but internal/rig, the test fixtures that
//     assemble both ends, imports af or aserver.
func TestLayering(t *testing.T) {
	out, err := exec.Command("go", "list", "-e", "-f", "{{.ImportPath}}{{range .Deps}} {{.}}{{end}}", "./...").Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	deps := map[string][]string{} // a module package -> the module packages it imports
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		fields := strings.Fields(line)
		deps[fields[0]] = slices.DeleteFunc(fields[1:], func(d string) bool { return !strings.HasPrefix(d, modulePath+"/") })
	}
	const (
		af      = modulePath + "/af"
		aserver = modulePath + "/aserver"
		core    = modulePath + "/internal/core"
	)
	check := func(pkg string, may func(dep string) bool) {
		if _, ok := deps[pkg]; !ok {
			t.Errorf("go list does not list %s", pkg)
		}
		for _, d := range deps[pkg] {
			if !may(d) {
				t.Errorf("%s imports %s", pkg, d)
			}
		}
	}
	check(core, func(d string) bool { return d != aserver })
	afMay := []string{modulePath + "/internal/proto", modulePath + "/internal/atime", modulePath + "/internal/sampleconv"}
	check(af, func(d string) bool { return slices.Contains(afMay, d) })
	for pkg := range deps {
		if strings.HasPrefix(pkg, modulePath+"/internal/") && pkg != modulePath+"/internal/rig" {
			check(pkg, func(d string) bool { return d != af && d != aserver })
		}
	}
}
