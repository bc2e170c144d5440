package e2etest

import (
	"bufio"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"
	"unicode/utf8"

	"audiofile/af"
)

// freeDisplay returns a server number whose Unix socket does not exist.
func freeDisplay(t *testing.T) int {
	t.Helper()
	for n := 900 + os.Getpid()%1000; ; n++ {
		if _, err := os.Stat(af.UnixSocketPath(n)); errors.Is(err, fs.ErrNotExist) {
			return n
		}
	}
}

// daemon is a running afd or arouter binary.
type daemon struct {
	cmd    *exec.Cmd
	exited chan struct{} // closed once err holds what Wait returned
	err    error
}

// startDaemon runs a daemon and returns it with the first line it writes
// on stderr, its listening line. The test's end kills it if it still runs.
func startDaemon(t *testing.T, name string, args ...string) (*daemon, string) {
	t.Helper()
	cmd := exec.Command(bin(name), args...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	d := &daemon{cmd: cmd, exited: make(chan struct{})}
	line := make(chan string, 1)
	go func() {
		l, _ := bufio.NewReader(stderr).ReadString('\n')
		line <- l
		d.err = cmd.Wait()
		close(d.exited)
	}()
	t.Cleanup(func() {
		cmd.Process.Kill() //nolint:errcheck — it may have exited
		<-d.exited
	})
	select {
	case l := <-line:
		return d, l
	case <-time.After(10 * time.Second):
		t.Fatalf("%s %v wrote no listening line", name, args)
		return nil, ""
	}
}

// stop sends SIGTERM and waits for the daemon to exit cleanly.
func (d *daemon) stop(t *testing.T) {
	t.Helper()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case <-d.exited:
		if d.err != nil {
			t.Errorf("%s after SIGTERM: %v", d.cmd.Path, d.err)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("%s did not exit on SIGTERM", d.cmd.Path)
	}
}

// gettime opens server name (a "#key" suffix sets a routing key) and asks
// it the time.
func gettime(t *testing.T, name string) {
	t.Helper()
	c, err := af.Open(name)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.GetTime(0); err != nil {
		t.Fatal(err)
	}
}

// socketGone fails the test if server number n's socket still exists.
func socketGone(t *testing.T, n int) {
	t.Helper()
	if _, err := os.Stat(af.UnixSocketPath(n)); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("socket %s after SIGTERM: %v, want it removed", af.UnixSocketPath(n), err)
	}
}

// TestAfdServesDisplay: afd on server number n listens where ":n"
// connects, answers GetTime there, and removes its socket on SIGTERM.
func TestAfdServesDisplay(t *testing.T) {
	n := freeDisplay(t)
	afd, line := startDaemon(t, "afd", "-n", strconv.Itoa(n))
	if want := "afd: listening on " + af.UnixSocketPath(n) + "\n"; line != want {
		t.Errorf("afd stderr %q, want %q", line, want)
	}
	gettime(t, fmt.Sprintf(":%d", n))
	afd.stop(t)
	socketGone(t, n)
}

// TestArouterPlacesRoute: arouter fronting one afd by its Unix socket
// places a keyed session on it.
func TestArouterPlacesRoute(t *testing.T) {
	n := freeDisplay(t)
	afd, _ := startDaemon(t, "afd", "-n", strconv.Itoa(n))
	m := freeDisplay(t)
	router, line := startDaemon(t, "arouter", "-n", strconv.Itoa(m), "-backend", af.UnixSocketPath(n))
	if want := "arouter: listening on " + af.UnixSocketPath(m) + ", fronting 1 backends\n"; line != want {
		t.Errorf("arouter stderr %q, want %q", line, want)
	}
	gettime(t, fmt.Sprintf(":%d#studio-3", m))
	router.stop(t)
	afd.stop(t)
	socketGone(t, m)
	socketGone(t, n)
}

// afperfValue matches what afperf measures: a duration, a rate, a
// percentage, or an unfitted slope. Titles' numbers match too, alike on
// both sides.
var afperfValue = regexp.MustCompile(`n/a|\d[\d.]*(µs|ms|ns|s|%)?`)

// TestAfperfSections: a quick afperf run prints, in order, every line of
// the committed afperf_output.txt (its titles, notes, column headers and
// row labels, a table's lines at their width), values aside. -quick leaves out the delayed
// transports' rows.
func TestAfperfSections(t *testing.T) {
	want, err := os.ReadFile("../../afperf_output.txt")
	if err != nil {
		t.Fatal(err)
	}
	got, _ := run(t, nil, "afperf", "-quick", "-iters", "10")
	// A line's shape is its words, values masked, and, for the indented
	// lines of a table, its width.
	shape := func(line string) string {
		s := strings.Join(strings.Fields(afperfValue.ReplaceAllString(line, "#")), " ")
		if strings.HasPrefix(line, "  ") {
			s += fmt.Sprintf(" (%d wide)", utf8.RuneCountInString(line))
		}
		return s
	}
	lines := strings.Split(got, "\n")
	for _, w := range strings.Split(strings.TrimRight(string(want), "\n"), "\n") {
		if strings.Contains(w, "(tcp+") {
			continue
		}
		for len(lines) > 0 && shape(lines[0]) != shape(w) {
			lines = lines[1:]
		}
		if len(lines) == 0 {
			t.Fatalf("afperf -quick printed no line shaped like %q:\n%s", w, got)
		}
		lines = lines[1:]
	}
}
