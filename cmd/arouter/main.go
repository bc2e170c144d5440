// arouter is the AudioFile fleet router: an AF-protocol front tier that
// places each incoming session on one of a fleet of afd backends by name,
// via a consistent-hash device directory. A route-keyed af client on a
// socket it dialed itself is answered with a setup redirect naming the
// owning backend and sets its session up there directly; every other
// client is proxied, its bytes spliced with no per-chunk allocations.
// The router health-checks the backends with GetTime probes, and on a
// backend death redirects a proxied session's client to a standby with a
// typed goodbye that af.SetReconnect turns into a transparent failover
// (the client replays its audio contexts on the replacement); a
// redirected client's own reconnect lands it on the standby the same way.
//
//	arouter -backend host:7000,host2:7000 [-n display] [-tcp] [-stats addr]
//
// Clients pick their placement key with the "#key" suffix of the server
// name (af.OpenRoute): aplay -a router:0#studio-3 hashes "studio-3"
// onto the backend ring. Keyless sessions spread by client address.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"audiofile/aserver"
	"audiofile/internal/cmdutil"
)

func main() {
	display := flag.Int("n", 0, "router number: Unix socket /tmp/.AFunix/AF<n>, TCP port 7000+<n>")
	tcp := flag.Bool("tcp", false, "also listen on TCP")
	backends := flag.String("backend", "", "comma-separated backend afd addresses (host:port TCP, or /path Unix socket); required")
	names := flag.String("names", "", "comma-separated stable directory names for the backends (default: the addresses)")
	replicas := flag.Int("replicas", 0, "virtual points per backend on the hash ring (0 = default)")
	probeInterval := flag.Duration("probe-interval", time.Second, "health-probe period per backend")
	probeTimeout := flag.Duration("probe-timeout", 2*time.Second, "health-probe round-trip timeout")
	failThreshold := flag.Int("fail-threshold", 3, "consecutive probe or dial failures that take a healthy backend out of placement and start its resync")
	dialTimeout := flag.Duration("dial-timeout", 5*time.Second, "backend dial timeout for new sessions")
	clientStall := flag.Duration("client-stall", 30*time.Second, "rolling write deadline toward clients; a client that stops reading this long loses its session")
	statsAddr := flag.String("stats", "", "serve the router's metrics snapshot as JSON at /stats on this address; off by default")
	verbose := flag.Bool("verbose", false, "log routing and health transitions")
	flag.Parse()

	if *backends == "" {
		cmdutil.Die("arouter: -backend is required (e.g. -backend host1:7000,host2:7000)")
	}
	opts := aserver.RouterOptions{
		Backends:         splitList(*backends),
		Replicas:         *replicas,
		ProbeInterval:    *probeInterval,
		ProbeTimeout:     *probeTimeout,
		FailThreshold:    *failThreshold,
		DialTimeout:      *dialTimeout,
		ClientWriteStall: *clientStall,
	}
	if *names != "" {
		opts.Names = splitList(*names)
	}
	if *verbose {
		opts.Logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}
	r, err := aserver.NewRouter(opts)
	if err != nil {
		cmdutil.Die("arouter: %v", err)
	}
	defer r.Close()

	if *statsAddr != "" {
		sl, err := r.ListenStats(*statsAddr)
		if err != nil {
			cmdutil.Die("arouter: stats listener: %v", err)
		}
		fmt.Fprintf(os.Stderr, "arouter: stats on http://%s/stats\n", sl.Addr())
	}

	sockDir := "/tmp/.AFunix"
	if err := os.MkdirAll(sockDir, 0o777); err != nil {
		cmdutil.Die("arouter: %v", err)
	}
	sockPath := filepath.Join(sockDir, fmt.Sprintf("AF%d", *display))
	os.Remove(sockPath) //nolint:errcheck — stale socket from a previous run
	if _, err := r.Listen("unix", sockPath); err != nil {
		cmdutil.Die("arouter: %v", err)
	}
	fmt.Fprintf(os.Stderr, "arouter: listening on %s", sockPath)
	if *tcp {
		addr := fmt.Sprintf(":%d", 7000+*display)
		if _, err := r.Listen("tcp", addr); err != nil {
			cmdutil.Die("arouter: %v", err)
		}
		fmt.Fprintf(os.Stderr, " and tcp%s", addr)
	}
	fmt.Fprintf(os.Stderr, ", fronting %d backends\n", len(opts.Backends))

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	<-sigCh
	os.Remove(sockPath) //nolint:errcheck
}

// splitList splits a comma-separated flag, trimming blanks.
func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}
