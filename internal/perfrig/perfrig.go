// Package perfrig builds the measurement fixtures shared by the root
// benchmarks and the afperf harness: an in-process AudioFile server with
// a manual-clock CODEC device (so nothing ever waits on wall time), and a
// client connection over a choice of transports standing in for the
// paper's six host configurations — local Unix socket, TCP loopback, and
// TCP with an injected round-trip delay: a stall before every write.
package perfrig

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"time"

	"audiofile/af"
	"audiofile/aserver"
	"audiofile/internal/netsim"
	"audiofile/internal/vdev"
)

// Config selects the transport between client and server.
type Config struct {
	Name      string        // label in reports
	Transport string        // "pipe", "unix", or "tcp"
	RTT       time.Duration // injected round-trip delay (tcp only)
	// HiFi adds a 44.1 kHz stereo device (index 1) for high-rate tests.
	HiFi bool
}

// StandardConfigs are the analogues of the paper's configurations:
// in-process and Unix-socket stand in for "local client & server"; TCP
// loopback for "networked on one Ethernet"; the delayed variants for
// slower or wider networks.
func StandardConfigs() []Config {
	return []Config{
		{Name: "local (unix)", Transport: "unix"},
		{Name: "local (pipe)", Transport: "pipe"},
		{Name: "net (tcp)", Transport: "tcp"},
		{Name: "net (tcp+1ms)", Transport: "tcp", RTT: time.Millisecond},
		{Name: "net (tcp+4ms)", Transport: "tcp", RTT: 4 * time.Millisecond},
	}
}

// Rig is one server+client measurement fixture.
type Rig struct {
	Srv  *aserver.Server
	Conn *af.Conn
	Clk  *vdev.ManualClock
	AC   *af.AC

	dir string
}

// New builds a rig for a config. The CODEC device's clock is manual: the
// harness advances it explicitly, so requests are pure request/response
// and measurements are not polluted by waiting on audio time.
func New(cfg Config) (*Rig, error) {
	clk := vdev.NewManualClock(8000)
	devs := []aserver.DeviceSpec{
		{Kind: "codec", Name: "codec0", Clock: clk, Loopback: true},
	}
	if cfg.HiFi {
		devs = append(devs, aserver.DeviceSpec{Kind: "hifi", Name: "hifi0",
			Clock: vdev.NewManualClock(44100)})
	}
	srv, err := aserver.New(aserver.Options{
		Devices: devs,
		Logf:    func(string, ...any) {},
	})
	if err != nil {
		return nil, err
	}
	r := &Rig{Srv: srv, Clk: clk}

	var nc net.Conn
	switch cfg.Transport {
	case "pipe":
		nc = srv.DialPipe()
	case "unix":
		dir, err := os.MkdirTemp("", "afperf")
		if err != nil {
			srv.Close()
			return nil, err
		}
		r.dir = dir
		path := filepath.Join(dir, "af.sock")
		if _, err := srv.Listen("unix", path); err != nil {
			srv.Close()
			return nil, err
		}
		nc, err = net.Dial("unix", path)
		if err != nil {
			srv.Close()
			return nil, err
		}
	case "tcp":
		l, err := srv.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			srv.Close()
			return nil, err
		}
		nc, err = net.Dial("tcp", l.Addr().String())
		if err != nil {
			srv.Close()
			return nil, err
		}
		if cfg.RTT > 0 {
			// Each round trip in these lockstep measurements starts with
			// one client write, so a stall before every write charges
			// each round trip one RTT.
			nc = netsim.NewFaultConn(nc, netsim.FaultConfig{StallEveryBytes: 1, Stall: cfg.RTT})
		}
	default:
		srv.Close()
		return nil, fmt.Errorf("perfrig: unknown transport %q", cfg.Transport)
	}
	conn, err := af.NewConn(nc)
	if err != nil {
		srv.Close()
		return nil, err
	}
	r.Conn = conn
	ac, err := conn.CreateAC(0, 0, af.ACAttributes{})
	if err != nil {
		conn.Close()
		srv.Close()
		return nil, err
	}
	r.AC = ac
	return r, nil
}

// Close tears the rig down.
func (r *Rig) Close() {
	r.Conn.Close()
	r.Srv.Close()
	if r.dir != "" {
		os.RemoveAll(r.dir) //nolint:errcheck
	}
}

// PrimeRecord marks the context recording and advances device time far
// enough that the whole record buffer holds valid (captured) data, so
// record requests for the recent past hit in the buffer and never block.
func (r *Rig) PrimeRecord() error {
	now, err := r.AC.GetTime()
	if err != nil {
		return err
	}
	if _, _, err := r.AC.RecordSamples(now.Add(-4), make([]byte, 4), false); err != nil {
		return err
	}
	// Walk time forward one hardware window at a time, updating after
	// each step, until the 4-second buffer has been filled twice over.
	for i := 0; i < 150; i++ {
		r.Clk.Advance(512)
		r.Srv.Sync()
	}
	return nil
}

// Advance moves device time and runs a server update (for open-loop
// tests).
func (r *Rig) Advance(frames int) {
	r.Clk.Advance(frames)
	r.Srv.Sync()
}
