package main

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"audiofile/af"
	"audiofile/aserver"
	"audiofile/internal/proto"
	"audiofile/internal/vdev"
)

// rig is one workload's fixture: an in-process server (two behind a
// router for the routed workload) whose device clock the benchmark owns,
// listeners on a unix socket and on TCP loopback, and the workload's
// client connections. Nothing ever waits on wall time: the clock moves
// only when the benchmark advances it.
type rig struct {
	w      *workload
	srvs   []*aserver.Server // one, or the router's two backends
	srv    *aserver.Server   // the one that serves the workload's sessions
	router *aserver.Router
	clk    *vdev.ManualClock

	unixPath, tcpAddr, routedAddr string

	conns []*clientConn
	t0    uint32 // device time when set-up finished; frozen unless the workload advances it
}

// clientConn is one client's connection state.
type clientConn struct {
	conn *af.Conn
	ac   *af.AC
	raw  *rawConn // smallop: the raw wire its bursts go down
}

// routeKey is the routing key the routed workload's sessions carry; the
// router's static directory decides which backend owns it.
const routeKey = "bench"

var sockSeq atomic.Int32

// primeFrames is how far set-up walks device time forward, one hardware
// window at a time, so the record buffer behind t0 holds captured data.
func (w *workload) primeFrames() (total, step int) {
	if w.hifi {
		return 3 * 65536, 2048
	}
	return 32768, 512
}

func (w *workload) deviceSpec(clk vdev.Clock) aserver.DeviceSpec {
	if w.hifi {
		return aserver.DeviceSpec{Kind: "hifi", Name: "hifi0", Rate: w.rate(), Clock: clk}
	}
	return aserver.DeviceSpec{Kind: "codec", Name: "codec0", Clock: clk,
		Loopback: w.loopDelay > 0, LoopbackDelay: w.loopDelay}
}

// buildRig builds the whole fixture: servers, devices, listeners, router,
// connections, audio contexts and record priming. Its duration is the
// setup_s metric. Sockets live under outDir so the run touches nothing
// outside its checkout.
func buildRig(w *workload, outDir string) (_ *rig, err error) {
	r := &rig{w: w}
	defer func() {
		if err != nil {
			r.close()
		}
	}()
	nsrv := 1
	if w.routed {
		nsrv = 2
	}
	var clks []*vdev.ManualClock
	var tcps []string
	for i := 0; i < nsrv; i++ {
		clk := vdev.NewManualClock(w.rate())
		srv, err := aserver.New(aserver.Options{
			Devices: []aserver.DeviceSpec{w.deviceSpec(clk)},
			Logf:    func(string, ...any) {},
		})
		if err != nil {
			return nil, err
		}
		r.srvs = append(r.srvs, srv)
		clks = append(clks, clk)
		l, err := srv.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		tcps = append(tcps, l.Addr().String())
	}
	owner := 0
	if w.routed {
		r.router, err = aserver.NewRouter(aserver.RouterOptions{
			Backends: tcps, Names: []string{"backend0", "backend1"},
		})
		if err != nil {
			return nil, err
		}
		l, err := r.router.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		r.routedAddr = l.Addr().String()
		owner = r.router.Directory().Lookup(routeKey)
	}
	r.srv, r.clk, r.tcpAddr = r.srvs[owner], clks[owner], tcps[owner]
	// A relative path keeps the socket name short however deep the
	// checkout sits (sun_path holds 108 bytes).
	r.unixPath = filepath.Join(outDir, fmt.Sprintf("af-%d-%d.sock", os.Getpid(), sockSeq.Add(1)))
	if _, err := r.srv.Listen("unix", r.unixPath); err != nil {
		return nil, err
	}

	for _, preempt := range w.preempt {
		cc := &clientConn{}
		r.conns = append(r.conns, cc)
		nc, err := r.dial()
		if err != nil {
			return nil, err
		}
		route := ""
		if w.routed {
			route = routeKey
		}
		if cc.conn, err = af.NewConnRoute(nc, false, route); err != nil {
			return nil, err
		}
		if cc.ac, err = cc.conn.CreateAC(0, af.ACPreemption, af.ACAttributes{Preempt: preempt}); err != nil {
			return nil, err
		}
		if w.maxOp(opBurst) > 0 {
			if cc.raw, err = dialRaw(w.transport, r.addr(w.transport), ""); err != nil {
				return nil, err
			}
			if err := cc.raw.createACs(w); err != nil {
				return nil, err
			}
		}
	}
	// Mark every context recording, then walk time forward so the record
	// buffer behind t0 is captured data and record requests for the
	// recent past never block.
	for _, cc := range r.conns {
		now, err := cc.ac.GetTime()
		if err != nil {
			return nil, err
		}
		var b [4]byte
		if _, _, err := cc.ac.RecordSamples(now.Add(-1), b[:w.frameBytes()], false); err != nil {
			return nil, err
		}
	}
	total, step := w.primeFrames()
	for t := 0; t < total; t += step {
		r.clk.Advance(step)
		r.srv.Sync()
	}
	now, err := r.conns[0].conn.GetTime(0)
	if err != nil {
		return nil, err
	}
	r.t0 = uint32(now)
	return r, nil
}

// addr returns the owner server's address on a transport.
func (r *rig) addr(transport string) string {
	if transport == "unix" {
		return r.unixPath
	}
	return r.tcpAddr
}

// dial opens the transport a workload connection uses.
func (r *rig) dial() (net.Conn, error) {
	if r.w.routed {
		return net.Dial("tcp", r.routedAddr)
	}
	return net.Dial(r.w.transport, r.addr(r.w.transport))
}

// close stops everything the rig started and waits for it.
func (r *rig) close() {
	for _, cc := range r.conns {
		if cc.conn != nil {
			cc.conn.Close()
		}
		if cc.raw != nil {
			cc.raw.close()
		}
	}
	if r.router != nil {
		r.router.Close()
	}
	for _, s := range r.srvs {
		s.Close()
	}
	if r.unixPath != "" {
		os.Remove(r.unixPath) //nolint:errcheck — the listener already unlinked it
	}
}

// rawConn is a client connection below af: request frames written as
// bytes, replies read with proto.ReadMessageInto. The ladder's wire rungs
// and the smallop bursts use it.
type rawConn struct {
	nc   net.Conn
	br   *bufio.Reader
	msg  proto.Message
	seq  uint16 // sequence number of the last request written
	last uint32 // time of the last reply read
}

// dialRaw connects and completes the AF handshake.
func dialRaw(network, addr, route string) (*rawConn, error) {
	nc, err := net.Dial(network, addr)
	if err != nil {
		return nil, err
	}
	return handshake(nc, route)
}

func handshake(nc net.Conn, route string) (*rawConn, error) {
	setup := proto.SetupRequest{
		ByteOrder: proto.LittleEndianOrder,
		Major:     proto.ProtocolMajor,
		Minor:     proto.ProtocolMinor,
	}
	if route != "" {
		setup.AuthName, setup.AuthData = proto.RouteAuthName, []byte(route)
	}
	nc.SetDeadline(time.Now().Add(10 * time.Second)) //nolint:errcheck — a failed arm surfaces as the I/O error below
	if err := setup.Send(nc); err != nil {
		nc.Close()
		return nil, err
	}
	rc := &rawConn{nc: nc, br: bufio.NewReaderSize(nc, 64<<10)}
	rep, err := proto.ReadSetupReply(rc.br, binary.LittleEndian)
	if err == nil && !rep.Success {
		err = fmt.Errorf("setup refused: %s", rep.Reason)
	}
	if err != nil {
		nc.Close()
		return nil, err
	}
	nc.SetDeadline(time.Time{}) //nolint:errcheck
	return rc, nil
}

// createACs creates one audio context per workload connection, with that
// connection's attributes, and round-trips a GetTime so a refusal
// surfaces here.
func (rc *rawConn) createACs(w *workload) error {
	pw := proto.Writer{Order: binary.LittleEndian}
	for conn, preempt := range w.preempt {
		attrs := proto.ACAttributes{}
		if preempt {
			attrs.Preempt = 1
		}
		err := proto.AppendCreateAC(&pw, proto.CreateACReq{AC: acFor(conn), Device: 0, Mask: proto.ACPreemption, Attrs: attrs})
		if err != nil {
			return err
		}
	}
	if err := proto.AppendDeviceReq(&pw, proto.OpGetTime, 0); err != nil {
		return err
	}
	_, err := rc.roundTrip(pw.Buf, len(w.preempt)+1, 1)
	return err
}

// roundTrip writes req (nreq requests) in one write and reads replies
// replies. It fails on an error message, on reply sequence numbers that
// do not rise to the last request's, and on a reply time that runs
// backwards. It returns the last reply.
func (rc *rawConn) roundTrip(req []byte, nreq, replies int) (*proto.Reply, error) {
	if _, err := rc.nc.Write(req); err != nil {
		return nil, err
	}
	prev := rc.seq
	rc.seq += uint16(nreq)
	for i := 0; i < replies; i++ {
		if err := proto.ReadMessageInto(rc.br, binary.LittleEndian, &rc.msg); err != nil {
			return nil, err
		}
		rep := rc.msg.Reply
		if rep == nil {
			if e := rc.msg.Error; e != nil {
				return nil, fmt.Errorf("request %s (seq %d) failed: %s", proto.RequestName[e.MajorOp], e.Seq, proto.ErrorName[e.Code])
			}
			return nil, fmt.Errorf("unexpected message, want a reply")
		}
		if int16(rep.Seq-prev) <= 0 || int16(rc.seq-rep.Seq) < 0 {
			return nil, fmt.Errorf("reply seq %d outside (%d, %d]", rep.Seq, prev, rc.seq)
		}
		prev = rep.Seq
		if int32(rep.Time-rc.last) < 0 {
			return nil, fmt.Errorf("reply time ran backwards: %d after %d", rep.Time, rc.last)
		}
		rc.last = rep.Time
	}
	if prev != rc.seq {
		return nil, fmt.Errorf("last reply seq %d, want %d", prev, rc.seq)
	}
	return rc.msg.Reply, nil
}

func (rc *rawConn) close() { rc.nc.Close() }
