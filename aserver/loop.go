package aserver

import (
	"bytes"
	"net"
	"slices"
	"time"

	"audiofile/internal/atime"
	"audiofile/internal/core"
	"audiofile/internal/proto"
)

// The control plane: the analogue of the paper's WaitForSomething()/
// Dispatch() cycle, slimmed to the operations that touch genuinely global
// state (client registry, atoms, properties, host access, AC lifecycle,
// pass-through enables). It is a lock, Server.ctl, not a goroutine: a
// connection's reader holds it while dispatchControl runs, and this file's
// registry calls take it themselves. The data plane — plays, records, time
// queries — never takes it, and neither does the timed work (the overload
// sweep; a flash's re-hook, which is the line's), which runs on runtime
// timers.

// register admits a client to the registry, or refuses once the server
// has closed.
func (s *Server) register(c *client) bool {
	s.ctl.Lock()
	defer s.ctl.Unlock()
	if s.closed {
		return false
	}
	// MaxClients is a soft cap: the newcomer is admitted and the
	// oldest-idle client is shed (its teardown completes on its own
	// goroutines, so the registry can transiently exceed max).
	if max := s.budget.maxClients; max > 0 {
		for n := len(s.clients); n >= max && s.shedOldestIdle(c); n-- {
		}
	}
	s.clientMu.Lock()
	s.clients[c] = struct{}{}
	s.clientMu.Unlock()
	s.sm.connects.Inc()
	return true
}

// removeClient releases a client's server-side resources, once: when its
// reader exits or at shutdown, whichever comes first. Caller holds s.ctl.
func (s *Server) removeClient(c *client) {
	if _, ok := s.clients[c]; !ok {
		return
	}
	c.dead.Store(true)
	// An evict under way records its event first, and none starts after;
	// the disconnect is classified before it is counted. Both give laws
	// their live forms (Snapshot.Check).
	c.evictOnce.Do(func() {})
	s.sm.closeCounterFor(c.closeReason.Load()).Inc()
	s.sm.disconnects.Inc()
	s.clientMu.Lock()
	delete(s.clients, c)
	s.clientMu.Unlock()
	// Discard any blocked request the client still holds; this releases
	// its pinned buffers and its reader if it is waiting on the park.
	// Broadcast subscriptions go with it, so the channel pump stops
	// encoding for formats only this client wanted.
	for _, e := range s.engines {
		e.dropClientParks(c)
		e.dropClientSubs(c)
	}
	for _, a := range c.acs {
		s.releaseAC(a)
	}
	// Unblock the reader, and start the writer that drains and closes the
	// conn (a running one sees dead and does it).
	close(c.closed)
	c.startWriter()
}

// releaseAC undoes an audio context's device-side bookkeeping: the
// record refcount and any broadcast subscription.
func (s *Server) releaseAC(a *ac) {
	// Both flags are guarded by the engine lock: recording races only
	// with this context's own (ordered) requests, but subscribed is also
	// cleared by the pump's dead-subscriber sweep on scheduler workers.
	e := s.engineByDev[a.dev.Index]
	e.mu.Lock()
	if a.recording {
		e.root.RecRefCount--
		a.recording = false
	}
	e.unsubscribeLocked(a)
	e.mu.Unlock()
}

// deliverEvent sends an event to every client that selected its class on
// the device. Per §5.2, events carry both the device time (supplied by
// the caller, read under the owning engine's lock) and the server host's
// clock time. Safe under ctl and under an engine lock.
func (s *Server) deliverEvent(devIndex int, now atime.ATime, code uint8, detail byte, value uint32) {
	mask := proto.EventMaskFor(code)
	host := time.Now()
	s.clientMu.RLock()
	defer s.clientMu.RUnlock()
	for c := range s.clients {
		if c.eventMasks[devIndex]&mask == 0 {
			continue
		}
		ev := proto.Event{
			Code:     code,
			Detail:   detail,
			Device:   uint32(devIndex),
			Time:     uint32(now),
			HostSec:  uint32(host.Unix()),
			HostNsec: uint32(host.Nanosecond()),
			Value:    value,
		}
		c.sendEvent(&ev)
	}
}

// deviceTime reads a device's buffer-write time under its engine's lock.
func (s *Server) deviceTime(dev uint32) atime.ATime {
	e := s.engineByDev[dev]
	e.mu.Lock()
	t := s.devices[dev].Time()
	e.mu.Unlock()
	return t
}

// deviceNow reads a device's current time under its engine's lock.
func (s *Server) deviceNow(dev uint32) atime.ATime {
	e := s.engineByDev[dev]
	e.mu.Lock()
	t := s.devices[dev].Now()
	e.mu.Unlock()
	return t
}

// updateEngine runs one update cycle on the engine owning dev, used by
// control operations that need an immediate device-side effect (hook
// events). A flash's re-hook already past the line's lock when Close
// cancelled it finds the engine stopped and does nothing.
func (s *Server) updateEngine(dev uint32) {
	e := s.engineByDev[dev]
	e.mu.Lock()
	if !e.stopped {
		e.updateLocked()
	}
	e.mu.Unlock()
}

// patch is an enabled pass-through connection between two devices
// (§7.4.1): audio recorded on one is played on the other, both ways,
// entirely inside the server. The staging buffer lives on the patch for
// its whole life, so pumping never allocates.
type patch struct {
	a, b   *core.Device
	aTaken atime.ATime // recorded frames of a consumed through here
	bTaken atime.ATime
	aOut   atime.ATime // next play time on a (for b's audio)
	bOut   atime.ATime // next play time on b (for a's audio)
	buf    []byte
}

// newPatch wires devices a and b together starting at their current
// times. Both engines' locks are held by the caller.
func newPatch(a, b *core.Device) *patch {
	lead := a.Backend().HWFrames() / 2
	return &patch{
		a: a, b: b,
		aTaken: a.Time(), bTaken: b.Time(),
		aOut: atime.Add(a.Now(), lead),
		bOut: atime.Add(b.Now(), lead),
		buf:  make([]byte, 4096*a.FrameBytes()),
	}
}

// hostAllowed applies host-based access control to a new connection.
func (s *Server) hostAllowed(conn net.Conn) bool {
	s.ctl.Lock()
	defer s.ctl.Unlock()
	if !s.accessEnabled {
		return true
	}
	entry := hostEntryFor(conn.RemoteAddr())
	if entry.Family == proto.FamilyLocal {
		return true // local connections are always allowed
	}
	return slices.ContainsFunc(s.accessList, sameHost(entry))
}

// sameHost matches the access-list entries that name host h.
func sameHost(h proto.HostEntry) func(proto.HostEntry) bool {
	return func(o proto.HostEntry) bool { return o.Family == h.Family && bytes.Equal(o.Addr, h.Addr) }
}

// hostEntryFor classifies a remote address for the access list.
func hostEntryFor(addr net.Addr) proto.HostEntry {
	switch a := addr.(type) {
	case *net.TCPAddr:
		if v4 := a.IP.To4(); v4 != nil {
			return proto.HostEntry{Family: proto.FamilyInternet, Addr: v4}
		}
		return proto.HostEntry{Family: proto.FamilyInternet6, Addr: a.IP}
	default:
		return proto.HostEntry{Family: proto.FamilyLocal, Addr: []byte("local")}
	}
}
