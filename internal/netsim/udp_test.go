package netsim

import (
	"encoding/binary"
	"net"
	"os"
	"strings"
	"testing"
	"time"
)

// scriptConn is an in-memory net.PacketConn fed by the test: a queue of
// datagrams for ReadFrom and a capture of everything written. It makes
// the fault-schedule tests fully deterministic — no sockets, no timing.
type scriptConn struct {
	in     chan []byte
	outs   [][]byte
	closed bool // WriteTo fails, as on a closed socket
}

type scriptAddr struct{}

func (scriptAddr) Network() string { return "script" }
func (scriptAddr) String() string  { return "script" }

func newScriptConn(n int) *scriptConn { return &scriptConn{in: make(chan []byte, n)} }

func (s *scriptConn) ReadFrom(b []byte) (int, net.Addr, error) {
	p, ok := <-s.in
	if !ok {
		return 0, scriptAddr{}, net.ErrClosed
	}
	return copy(b, p), scriptAddr{}, nil
}

func (s *scriptConn) WriteTo(b []byte, _ net.Addr) (int, error) {
	if s.closed {
		return 0, net.ErrClosed
	}
	s.outs = append(s.outs, append([]byte(nil), b...))
	return len(b), nil
}

func (s *scriptConn) Close() error                     { return nil }
func (s *scriptConn) LocalAddr() net.Addr              { return scriptAddr{} }
func (s *scriptConn) SetDeadline(time.Time) error      { return nil }
func (s *scriptConn) SetReadDeadline(time.Time) error  { return nil }
func (s *scriptConn) SetWriteDeadline(time.Time) error { return nil }

func pkt(i int) []byte {
	b := make([]byte, 4)
	binary.BigEndian.PutUint32(b, uint32(i))
	return b
}

// egressTrace pushes n numbered datagrams through the egress schedule
// and returns the delivered sequence numbers in order.
func egressTrace(cfg PacketFaultConfig, n int) []uint32 {
	inner := newScriptConn(0)
	fc := NewFaultPacketConn(inner, cfg)
	for i := 0; i < n; i++ {
		fc.WriteTo(pkt(i), scriptAddr{}) //nolint:errcheck
	}
	out := make([]uint32, 0, len(inner.outs))
	for _, p := range inner.outs {
		out = append(out, binary.BigEndian.Uint32(p))
	}
	return out
}

// TestSameSeedSameTrace: the whole point of seeding — two runs of an
// identical fault schedule over identical traffic produce identical
// delivered traces, and a different seed produces a different one.
func TestSameSeedSameTrace(t *testing.T) {
	cfg := PacketFaultConfig{
		Seed: 42,
		Egress: PacketFaultRates{
			Loss: 0.2, Dup: 0.2, Reorder: 0.2, ReorderSpan: 3,
			BlackoutEvery: 50, BlackoutLen: 10,
		},
	}
	a := egressTrace(cfg, 500)
	b := egressTrace(cfg, 500)
	if len(a) != len(b) {
		t.Fatalf("same seed, different trace lengths: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at packet %d: %d vs %d", i, a[i], b[i])
		}
	}
	cfg.Seed = 43
	c := egressTrace(cfg, 500)
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("different seeds produced identical 500-packet traces")
	}
}

// TestLossDistribution: configured loss rate holds over 10k packets
// within a tolerance far wider than binomial noise (sd ≈ 46 packets).
func TestLossDistribution(t *testing.T) {
	const n, loss = 10000, 0.3
	got := len(egressTrace(PacketFaultConfig{Seed: 7, Egress: PacketFaultRates{Loss: loss}}, n))
	want := int(n * (1 - loss))
	if got < want-300 || got > want+300 {
		t.Errorf("delivered %d of %d at loss %.2f, want %d ± 300", got, n, loss, want)
	}
}

// TestBlackoutExact: blackouts are count-based, so the delivered count
// is exact, not statistical.
func TestBlackoutExact(t *testing.T) {
	const n = 10000
	trace := egressTrace(PacketFaultConfig{
		Seed:   1,
		Egress: PacketFaultRates{BlackoutEvery: 100, BlackoutLen: 20},
	}, n)
	if len(trace) != 8000 {
		t.Errorf("delivered %d, want exactly 8000 (20%% blackout duty cycle)", len(trace))
	}
	// The first packet of every cycle survives, the last is always dropped.
	seen := make(map[uint32]bool, len(trace))
	for _, s := range trace {
		seen[s] = true
	}
	if !seen[0] || !seen[79] || seen[80] || seen[99] {
		t.Error("blackout did not land on the last 20 packets of each 100-packet cycle")
	}
}

// TestDuplicationAndReorder: duplication creates extra copies (counted),
// reordering preserves the packet multiset while changing order, and the
// per-direction conservation law holds after Close.
func TestDuplicationAndReorder(t *testing.T) {
	const n = 2000
	inner := newScriptConn(0)
	fc := NewFaultPacketConn(inner, PacketFaultConfig{
		Seed:   99,
		Egress: PacketFaultRates{Dup: 0.25, Reorder: 0.25, ReorderSpan: 2},
	})
	for i := 0; i < n; i++ {
		fc.WriteTo(pkt(i), scriptAddr{}) //nolint:errcheck
	}
	fc.Close()
	st := fc.Stats().Egress
	if st.Duplicated < n/8 || st.Duplicated > n/2 {
		t.Errorf("duplicated %d of %d at rate 0.25", st.Duplicated, n)
	}
	if st.Reordered < n/8 || st.Reordered > n/2 {
		t.Errorf("reordered %d of %d at rate 0.25", st.Reordered, n)
	}
	counts := make(map[uint32]int)
	inversions := 0
	last := -1
	for _, p := range inner.outs {
		s := int(binary.BigEndian.Uint32(p))
		counts[uint32(s)]++
		if s < last {
			inversions++
		}
		if s > last {
			last = s
		}
	}
	if inversions == 0 {
		t.Error("reorder rate 0.25 produced a perfectly ordered trace")
	}
	// No loss configured: every packet is delivered at least once except
	// those still held at Close; copies = dups only.
	if uint64(len(inner.outs))+st.DroppedAtClose != uint64(n)+st.Duplicated {
		t.Errorf("delivered %d + dropped-at-close %d != sent %d + duplicated %d",
			len(inner.outs), st.DroppedAtClose, n, st.Duplicated)
	}
	for s, c := range counts {
		if c > 2 {
			t.Errorf("packet %d delivered %d times (max 2 with single dup)", s, c)
		}
	}
	if err := fc.Stats().Check(true); err != nil {
		t.Errorf("after close: %v", err)
	}
}

// TestWriteBesideClose: a WriteTo racing Close admits its datagram after
// the held ones were discarded, and the closed conn refuses the write. The
// law must still settle: the refused copies are dropped at close.
func TestWriteBesideClose(t *testing.T) {
	inner := newScriptConn(0)
	fc := NewFaultPacketConn(inner, PacketFaultConfig{Seed: 3, Egress: PacketFaultRates{Dup: 0.5}})
	fc.Close()
	inner.closed = true
	for i := 0; i < 20; i++ {
		fc.WriteTo(pkt(i), scriptAddr{}) //nolint:errcheck
	}
	if err := fc.Stats().Check(true); err != nil {
		t.Errorf("after close: %v", err)
	}
}

// TestIngressFaults drives the read side over a real UDP socket pair:
// loss applies, deadlines pass through, and the surviving datagrams
// arrive intact.
func TestIngressFaults(t *testing.T) {
	inner, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fc := NewFaultPacketConn(inner, PacketFaultConfig{
		Seed:    5,
		Ingress: PacketFaultRates{Loss: 0.5},
	})
	defer fc.Close()
	sender, err := net.Dial("udp", inner.LocalAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer sender.Close()

	const n = 200
	for i := 0; i < n; i++ {
		if _, err := sender.Write(pkt(i)); err != nil {
			t.Fatal(err)
		}
	}
	got := 0
	buf := make([]byte, 64)
	for {
		fc.SetReadDeadline(time.Now().Add(200 * time.Millisecond)) //nolint:errcheck
		ln, _, err := fc.ReadFrom(buf)
		if err != nil {
			if os.IsTimeout(err) {
				break
			}
			t.Fatal(err)
		}
		if ln != 4 {
			t.Fatalf("datagram truncated to %d bytes", ln)
		}
		got++
	}
	if got == 0 || got == n {
		t.Errorf("delivered %d of %d at loss 0.5 — fault layer inert or absolute", got, n)
	}
	st := fc.Stats().Ingress
	if st.Delivered != uint64(got) {
		t.Errorf("Delivered = %d, read %d", st.Delivered, got)
	}
}

// TestLaw plants a violation of each direction's packet law: a copy in
// flight (taken by a WriteTo, not yet written) passes live and fails
// settled, a copy that left through two doors fails both, and the error
// names the direction's law.
func TestLaw(t *testing.T) {
	ok := PacketDirStats{Seen: 10, Duplicated: 2, Delivered: 7, Dropped: 2, BlackedOut: 1, DroppedAtClose: 1, Held: 1}
	for _, tc := range []struct {
		name          string
		plant         func(*PacketFaultStats)
		law           string
		live, settled bool // whether Check(false), Check(true) pass
	}{
		{"balanced", func(*PacketFaultStats) {}, "", true, true},
		{"ingress in flight", func(s *PacketFaultStats) { s.Ingress.Seen++ }, "ingress: seen", true, false},
		{"ingress two doors", func(s *PacketFaultStats) { s.Ingress.Dropped++ }, "ingress: seen", false, false},
		{"egress in flight", func(s *PacketFaultStats) { s.Egress.Duplicated++ }, "egress: seen", true, false},
		{"egress two doors", func(s *PacketFaultStats) { s.Egress.Held++ }, "egress: seen", false, false},
	} {
		s := PacketFaultStats{Ingress: ok, Egress: ok}
		tc.plant(&s)
		for _, settled := range []bool{false, true} {
			want := tc.live
			if settled {
				want = tc.settled
			}
			err := s.Check(settled)
			if (err == nil) != want || (err != nil && !strings.Contains(err.Error(), tc.law)) {
				t.Errorf("%s: Check(%v) = %v, want pass %v naming %q", tc.name, settled, err, want, tc.law)
			}
		}
	}
}
