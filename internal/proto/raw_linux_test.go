package proto

import (
	"bytes"
	"errors"
	"io"
	"net"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
	"unsafe"
)

// The wire layer's raw read and write over a real unix socketpair: both
// descriptors are non-blocking, as a net.Conn's are, so a read that finds
// nothing meets EAGAIN.

func socketpair(t *testing.T) (a, b int) {
	t.Helper()
	fds, err := syscall.Socketpair(syscall.AF_UNIX, syscall.SOCK_STREAM|syscall.SOCK_NONBLOCK|syscall.SOCK_CLOEXEC, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		syscall.Close(fds[0])
		syscall.Close(fds[1])
	})
	return fds[0], fds[1]
}

func send(t *testing.T, fd int, p []byte) {
	t.Helper()
	if n, err := syscall.Write(fd, p); err != nil || n != len(p) {
		t.Fatalf("write: %d, %v", n, err)
	}
}

// recv reads exactly n bytes the peer has already written.
func recv(t *testing.T, fd, n int) []byte {
	t.Helper()
	p := make([]byte, n)
	if got, err := syscall.Read(fd, p); err != nil || got != n {
		t.Fatalf("read: %d of %d, %v", got, n, err)
	}
	return p
}

// TestBufferTailSurvivesCompactAndGrow reads a message and a partial one,
// consumes the first, and compacts: the partial tail moves to the front,
// then into a bigger buffer for a message longer than the first, and the
// next read lands behind it.
func TestBufferTailSurvivesCompactAndGrow(t *testing.T) {
	a, b := socketpair(t)
	send(t, a, []byte("headTAIL"))
	in, n, err := (*Buffer)(nil).ReadRaw(uintptr(b), nil)
	if err != nil || n != 8 || in == nil || in.Len() != IngressBytes {
		t.Fatalf("ReadRaw = %d, %v, buffer of %d", n, err, in.Len())
	}
	if in = in.Consume(4); in == nil || string(in.Bytes()) != "TAIL" {
		t.Fatalf("after Consume: %q", in.Bytes())
	}
	if in = in.Compact(8); in.R != 0 || string(in.Bytes()) != "TAIL" || in.Len() != IngressBytes {
		t.Fatalf("Compact in place: R %d, %q, size %d", in.R, in.Bytes(), in.Len())
	}
	in.R = 2 // consume "TA" by hand, leaving "IL"
	if in = in.Compact(2 * IngressBytes); in.Len() != 2*IngressBytes || string(in.Bytes()) != "IL" {
		t.Fatalf("Compact grown: size %d, %q", in.Len(), in.Bytes())
	}
	send(t, a, []byte("more"))
	if in, n, err = in.ReadRaw(uintptr(b), nil); err != nil || n != 4 || string(in.Bytes()) != "ILmore" {
		t.Fatalf("ReadRaw behind the tail = %d, %v, %q", n, err, in.Bytes())
	}
	if in = in.Consume(6); in != nil {
		t.Fatal("consuming the last bytes kept the buffer")
	}
	if in = in.Compact(4); in != nil {
		t.Fatal("compacting no buffer borrowed one")
	}
}

// TestReadRawEAGAIN: a read that finds nothing gives back the buffer it
// borrowed, and keeps one the caller already held.
func TestReadRawEAGAIN(t *testing.T) {
	a, b := socketpair(t)
	in, n, err := (*Buffer)(nil).ReadRaw(uintptr(b), nil)
	if in != nil || n != 0 || err != nil {
		t.Fatalf("ReadRaw on an empty socket = %v, %d, %v; want no buffer, 0, nil", in != nil, n, err)
	}
	send(t, a, []byte("ab"))
	held, _, _ := in.ReadRaw(uintptr(b), nil)
	in, n, err = held.ReadRaw(uintptr(b), nil)
	if in != held || n != 0 || err != nil || string(in.Bytes()) != "ab" {
		t.Fatalf("ReadRaw with a held buffer = %v, %d, %v, %q", in == held, n, err, in.Bytes())
	}
}

// TestReadRawEOFAndError: a peer's orderly shutdown reads as io.EOF; a
// close with our bytes unread on its side resets the stream, which reads
// as that error, not as EOF. Neither keeps a borrowed buffer.
func TestReadRawEOFAndError(t *testing.T) {
	a, b := socketpair(t)
	if err := syscall.Shutdown(a, syscall.SHUT_WR); err != nil {
		t.Fatal(err)
	}
	if in, n, err := (*Buffer)(nil).ReadRaw(uintptr(b), nil); in != nil || n != 0 || err != io.EOF {
		t.Fatalf("ReadRaw after shutdown = %v, %d, %v; want io.EOF", in != nil, n, err)
	}

	fds, err := syscall.Socketpair(syscall.AF_UNIX, syscall.SOCK_STREAM|syscall.SOCK_NONBLOCK|syscall.SOCK_CLOEXEC, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer syscall.Close(fds[0])
	send(t, fds[0], []byte("unread"))
	syscall.Close(fds[1])
	in, n, err := (*Buffer)(nil).ReadRaw(uintptr(fds[0]), nil)
	if in != nil || n != 0 || err == io.EOF || !errors.Is(err, syscall.ECONNRESET) {
		t.Fatalf("ReadRaw after a reset = %v, %d, %v; want ECONNRESET", in != nil, n, err)
	}
}

// TestConsumeVec drops a count of bytes from a vector: none, part of a
// slice, exactly a slice, and all of it.
func TestConsumeVec(t *testing.T) {
	whole := []byte("abcdeFGHIJKLxyz")
	cases := []struct {
		n    int
		want []string
	}{
		{0, []string{"abcde", "FGHIJKL", "xyz"}},
		{7, []string{"HIJKL", "xyz"}},
		{12, []string{"xyz"}},
		{15, nil},
	}
	for _, tc := range cases {
		vec := [][]byte{whole[:5], whole[5:12], whole[12:]}
		var got []string
		for _, s := range ConsumeVec(vec, tc.n) {
			got = append(got, string(s))
		}
		if strings.Join(got, "|") != strings.Join(tc.want, "|") {
			t.Errorf("ConsumeVec(%d) = %q, want %q", tc.n, got, tc.want)
		}
	}
}

// TestIovecsWrite sends vectors through Write and settles them with
// ConsumeVec: a whole vector of three slices, a one-slice vector, nothing
// into a full socket, and part of a vector bigger than the room left.
func TestIovecsWrite(t *testing.T) {
	a, b := socketpair(t)
	var iov Iovecs
	vec := [][]byte{[]byte("abcde"), []byte("FGHIJKL"), []byte("xyz")}
	if n := iov.Write(uintptr(a), vec); n != 15 || len(ConsumeVec(vec, n)) != 0 {
		t.Fatalf("Write of three slices = %d, want 15", n)
	}
	if got := recv(t, b, 15); string(got) != "abcdeFGHIJKLxyz" {
		t.Fatalf("peer read %q", got)
	}
	one := [][]byte{[]byte("single")}
	if n := iov.Write(uintptr(a), one); n != 6 || len(ConsumeVec(one, n)) != 0 {
		t.Fatalf("Write of one slice = %d, want 6", n)
	}
	if got := recv(t, b, 6); string(got) != "single" {
		t.Fatalf("peer read %q", got)
	}

	// A vector bigger than the socket's send buffer goes in part, and what
	// ConsumeVec leaves is exactly what the peer has not been sent.
	big := make([]byte, 1<<20)
	for i := range big {
		big[i] = byte(i * 7)
	}
	vec = [][]byte{big[:1000], big[1000:]}
	n := iov.Write(uintptr(a), vec)
	if n <= 0 || n >= len(big) {
		t.Fatalf("Write of 1 MiB = %d, want part of it", n)
	}
	rest := ConsumeVec(vec, n)
	if !bytes.Equal(bytes.Join(rest, nil), big[n:]) {
		t.Fatalf("ConsumeVec after %d bytes does not leave the unsent tail", n)
	}
	// The socket is full now: a write takes nothing and consumes nothing.
	if m := iov.Write(uintptr(a), rest); m != 0 || !bytes.Equal(bytes.Join(ConsumeVec(rest, m), nil), big[n:]) {
		t.Fatalf("Write into a full socket = %d", m)
	}
	if got := recv(t, b, min(n, 4096)); !bytes.Equal(got, big[:len(got)]) {
		t.Fatal("the peer read other bytes than the vector's head")
	}
}

// connPair returns both ends of a fresh loopback connection on network
// ("tcp" or "unix"), closed at cleanup.
func connPair(t *testing.T, network string) (a, b net.Conn) {
	t.Helper()
	addr := "127.0.0.1:0"
	if strings.HasPrefix(network, "unix") {
		addr = filepath.Join(t.TempDir(), "s")
	}
	ln, err := net.Listen(network, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	if a, err = net.Dial(network, ln.Addr().String()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close() })
	if b, err = ln.Accept(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	return a, b
}

// sysfd returns nc's RawConn and descriptor; nc stays open for the test.
func sysfd(t *testing.T, nc net.Conn) (syscall.RawConn, int) {
	t.Helper()
	rc, err := nc.(syscall.Conn).SyscallConn()
	if err != nil {
		t.Fatal(err)
	}
	var fd int
	rc.Control(func(f uintptr) { fd = int(f) }) //nolint:errcheck
	return rc, fd
}

// awaitTCPState waits up to 2 s for fd to reach a TCP state (tcp_info's
// first byte: 7 closed, 8 close-wait), so a FIN or a reset has landed
// before the read that is to see it.
func awaitTCPState(t *testing.T, fd int, state byte) {
	t.Helper()
	for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(100 * time.Microsecond) {
		v, err := syscall.GetsockoptInt(fd, syscall.IPPROTO_TCP, syscall.TCP_INFO)
		if err != nil {
			t.Fatal(err)
		}
		if info := int32(v); (*[4]byte)(unsafe.Pointer(&info))[0] == state {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("socket never reached TCP state %d", state)
		}
	}
}

// readSome retries ReadRaw until bytes arrive (2 s at most).
func readSome(t *testing.T, b *Buffer, fd int, inq *Inq) (*Buffer, int) {
	t.Helper()
	for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(100 * time.Microsecond) {
		in, n, err := b.ReadRaw(uintptr(fd), inq)
		if err != nil {
			t.Fatalf("ReadRaw: %v", err)
		}
		if n > 0 {
			return in, n
		}
		if time.Now().After(deadline) {
			t.Fatal("no bytes arrived")
		}
	}
}

// TestReadRawInq reads a TCP socket with TCP_INQ on: a read that takes
// everything queued reads as empty; a FIN queued behind the bytes, or
// bytes that did not fit, read as not empty. A reset behind the bytes
// reads as empty, and only the next read fails: what an empty read cannot
// show. A read with the header allocates nothing.
func TestReadRawInq(t *testing.T) {
	payload := []byte("request bytes")
	open := func(t *testing.T) (net.Conn, int, int, *Inq) {
		a, b := connPair(t, "tcp")
		_, afd := sysfd(t, a)
		_, bfd := sysfd(t, b)
		inq := NewInq(b)
		if inq == nil {
			t.Fatal("TCP refused TCP_INQ")
		}
		return a, afd, bfd, inq
	}

	t.Run("data", func(t *testing.T) {
		_, a, b, inq := open(t)
		send(t, a, payload)
		in, n := readSome(t, nil, b, inq)
		if n != len(payload) || !inq.Empty {
			t.Fatalf("read %d of %d, empty %v; want all of it, empty", n, len(payload), inq.Empty)
		}
		in.Put()
		if testing.AllocsPerRun(100, func() {
			send(t, a, payload)
			in, _ := readSome(t, nil, b, inq)
			in.Put()
		}) != 0 {
			t.Error("a read with the TCP_INQ header allocates")
		}
	})
	t.Run("FIN", func(t *testing.T) {
		_, a, b, inq := open(t)
		send(t, a, payload)
		if err := syscall.Shutdown(a, syscall.SHUT_WR); err != nil {
			t.Fatal(err)
		}
		awaitTCPState(t, b, 8)
		in, n := readSome(t, nil, b, inq)
		if n != len(payload) || inq.Empty {
			t.Fatalf("read %d, empty %v; want %d, not empty (FIN queued)", n, inq.Empty, len(payload))
		}
		if _, _, err := in.ReadRaw(uintptr(b), inq); err != io.EOF {
			t.Fatalf("read after the FIN = %v, want io.EOF", err)
		}
	})
	t.Run("short buffer", func(t *testing.T) {
		_, a, b, inq := open(t)
		send(t, a, payload)
		_, n := readSome(t, &Buffer{B: make([]byte, 4)}, b, inq)
		if n != 4 || inq.Empty {
			t.Fatalf("read %d, empty %v; want 4, not empty", n, inq.Empty)
		}
		if _, n = readSome(t, &Buffer{B: make([]byte, 64)}, b, inq); n != len(payload)-4 || !inq.Empty {
			t.Fatalf("read of the rest %d, empty %v; want %d, empty", n, inq.Empty, len(payload)-4)
		}
	})
	t.Run("RST", func(t *testing.T) {
		nc, a, b, inq := open(t)
		send(t, a, payload)
		nc.(*net.TCPConn).SetLinger(0) //nolint:errcheck
		nc.Close()
		awaitTCPState(t, b, 7)
		in, n := readSome(t, nil, b, inq)
		if n != len(payload) || !inq.Empty {
			t.Fatalf("read %d, empty %v; want %d, empty (TCP_INQ does not count a reset)", n, inq.Empty, len(payload))
		}
		if _, _, err := in.ReadRaw(uintptr(b), inq); err == nil || err == io.EOF {
			t.Fatalf("read after the reset = %v, want an error", err)
		}
	})
	// A Unix stream socket's read stops short of its buffer only with its
	// queue empty, but cannot show a FIN behind the bytes: that is why the
	// serving callback skips its next read only after a whole write. A
	// unixpacket socket gets no header.
	t.Run("unix", func(t *testing.T) {
		a, b := connPair(t, "unix")
		_, afd := sysfd(t, a)
		_, bfd := sysfd(t, b)
		inq := NewInq(b)
		if inq == nil {
			t.Fatal("no header for a Unix stream socket")
		}
		send(t, afd, payload)
		_, n := readSome(t, &Buffer{B: make([]byte, 4)}, bfd, inq)
		if n != 4 || inq.Empty {
			t.Fatalf("read %d, empty %v; want 4, not empty (the buffer filled)", n, inq.Empty)
		}
		in, n := readSome(t, nil, bfd, inq)
		if n != len(payload)-4 || !inq.Empty {
			t.Fatalf("read of the rest %d, empty %v; want %d, empty", n, inq.Empty, len(payload)-4)
		}
		in.Put()
		send(t, afd, payload)
		if err := syscall.Shutdown(afd, syscall.SHUT_WR); err != nil {
			t.Fatal(err)
		}
		in, n = readSome(t, nil, bfd, inq)
		if n != len(payload) || !inq.Empty {
			t.Fatalf("read %d, empty %v; want %d, empty (a short read cannot show the FIN)", n, inq.Empty, len(payload))
		}
		if _, _, err := in.ReadRaw(uintptr(bfd), inq); err != io.EOF {
			t.Fatalf("read after the FIN = %v, want io.EOF", err)
		}
		_, p := connPair(t, "unixpacket")
		if NewInq(p) != nil {
			t.Fatal("NewInq gave a unixpacket socket a header; a short read there ends a record, not the queue")
		}
	})
}
