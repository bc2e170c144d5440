package proto

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"syscall"
	"testing"
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
	in, n, err := (*Buffer)(nil).ReadRaw(uintptr(b))
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
	if in, n, err = in.ReadRaw(uintptr(b)); err != nil || n != 4 || string(in.Bytes()) != "ILmore" {
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
	in, n, err := (*Buffer)(nil).ReadRaw(uintptr(b))
	if in != nil || n != 0 || err != nil {
		t.Fatalf("ReadRaw on an empty socket = %v, %d, %v; want no buffer, 0, nil", in != nil, n, err)
	}
	send(t, a, []byte("ab"))
	held, _, _ := in.ReadRaw(uintptr(b))
	in, n, err = held.ReadRaw(uintptr(b))
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
	if in, n, err := (*Buffer)(nil).ReadRaw(uintptr(b)); in != nil || n != 0 || err != io.EOF {
		t.Fatalf("ReadRaw after shutdown = %v, %d, %v; want io.EOF", in != nil, n, err)
	}

	fds, err := syscall.Socketpair(syscall.AF_UNIX, syscall.SOCK_STREAM|syscall.SOCK_NONBLOCK|syscall.SOCK_CLOEXEC, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer syscall.Close(fds[0])
	send(t, fds[0], []byte("unread"))
	syscall.Close(fds[1])
	in, n, err := (*Buffer)(nil).ReadRaw(uintptr(fds[0]))
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
