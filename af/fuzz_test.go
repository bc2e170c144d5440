package af_test

import (
	"encoding/binary"
	"math/rand"
	"net"
	"testing"
	"time"
)

// TestDispatcherStructuredFuzz sends thousands of well-framed requests
// with random opcodes (valid and invalid) and random bodies. The server
// must answer every one with a reply, an error, or nothing — never crash,
// never desynchronize — and a SyncConnection afterwards must still round
// trip.
func TestDispatcherStructuredFuzz(t *testing.T) {
	r := newStack(t)
	for seed := int64(0); seed < 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		nc, err := net.Dial("unix", r.addr)
		if err != nil {
			t.Fatal(err)
		}
		// Raw handshake.
		setup := []byte{'l', 0, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0}
		if _, err := nc.Write(setup); err != nil {
			t.Fatal(err)
		}
		hdr := make([]byte, 8)
		readFullDeadline(t, nc, hdr)
		extra := make([]byte, int(binary.LittleEndian.Uint16(hdr[6:]))*4)
		readFullDeadline(t, nc, extra)

		// Drain server messages in the background so the out queue never
		// fills; we don't interpret them.
		drained := make(chan struct{})
		go func() {
			defer close(drained)
			buf := make([]byte, 64<<10)
			for {
				nc.SetReadDeadline(time.Now().Add(2 * time.Second)) //nolint:errcheck
				if _, err := nc.Read(buf); err != nil {
					return
				}
			}
		}()

		for i := 0; i < 3000; i++ {
			op := uint8(rng.Intn(48)) // includes invalid opcodes
			ext := uint8(rng.Intn(256))
			bodyWords := rng.Intn(16)
			req := make([]byte, 4+4*bodyWords)
			req[0] = op
			req[1] = ext
			binary.LittleEndian.PutUint16(req[2:], uint16(len(req)/4))
			rng.Read(req[4:])
			// Small field values hit real devices/ACs more often.
			if len(req) >= 8 && rng.Intn(2) == 0 {
				binary.LittleEndian.PutUint32(req[4:], uint32(rng.Intn(6)))
			}
			if _, err := nc.Write(req); err != nil {
				t.Fatalf("seed %d req %d: %v", seed, i, err)
			}
		}
		nc.Close()
		<-drained
	}

	// The server is still sane.
	good := r.dial(t)
	if err := good.Sync(); err != nil {
		t.Fatalf("server unhealthy after fuzz: %v", err)
	}
	if _, err := good.GetTime(1); err != nil {
		t.Fatalf("GetTime after fuzz: %v", err)
	}
}
