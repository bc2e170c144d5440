//go:build linux && !race

package aserver

import (
	"bytes"
	"os"
	"testing"
)

// TestCloseReturnsMappings: building and closing DefaultDevices servers
// leaves the process's memory map as it was: Close unmaps the hi-fi
// device's buffers. A warm-up round first lets the runtime's heap and
// stacks reach their size.
func TestCloseReturnsMappings(t *testing.T) {
	maps := func() int {
		b, err := os.ReadFile("/proc/self/maps")
		if err != nil {
			t.Fatal(err)
		}
		return bytes.Count(b, []byte("\n"))
	}
	cycle := func(n int) {
		for range n {
			srv, err := New(Options{})
			if err != nil {
				t.Fatal(err)
			}
			srv.Close()
		}
	}
	cycle(20)
	before := maps()
	cycle(200)
	if after := maps(); after > before {
		t.Errorf("/proc/self/maps has %d lines after 200 servers came and went, %d before", after, before)
	}
}
