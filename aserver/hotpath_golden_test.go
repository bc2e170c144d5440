package aserver

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The hot-path golden: reply byte streams recorded from the one-at-a-time
// dispatcher (the -batch=off path) in the last commit that had one, for a
// fixed set of request streams: every FuzzBatchFraming seed script, a run
// that parks twice in the middle, every kind of unservable hot request at
// the head, middle and tail of a run, and a run alternating between two
// engines. Each file under testdata/batch_golden holds a comment
// describing the script, then the request stream and the reply stream as
// hex. The recorder went with the path it recorded; the files are the
// reference now and are not regenerated.

const goldenDir = "testdata/batch_golden"

// readGolden parses one golden file into its request and reply streams.
func readGolden(t *testing.T, path string) (request, reply []byte) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(raw), "\n") {
		key, val, _ := strings.Cut(line, " ")
		var dst *[]byte
		switch key {
		case "request":
			dst = &request
		case "reply":
			dst = &reply
		default:
			continue
		}
		if *dst, err = hex.DecodeString(val); err != nil {
			t.Fatalf("%s: %s: %v", path, key, err)
		}
	}
	if len(request) == 0 {
		t.Fatalf("%s: no request stream", path)
	}
	return request, reply
}

// TestHotPathGolden replays every recorded request stream — delivered
// whole, under seeded 1–5-byte write fragmentation, and in lockstep — and
// requires the recorded reply stream byte for byte.
func TestHotPathGolden(t *testing.T) {
	files, err := filepath.Glob(filepath.Join(goldenDir, "*.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no golden files")
	}
	for _, path := range files {
		t.Run(strings.TrimSuffix(filepath.Base(path), ".golden"), func(t *testing.T) {
			request, want := readGolden(t, path)
			check := func(delivery string, got []byte) {
				t.Helper()
				if !bytes.Equal(got, want) {
					t.Fatalf("%s: reply stream differs from the golden:\ngot  %d bytes: %x\nwant %d bytes: %x",
						delivery, len(got), got, len(want), want)
				}
			}
			check("whole", batchReplyStream(t, request, 0, false))
			for seed := int64(1); seed <= 3; seed++ {
				check(fmt.Sprintf("fragmentation seed %d", seed), batchReplyStream(t, request, seed, false))
			}
			check("lockstep", batchReplyStream(t, request, 0, true))
		})
	}
}
