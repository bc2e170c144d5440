package aserver

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"audiofile/internal/proto"
)

// The hot-path golden: reply byte streams recorded from the one-at-a-time
// dispatch path (BatchOff) for a fixed set of request streams. The
// batching path must reproduce each of them byte for byte, whole and
// under fragmented delivery. Each file under testdata/batch_golden holds
// a comment describing the script, the request stream, and the reply
// stream, the two streams as hex.

var updateBatchGolden = flag.Bool("update-batch-golden", false,
	"re-record testdata/batch_golden from the BatchOff dispatch path")

const goldenDir = "testdata/batch_golden"

type goldenScript struct {
	name, about string
	stream      []byte
}

// rawReq appends a request whose body is exactly the given words, valid
// or not.
func rawReq(w *proto.Writer, op, ext uint8, words ...uint32) {
	off := w.BeginRequest(op, ext)
	for _, v := range words {
		w.U32(v)
	}
	w.EndRequest(off) //nolint:errcheck
}

func goldenScripts() []goldenScript {
	var out []goldenScript
	seeds := [][]byte{
		{},
		{0, 1, 2, 3, 4, 5, 6},
		{0, 0, 0, 0, 0, 0, 0, 0, 16, 24, 32},
		{2, 18, 26, 2, 5, 0, 0, 6, 4, 12, 3, 1},
		bytes.Repeat([]byte{0}, 64),
		{4, 20, 36, 52, 5, 4, 0, 2},
	}
	for i, s := range seeds {
		out = append(out, goldenScript{
			name:   fmt.Sprintf("fuzz_seed%d", i),
			about:  fmt.Sprintf("FuzzBatchFraming seed corpus entry %d: batchScript(%v)", i, s),
			stream: batchScript(s),
		})
	}

	getTime := func(w *proto.Writer, dev uint32) { rawReq(w, proto.OpGetTime, 0, dev) }
	play := func(w *proto.Writer, ac, at uint32, n int) {
		data := make([]byte, n)
		for i := range data {
			data[i] = byte(7*i + n)
		}
		proto.AppendPlaySamples(w, proto.PlaySamplesReq{AC: ac, Time: at, Data: data}) //nolint:errcheck
	}
	record := func(w *proto.Writer, ac, at, n uint32, flags uint8) {
		proto.AppendRecordSamples(w, proto.RecordSamplesReq{AC: ac, Time: at, NBytes: n, Flags: flags}) //nolint:errcheck
	}
	createAC := func(w *proto.Writer, ac, dev uint32) {
		proto.AppendCreateAC(w, proto.CreateACReq{AC: ac, Device: dev}) //nolint:errcheck
	}
	const t0 = 4096 // device time when the connection opens

	// A play parks in the middle of a run, then a blocking record does:
	// nothing behind either may be answered before it resolves.
	{
		w := proto.Writer{Order: binary.LittleEndian}
		createAC(&w, 1, 0)
		getTime(&w, 0)
		play(&w, 1, t0, 16)
		play(&w, 1, t0+40000, 64) // tail beyond the buffer horizon: parks
		getTime(&w, 0)
		play(&w, 1, t0, 16)
		record(&w, 1, t0+parkAdvance, 64, 0) // not captured yet: parks
		getTime(&w, 0)
		play(&w, 1, t0, 8)
		getTime(&w, 0)
		out = append(out, goldenScript{"park_mid_run",
			"CreateAC; GetTime, Play, Play(parks), GetTime, Play, Record(blocking, parks), GetTime, Play, GetTime",
			w.Buf})
	}

	// Every kind of hot request that cannot be served, at the head, in
	// the middle and at the tail of one run of valid requests.
	kinds := []struct {
		name, about string
		put         func(w *proto.Writer)
	}{
		{"gettime_short", "GetTime with an empty body",
			func(w *proto.Writer) { rawReq(w, proto.OpGetTime, 0) }},
		{"gettime_bad_device", "GetTime on device 99",
			func(w *proto.Writer) { getTime(w, 99) }},
		{"play_short", "PlaySamples on a known AC whose body stops before NBytes",
			func(w *proto.Writer) { rawReq(w, proto.OpPlaySamples, 0, 1, t0) }},
		{"play_overrun", "PlaySamples on a known AC whose NBytes exceeds the body",
			func(w *proto.Writer) { rawReq(w, proto.OpPlaySamples, 0, 1, t0, 64) }},
		{"play_bad_ac", "PlaySamples on unknown AC 9",
			func(w *proto.Writer) { play(w, 9, t0, 4) }},
		{"play_short_bad_ac", "PlaySamples on unknown AC 9 whose body stops before NBytes",
			func(w *proto.Writer) { rawReq(w, proto.OpPlaySamples, 0, 9, t0) }},
		{"record_short", "RecordSamples on a known AC whose body stops before NBytes",
			func(w *proto.Writer) { rawReq(w, proto.OpRecordSamples, proto.SampleFlagNoBlock, 1, 0) }},
		{"record_bad_ac", "RecordSamples on unknown AC 9",
			func(w *proto.Writer) { record(w, 9, 0, 16, proto.SampleFlagNoBlock) }},
		{"record_too_big", "RecordSamples asking for more than a request may carry",
			func(w *proto.Writer) { record(w, 1, 0, 1<<20, proto.SampleFlagNoBlock) }},
	}
	for _, k := range kinds {
		w := proto.Writer{Order: binary.LittleEndian}
		createAC(&w, 1, 0)
		k.put(&w)
		getTime(&w, 0)
		play(&w, 1, t0, 16)
		k.put(&w)
		record(&w, 1, 0, 16, proto.SampleFlagNoBlock)
		getTime(&w, 0)
		k.put(&w)
		out = append(out, goldenScript{"unplaced_" + k.name,
			"CreateAC; X, GetTime, Play, X, Record, GetTime, X where X = " + k.about,
			w.Buf})
	}

	// One run alternating between two engines, with an error and a park
	// on one engine ahead of requests for the other.
	{
		w := proto.Writer{Order: binary.LittleEndian}
		createAC(&w, 1, 0)
		createAC(&w, 2, 1)
		getTime(&w, 0)
		getTime(&w, 1)
		getTime(&w, 1)
		play(&w, 1, t0, 16)
		play(&w, 2, t0, 16)
		play(&w, 2, t0, 24)
		getTime(&w, 2) // no such device
		record(&w, 2, 0, 16, proto.SampleFlagNoBlock)
		record(&w, 1, 0, 16, proto.SampleFlagNoBlock)
		play(&w, 2, t0+40000, 64) // parks on engine 1
		getTime(&w, 0)            // engine 0, behind the park
		getTime(&w, 1)
		play(&w, 1, t0, 8)
		out = append(out, goldenScript{"two_engines",
			"CreateAC 1 on dev 0, CreateAC 2 on dev 1; GetTime 0, GetTime 1 x2, Play 1, Play 2 x2, GetTime 2 (bad), Record 2, Record 1, Play 2 (parks), GetTime 0, GetTime 1, Play 1",
			w.Buf})
	}
	return out
}

func writeGolden(t *testing.T, g goldenScript, reply []byte) {
	t.Helper()
	body := fmt.Sprintf("# %s\nrequest %x\nreply %x\n", g.about, g.stream, reply)
	if err := os.WriteFile(filepath.Join(goldenDir, g.name+".golden"), []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
}

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

// TestHotPathGolden replays every recorded request stream through the
// batching path, delivered whole and under seeded 1–5-byte write
// fragmentation, and requires the recorded reply stream byte for byte.
func TestHotPathGolden(t *testing.T) {
	if *updateBatchGolden {
		if err := os.MkdirAll(goldenDir, 0o755); err != nil {
			t.Fatal(err)
		}
		for _, g := range goldenScripts() {
			writeGolden(t, g, batchReplyStream(t, BatchOff, g.stream, 0))
		}
	}
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
			for seed := int64(0); seed <= 3; seed++ {
				got := batchReplyStream(t, BatchAuto, request, seed)
				if !bytes.Equal(got, want) {
					t.Fatalf("fragmentation seed %d (0 = whole): reply stream differs from the golden:\ngot  %d bytes: %x\nwant %d bytes: %x",
						seed, len(got), got, len(want), want)
				}
			}
		})
	}
}
