package sndfile

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"
	"testing/quick"

	"audiofile/internal/sampleconv"
)

func sample(enc sampleconv.Encoding, rate, ch, frames int) *Sound {
	fb := enc.BytesPerSamples(1) * ch
	data := make([]byte, frames*fb)
	for i := range data {
		data[i] = byte(i * 7)
	}
	return &Sound{Info: Info{Encoding: enc, Rate: rate, Channels: ch}, Data: data}
}

// roundTripFrames: a short file, and one whose data chunk outgrows
// chunkPrealloc at every encoding (readChunk's growth path).
var roundTripFrames = []int{64, chunkPrealloc + 7}

func TestAURoundTrip(t *testing.T) {
	for _, enc := range []sampleconv.Encoding{sampleconv.MU255, sampleconv.ALAW, sampleconv.LIN16, sampleconv.LIN32} {
		for _, frames := range roundTripFrames {
			s := sample(enc, 8000, 1, frames)
			var buf bytes.Buffer
			if err := WriteAU(&buf, s); err != nil {
				t.Fatalf("%v: %v", enc, err)
			}
			got, err := ReadAU(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatalf("%v, %d frames: %v", enc, frames, err)
			}
			if got.Encoding != enc || got.Rate != 8000 || got.Channels != 1 {
				t.Errorf("%v: info = %+v", enc, got.Info)
			}
			if !bytes.Equal(got.Data, s.Data) {
				t.Errorf("%v, %d frames: data mismatch", enc, frames)
			}
		}
	}
}

func TestWAVRoundTrip(t *testing.T) {
	for _, enc := range []sampleconv.Encoding{sampleconv.MU255, sampleconv.ALAW, sampleconv.LIN16, sampleconv.LIN32} {
		for _, frames := range roundTripFrames {
			s := sample(enc, 44100, 2, frames)
			var buf bytes.Buffer
			if err := WriteWAV(&buf, s); err != nil {
				t.Fatalf("%v: %v", enc, err)
			}
			got, err := ReadWAV(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatalf("%v, %d frames: %v", enc, frames, err)
			}
			if got.Encoding != enc || got.Rate != 44100 || got.Channels != 2 {
				t.Errorf("%v: info = %+v", enc, got.Info)
			}
			if !bytes.Equal(got.Data, s.Data) {
				t.Errorf("%v, %d frames: data mismatch", enc, frames)
			}
		}
	}
}

func TestSniff(t *testing.T) {
	s := sample(sampleconv.MU255, 8000, 1, 32)
	var au, wav bytes.Buffer
	WriteAU(&au, s)
	WriteWAV(&wav, s)
	got, err := Read(bytes.NewReader(au.Bytes()))
	if err != nil || got.Encoding != sampleconv.MU255 {
		t.Errorf("AU sniff: %v %v", got, err)
	}
	got, err = Read(bytes.NewReader(wav.Bytes()))
	if err != nil || got.Encoding != sampleconv.MU255 {
		t.Errorf("WAV sniff: %v %v", got, err)
	}
	if _, err := Read(bytes.NewReader([]byte("rawwwdataaa"))); err != ErrUnknownFormat {
		t.Errorf("raw sniff err = %v", err)
	}
}

func TestFramesAndDuration(t *testing.T) {
	s := sample(sampleconv.LIN16, 8000, 2, 4000)
	if s.Frames() != 4000 {
		t.Errorf("Frames = %d", s.Frames())
	}
	if s.Duration() != 0.5 {
		t.Errorf("Duration = %g", s.Duration())
	}
}

func TestWAVSkipsUnknownChunks(t *testing.T) {
	s := sample(sampleconv.LIN16, 8000, 1, 16)
	var buf bytes.Buffer
	WriteWAV(&buf, s)
	// Splice a LIST chunk between fmt and data.
	raw := buf.Bytes()
	var out bytes.Buffer
	out.Write(raw[:36])
	out.Write([]byte{'L', 'I', 'S', 'T', 5, 0, 0, 0, 'x', 'y', 'z', 'z', 'y', 0}) // odd size + pad
	out.Write(raw[36:])
	// Fix the RIFF size.
	b := out.Bytes()
	b[4] = byte(len(b) - 8)
	got, err := ReadWAV(bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Data, s.Data) {
		t.Error("data corrupted by chunk skipping")
	}
}

func TestTruncatedFiles(t *testing.T) {
	s := sample(sampleconv.LIN16, 8000, 1, 64)
	var au bytes.Buffer
	WriteAU(&au, s)
	for _, n := range []int{0, 3, 10, 30} {
		if _, err := ReadAU(bytes.NewReader(au.Bytes()[:n])); err == nil {
			t.Errorf("truncated AU (%d bytes) did not error", n)
		}
	}
	var wav bytes.Buffer
	WriteWAV(&wav, s)
	for _, n := range []int{0, 3, 11, 20, 43} {
		if _, err := ReadWAV(bytes.NewReader(wav.Bytes()[:n])); err == nil {
			t.Errorf("truncated WAV (%d bytes) did not error", n)
		}
	}
}

func TestBadHeaders(t *testing.T) {
	if _, err := ReadAU(bytes.NewReader(make([]byte, 64))); err != ErrUnknownFormat {
		t.Errorf("zero AU header err = %v", err)
	}
	if _, err := ReadWAV(bytes.NewReader(make([]byte, 64))); err != ErrUnknownFormat {
		t.Errorf("zero WAV header err = %v", err)
	}
}

// Property: arbitrary byte payloads survive an AU round trip for µ-law.
func TestQuickAUPayload(t *testing.T) {
	f := func(data []byte) bool {
		s := &Sound{Info: Info{Encoding: sampleconv.MU255, Rate: 8000, Channels: 1}, Data: data}
		var buf bytes.Buffer
		if err := WriteAU(&buf, s); err != nil {
			return false
		}
		got, err := ReadAU(bytes.NewReader(buf.Bytes()))
		if err != nil {
			return false
		}
		return bytes.Equal(got.Data, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: fuzzing the readers never panics.
func TestQuickNoPanic(t *testing.T) {
	f := func(data []byte) bool {
		defer func() {
			if recover() != nil {
				t.Fatal("reader panicked")
			}
		}()
		ReadAU(bytes.NewReader(data))  //nolint:errcheck
		ReadWAV(bytes.NewReader(data)) //nolint:errcheck
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// hugeClaims are headers whose size fields claim 1 GiB the stream does
// not hold: an AU header, a WAV fmt chunk, and a WAV data chunk.
func hugeClaims() map[string][]byte {
	const claim = 1 << 30
	be, le := binary.BigEndian, binary.LittleEndian
	au := make([]byte, 24)
	be.PutUint32(au[0:], auMagic)
	be.PutUint32(au[4:], 24)
	be.PutUint32(au[8:], claim)
	be.PutUint32(au[12:], auMuLaw)
	be.PutUint32(au[16:], 8000)
	be.PutUint32(au[20:], 1)

	riff := func(chunks ...[]byte) []byte {
		b := le.AppendUint32(nil, riffTag)
		b = le.AppendUint32(b, claim)
		b = le.AppendUint32(b, waveTag)
		for _, c := range chunks {
			b = append(b, c...)
		}
		return b
	}
	chunk := func(tag, size uint32, body []byte) []byte {
		return append(le.AppendUint32(le.AppendUint32(nil, tag), size), body...)
	}
	fmtBody := make([]byte, 16)
	le.PutUint16(fmtBody[0:], waveMuLaw)
	le.PutUint16(fmtBody[2:], 1)
	le.PutUint32(fmtBody[4:], 8000)
	le.PutUint16(fmtBody[14:], 8)
	return map[string][]byte{
		"AU":       au,
		"WAV fmt":  riff(chunk(fmtTag, claim, fmtBody)),
		"WAV data": riff(chunk(fmtTag, 16, fmtBody), chunk(dataTag, claim, []byte{1, 2, 3})),
	}
}

// TestHeaderSizeIsAClaim: a header claiming more than the stream holds is
// an error, and costs what the stream holds, not what it claims.
func TestHeaderSizeIsAClaim(t *testing.T) {
	for name, file := range hugeClaims() {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := Read(bytes.NewReader(file))
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: a 1 GiB claim over %d bytes decoded", name, len(file))
		}
		if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
			t.Errorf("%s: %d bytes allocated for a %d-byte file", name, got, len(file))
		}
	}
}

// FuzzRead: any bytes either decode or error, without panicking, and the
// samples decoded are bytes the stream held.
func FuzzRead(f *testing.F) {
	for _, enc := range []sampleconv.Encoding{sampleconv.MU255, sampleconv.LIN16} {
		var au, wav bytes.Buffer
		WriteAU(&au, sample(enc, 8000, 1, 16))  //nolint:errcheck
		WriteWAV(&wav, sample(enc, 8000, 2, 8)) //nolint:errcheck
		f.Add(au.Bytes())
		f.Add(wav.Bytes())
	}
	for _, file := range hugeClaims() {
		f.Add(file)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		if len(s.Data) > len(data) {
			t.Fatalf("decoded %d sample bytes from a %d-byte file", len(s.Data), len(data))
		}
		s.Frames()
		s.Duration()
	})
}
