package af_test

import (
	"math"
	"testing"
	"time"

	"audiofile/af"
	"audiofile/afutil"
	"audiofile/internal/sampleconv"
)

// TestADPCMPlayPath: a client plays ADPCM-compressed audio through a
// context with Type ADPCM4; the server's conversion module decompresses
// it into the device buffers, so recording the same interval as µ-law
// recovers the tone.
func TestADPCMPlayPath(t *testing.T) {
	r := newStack(t)
	c := r.dial(t)
	adpcm, err := c.CreateAC(1, af.ACEncoding, af.ACAttributes{Type: af.ADPCM4})
	if err != nil {
		t.Fatal(err)
	}
	plain, _ := c.CreateAC(1, 0, af.ACAttributes{})
	primeRecording(t, plain)

	// A 1 kHz tone, compressed client-side.
	n := 1600
	lin := make([]int16, n)
	for i := range lin {
		lin[i] = int16(8000 * math.Sin(2*math.Pi*1000*float64(i)/8000))
	}
	comp := afutil.CompressADPCM(lin)
	if len(comp) != n/2 {
		t.Fatalf("compressed %d bytes, want %d", len(comp), n/2)
	}

	now, _ := adpcm.GetTime()
	start := now.Add(200)
	if _, err := adpcm.PlaySamples(start, comp); err != nil {
		t.Fatal(err)
	}
	r.step(2400)

	buf := make([]byte, n)
	_, got, err := plain.RecordSamples(start, buf, true)
	if err != nil || got != n {
		t.Fatal(err, got)
	}
	// The decompressed tone should be close to the original (ADPCM keeps
	// tracking error small after its adaptation ramp).
	var energy, noise float64
	for i := 400; i < n; i++ {
		v := float64(sampleconv.DecodeMuLaw(buf[i]))
		energy += v * v
		d := v - float64(lin[i])
		noise += d * d
	}
	if energy < 1e6 {
		t.Fatal("ADPCM play produced silence")
	}
	snr := 10 * math.Log10(energy/noise)
	if snr < 10 {
		t.Errorf("ADPCM play SNR = %.1f dB, want > 10", snr)
	}
}

// TestADPCMRecordPath: recording through an ADPCM context returns
// compressed bytes (half a byte per sample) that expand to the signal the
// device captured.
func TestADPCMRecordPath(t *testing.T) {
	r := newStack(t)
	c := r.dial(t)
	plain, _ := c.CreateAC(1, 0, af.ACAttributes{})
	primeRecording(t, plain)

	// Put a known tone on the loopback via a plain µ-law play.
	n := 1600
	tone := make([]byte, n)
	for i := range tone {
		tone[i] = sampleconv.EncodeMuLaw(int16(6000 * math.Sin(2*math.Pi*500*float64(i)/8000)))
	}
	now, _ := plain.GetTime()
	start := now.Add(200)
	if _, err := plain.PlaySamples(start, tone); err != nil {
		t.Fatal(err)
	}
	r.step(2400)

	adpcm, err := c.CreateAC(1, af.ACEncoding, af.ACAttributes{Type: af.ADPCM4})
	if err != nil {
		t.Fatal(err)
	}
	comp := make([]byte, n/2) // n frames of ADPCM
	_, got, err := adpcm.RecordSamples(start, comp, true)
	if err != nil {
		t.Fatal(err)
	}
	if got != n/2 {
		t.Fatalf("recorded %d compressed bytes, want %d", got, n/2)
	}
	lin := afutil.ExpandADPCM(comp)
	var energy, noise float64
	for i := 400; i < n; i++ {
		want := float64(sampleconv.DecodeMuLaw(tone[i]))
		gotV := float64(lin[i])
		energy += want * want
		d := gotV - want
		noise += d * d
	}
	snr := 10 * math.Log10(energy/noise)
	if snr < 10 {
		t.Errorf("ADPCM record SNR = %.1f dB, want > 10", snr)
	}
}

// TestADPCMBlockingRecord: the compressed path honors blocking semantics.
func TestADPCMBlockingRecord(t *testing.T) {
	r := newStack(t)
	c := r.dial(t)
	adpcm, err := c.CreateAC(1, af.ACEncoding, af.ACAttributes{Type: af.ADPCM4})
	if err != nil {
		t.Fatal(err)
	}
	r.step(200)
	now, _ := adpcm.GetTime()
	doneCh := make(chan int, 1)
	go func() {
		_, got, _ := adpcm.RecordSamples(now, make([]byte, 100), true) // 200 frames
		doneCh <- got
	}()
	select {
	case <-doneCh:
		t.Fatal("compressed blocking record returned early")
	default:
	}
	r.step(400)
	select {
	case got := <-doneCh:
		if got != 100 {
			t.Errorf("got %d bytes, want 100", got)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("compressed blocking record never completed")
	}
}

// TestADPCMRejectedOnStereo: the conversion module is mono-only; a stereo
// device rejects the encoding with BadMatch.
func TestADPCMRejectedOnStereo(t *testing.T) {
	r := newStack(t)
	c := r.dial(t)
	var gotErr error
	c.SetErrorHandler(func(_ *af.Conn, pe *af.ProtoError) { gotErr = pe })
	if _, err := c.CreateAC(2, af.ACEncoding, af.ACAttributes{Type: af.ADPCM4}); err != nil {
		t.Fatal(err)
	}
	c.Sync()
	pe, ok := gotErr.(*af.ProtoError)
	if !ok || pe.Code != 8 /* ErrMatch */ {
		t.Errorf("stereo ADPCM error = %v", gotErr)
	}
}
