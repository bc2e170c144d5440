package afutil

import (
	"math"
	"sync"
	"testing"
	"testing/quick"

	"audiofile/internal/dsp"
	"audiofile/internal/sampleconv"
)

func TestConversionTablesWired(t *testing.T) {
	if ExpU[0xFF] != 0 || CompU[0] == 0 {
		t.Error("µ-law tables missing")
	}
	for i := 0; i < 256; i++ {
		if CvtU2A[i] != sampleconv.EncodeALaw(ExpU[i]) {
			t.Fatalf("CvtU2A[%d] inconsistent", i)
		}
		if CvtA2U[i] != sampleconv.EncodeMuLaw(ExpA[i]) {
			t.Fatalf("CvtA2U[%d] inconsistent", i)
		}
	}
}

func TestPowerTables(t *testing.T) {
	for i := 0; i < 256; i++ {
		lin := float64(ExpU[i])
		if PowerU[i] != lin*lin {
			t.Fatalf("PowerU[%d] = %g, want %g", i, PowerU[i], lin*lin)
		}
		lin = float64(ExpA[i])
		if PowerA[i] != lin*lin {
			t.Fatalf("PowerA[%d] = %g, want %g", i, PowerA[i], lin*lin)
		}
	}
}

func TestSineTables(t *testing.T) {
	if SineFloat[0] != 0 || SineInt[0] != 0 {
		t.Error("sine table does not start at 0")
	}
	if math.Abs(SineFloat[SineSize/4]-1) > 1e-9 {
		t.Errorf("quarter-wave = %g, want 1", SineFloat[SineSize/4])
	}
	if SineInt[SineSize/4] != 32767 {
		t.Errorf("int quarter-wave = %d", SineInt[SineSize/4])
	}
	// Symmetry: sin(x) = -sin(x + pi).
	for i := 0; i < SineSize/2; i++ {
		if math.Abs(SineFloat[i]+SineFloat[i+SineSize/2]) > 1e-9 {
			t.Fatalf("sine asymmetric at %d", i)
		}
	}
}

func TestMixUAndA(t *testing.T) {
	a := sampleconv.EncodeMuLaw(1000)
	b := sampleconv.EncodeMuLaw(2000)
	got := int(sampleconv.DecodeMuLaw(MixU(a, b)))
	if got < 2800 || got > 3200 {
		t.Errorf("MixU(1000, 2000) decodes to %d, want ~3000", got)
	}
	aa := sampleconv.EncodeALaw(1000)
	ba := sampleconv.EncodeALaw(2000)
	got = int(sampleconv.AToLin[MixA(aa, ba)])
	if got < 2700 || got > 3300 {
		t.Errorf("MixA(1000, 2000) decodes to %d, want ~3000", got)
	}
	// Saturation.
	m := sampleconv.EncodeMuLaw(30000)
	if v := sampleconv.DecodeMuLaw(MixU(m, m)); int(v) < 30000 {
		t.Errorf("saturating mix = %d", v)
	}
}

func TestGainTables(t *testing.T) {
	// -6 dB roughly halves a µ-law value.
	tbl := GainTableU(-6)
	in := sampleconv.EncodeMuLaw(8000)
	out := int(sampleconv.DecodeMuLaw(tbl[in]))
	if out < 3700 || out > 4400 {
		t.Errorf("-6 dB of 8000 = %d", out)
	}
	// 0 dB is identity up to companding round trip.
	tbl0 := GainTableU(0)
	for i := 0; i < 256; i++ {
		want := sampleconv.EncodeMuLaw(sampleconv.DecodeMuLaw(byte(i)))
		if tbl0[i] != want {
			t.Fatalf("0 dB table[%#x] = %#x, want %#x", i, tbl0[i], want)
		}
	}
	// A-law table too.
	ta := GainTableA(6)
	inA := sampleconv.EncodeALaw(2000)
	outA := int(sampleconv.AToLin[ta[inA]])
	if outA < 3500 || outA > 4500 {
		t.Errorf("+6 dB of 2000 (A-law) = %d", outA)
	}
	// The table cache returns the same pointer.
	if GainTableU(-6) != tbl {
		t.Error("gain table not cached")
	}
}

// TestGainTablesConcurrent has four goroutines walk the whole table
// range at once, as concurrent clients of the library do; under -race it
// catches an unsynchronized fill, and every table must be the one
// MakeGainTableU/A computes, handed out as one pointer.
func TestGainTablesConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	got := make([][2][2*GainTableRange + 1]*[256]byte, 4)
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for db := -GainTableRange; db <= GainTableRange; db++ {
				got[g][0][db+GainTableRange] = GainTableU(db)
				got[g][1][db+GainTableRange] = GainTableA(db)
			}
		}()
	}
	wg.Wait()
	for db := -GainTableRange; db <= GainTableRange; db++ {
		i := db + GainTableRange
		if *got[0][0][i] != *MakeGainTableU(float64(db)) || *got[0][1][i] != *MakeGainTableA(float64(db)) {
			t.Fatalf("%d dB: table differs from MakeGainTable", db)
		}
		for g := 1; g < len(got); g++ {
			if got[g][0][i] != got[0][0][i] || got[g][1][i] != got[0][1][i] {
				t.Fatalf("%d dB: goroutine %d got another table", db, g)
			}
		}
	}
}

func TestGainTablePanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("GainTableU(31) did not panic")
		}
	}()
	GainTableU(31)
}

func TestMakeGainTableArbitrary(t *testing.T) {
	tbl := MakeGainTableU(-40.0) // outside the precomputed range
	in := sampleconv.EncodeMuLaw(10000)
	out := int(sampleconv.DecodeMuLaw(tbl[in]))
	if out < 60 || out > 140 {
		t.Errorf("-40 dB of 10000 = %d, want ~100", out)
	}
}

func TestSampleSizes(t *testing.T) {
	if SampleSizes[0].Name != "MU255" || SampleSizes[2].Name != "LIN16" {
		t.Errorf("SampleSizes = %+v", SampleSizes)
	}
	if SampleSizes[2].BytesPerUnit != 2 || SampleSizes[2].SampsPerUnit != 1 {
		t.Error("LIN16 framing wrong")
	}
}

func TestSilence(t *testing.T) {
	buf := make([]byte, 8)
	Silence(0, buf)
	if buf[0] != 0xFF {
		t.Error("µ-law silence wrong")
	}
	Silence(2, buf)
	if buf[0] != 0 {
		t.Error("lin16 silence wrong")
	}
}

func TestSingleToneContinuity(t *testing.T) {
	rate := 8000
	a := make([]float64, 100)
	b := make([]float64, 100)
	phase := SingleTone(440, 1000, rate, a, 0)
	SingleTone(440, 1000, rate, b, phase)
	// The junction must not jump more than one sample step of a 440 Hz
	// tone at peak 1000 (~0.35 per sample at the steepest point * margin).
	jump := math.Abs(b[0] - a[99])
	maxStep := 1000 * 2 * math.Pi * 440 / float64(rate) * 1.5
	if jump > maxStep {
		t.Errorf("discontinuity at block boundary: %g > %g", jump, maxStep)
	}
}

func TestSingleToneFrequency(t *testing.T) {
	rate := 8000
	n := 2048
	buf := make([]float64, n)
	SingleTone(1000, 1.0, rate, buf, 0)
	// Count zero crossings: 1000 Hz for 2048/8000 s = 256 ms -> 512 crossings.
	crossings := 0
	for i := 1; i < n; i++ {
		if (buf[i-1] < 0) != (buf[i] < 0) {
			crossings++
		}
	}
	want := 2 * 1000 * n / rate
	if crossings < want-4 || crossings > want+4 {
		t.Errorf("crossings = %d, want ~%d", crossings, want)
	}
}

func TestQuickSingleTonePeak(t *testing.T) {
	f := func(seed uint8) bool {
		freq := 100 + float64(seed)*7
		buf := make([]float64, 512)
		SingleTone(freq, 5000, 8000, buf, 0)
		for _, v := range buf {
			if v > 5000 || v < -5000 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestTonePairLevels(t *testing.T) {
	rate := 8000
	buf := make([]byte, 8000)
	TonePair(350, -13, 440, -13, 0, rate, buf)
	// Two -13 dBm tones sum to about -10 dBm total power.
	p := PowerMu(buf)
	if math.Abs(p-(-10)) > 0.7 {
		t.Errorf("dialtone power = %g dBm, want ~-10", p)
	}
}

func TestTonePairRamp(t *testing.T) {
	buf := make([]byte, 800)
	TonePair(697, -4, 1209, -2, 80, 8000, buf)
	// The first and last samples are near silence; mid-buffer is hot.
	first := math.Abs(float64(sampleconv.DecodeMuLaw(buf[0])))
	last := math.Abs(float64(sampleconv.DecodeMuLaw(buf[len(buf)-1])))
	var peak float64
	for _, b := range buf[300:500] {
		if v := math.Abs(float64(sampleconv.DecodeMuLaw(b))); v > peak {
			peak = v
		}
	}
	if first > peak/10 || last > peak/10 {
		t.Errorf("ramp ineffective: first=%g last=%g peak=%g", first, last, peak)
	}
}

func TestTonePairDecodableAsDTMF(t *testing.T) {
	// A TonePair burst rendered from the Table 7 DTMF spec must decode.
	rate := 8000
	for _, digit := range []byte("159D") {
		spec, ok := DTMFTone(digit)
		if !ok {
			t.Fatalf("DTMFTone(%c) missing", digit)
		}
		burst := RenderTone(spec, rate)
		det := dsp.NewDTMFDetector(rate)
		lin := make([]int16, len(burst))
		sampleconv.ToLin16(lin, burst, sampleconv.MU255, len(burst))
		got := det.Feed(lin)
		if len(got) != 1 || got[0] != digit {
			t.Errorf("digit %c decoded as %q", digit, got)
		}
	}
}

func TestCallProgressTable(t *testing.T) {
	// Spot-check Table 7 values.
	d := CallProgressTones["dialtone"]
	if d.F1 != 350 || d.F2 != 440 || d.DB1 != -13 || d.TimeOn != 1000 || d.TimeOff != 0 {
		t.Errorf("dialtone = %+v", d)
	}
	b := CallProgressTones["busy"]
	if b.F1 != 480 || b.F2 != 620 || b.TimeOn != 500 || b.TimeOff != 500 {
		t.Errorf("busy = %+v", b)
	}
	rb := CallProgressTones["ringback"]
	if rb.TimeOff != 3000 || rb.DB1 != -19 {
		t.Errorf("ringback = %+v", rb)
	}
	fb := CallProgressTones["fastbusy"]
	if fb.TimeOn != 250 || fb.TimeOff != 250 {
		t.Errorf("fastbusy = %+v", fb)
	}
}

func TestDTMFToneTable(t *testing.T) {
	spec, ok := DTMFTone('5')
	if !ok || spec.F1 != 770 || spec.F2 != 1336 || spec.DB1 != -4 || spec.DB2 != -2 ||
		spec.TimeOn != 50 || spec.TimeOff != 50 {
		t.Errorf("DTMFTone('5') = %+v, %v", spec, ok)
	}
	if _, ok := DTMFTone('x'); ok {
		t.Error("DTMFTone('x') ok")
	}
}

func TestPowerMu(t *testing.T) {
	// Silence.
	sil := make([]byte, 100)
	for i := range sil {
		sil[i] = 0xFF
	}
	if !math.IsInf(PowerMu(sil), -1) {
		t.Error("silence power not -inf")
	}
	if !math.IsInf(PowerMu(nil), -1) {
		t.Error("empty power not -inf")
	}
	// A 0 dBm tone measures 0 dBm.
	buf := make([]byte, 8000)
	TonePair(1000, 0, 1000, -100, 0, 8000, buf)
	if p := PowerMu(buf); math.Abs(p) > 0.5 {
		t.Errorf("0 dBm tone = %g dBm", p)
	}
}

// TestPowerMuIsPowerLin16 holds the two power meters to one digital
// milliwatt: both sum the same squares in the same order, so a µ-law
// block and its MuToLin expansion measure exactly the same.
func TestPowerMuIsPowerLin16(t *testing.T) {
	tone := make([]byte, 800)
	TonePair(697, -4, 1209, -2, 0, 8000, tone)
	every := make([]byte, 256)
	for i := range every {
		every[i] = byte(i)
	}
	for _, block := range [][]byte{tone, every, {0xFF, 0x7F}, nil} {
		lin := make([]int16, len(block))
		for i, b := range block {
			lin[i] = sampleconv.MuToLin[b]
		}
		if mu, l := PowerMu(block), PowerLin16(lin); mu != l {
			t.Errorf("%d bytes: PowerMu %v != PowerLin16 %v", len(block), mu, l)
		}
	}
}

func TestRenderToneCadence(t *testing.T) {
	spec := ToneSpec{F1: 480, DB1: -12, F2: 620, DB2: -12, TimeOn: 500, TimeOff: 500}
	buf := RenderTone(spec, 8000)
	if len(buf) != 8000 {
		t.Fatalf("len = %d, want 8000", len(buf))
	}
	// Off portion is silence.
	for i := 4000; i < 8000; i++ {
		if buf[i] != 0xFF {
			t.Fatalf("off-time byte %d = %#x", i, buf[i])
		}
	}
}
