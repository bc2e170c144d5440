package af

import (
	"fmt"
	"testing"
	"testing/quick"
)

func TestResolveName(t *testing.T) {
	cases := []struct {
		in      string
		network string
		addr    string
		wantErr bool
	}{
		{":0", "unix", "/tmp/.AFunix/AF0", false},
		{":3", "unix", "/tmp/.AFunix/AF3", false},
		{"unix:7", "unix", "/tmp/.AFunix/AF7", false},
		{"unix:/var/run/af.sock", "unix", "/var/run/af.sock", false},
		{"tcp:somehost:9999", "tcp", "somehost:9999", false},
		{"myhost:0", "tcp", "myhost:7000", false},
		{"myhost:2", "tcp", "myhost:7002", false},
		{"a.b.example:1", "tcp", "a.b.example:7001", false},
		{"nonsense", "", "", true},
		{"host:xyz", "", "", true},
	}
	for _, c := range cases {
		network, addr, err := resolveName(c.in)
		if c.wantErr {
			if err == nil {
				t.Errorf("resolveName(%q) did not fail (got %s %s)", c.in, network, addr)
			}
			continue
		}
		if err != nil {
			t.Errorf("resolveName(%q): %v", c.in, err)
			continue
		}
		if network != c.network || addr != c.addr {
			t.Errorf("resolveName(%q) = %s %s, want %s %s", c.in, network, addr, c.network, c.addr)
		}
	}
}

func TestTimeHelpers(t *testing.T) {
	var a ATime = 100
	b := a.Add(50)
	if !TimeAfter(b, a) || TimeBefore(b, a) {
		t.Error("ordering wrong")
	}
	if TimeSub(b, a) != 50 {
		t.Errorf("TimeSub = %d", TimeSub(b, a))
	}
	// Wrap-around.
	big := ATime(0xFFFFFFF0)
	after := big.Add(32)
	if !TimeAfter(after, big) {
		t.Error("ordering across wrap wrong")
	}
	if after.Add(-32) != big {
		t.Error("negative Add wrong")
	}
}

func TestQuickTimeAddSub(t *testing.T) {
	f := func(a uint32, n int32) bool {
		return TimeSub(ATime(a).Add(int(n)), ATime(a)) == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEncodingMeta(t *testing.T) {
	if MU255.String() != "MU255" || ADPCM4.String() != "ADPCM4" {
		t.Error("encoding names wrong")
	}
	if Encoding(77).String() == "" {
		t.Error("unknown encoding has empty name")
	}
	if LIN16.BytesPerUnit() != 2 || LIN32.BytesPerUnit() != 4 || MU255.BytesPerUnit() != 1 {
		t.Error("BytesPerUnit wrong")
	}
}

// TestEncodingEveryValue pins String and BytesPerUnit for every value an
// Encoding can hold to what af stated before it aliased sampleconv's
// type: the five names, Encoding(n) beyond them, and 2 and 4 bytes for
// the linear encodings, 1 for any other.
func TestEncodingEveryValue(t *testing.T) {
	names := []string{"MU255", "ALAW", "LIN16", "LIN32", "ADPCM4"}
	for n := 0; n < 256; n++ {
		name, size := fmt.Sprintf("Encoding(%d)", n), 1
		if n < len(names) {
			name = names[n]
		}
		switch Encoding(n) {
		case LIN16:
			size = 2
		case LIN32:
			size = 4
		}
		if e := Encoding(n); e.String() != name || e.BytesPerUnit() != size {
			t.Errorf("Encoding(%d): %q, %d bytes; want %q, %d", n, e.String(), e.BytesPerUnit(), name, size)
		}
	}
}

func TestDeviceIsPhone(t *testing.T) {
	d := Device{}
	if d.IsPhone() {
		t.Error("empty device is phone")
	}
	d.InputsFromPhone = 1
	if !d.IsPhone() {
		t.Error("phone-input device not phone")
	}
}

func TestGetErrorText(t *testing.T) {
	if GetErrorText(3) == "" || GetErrorText(200) == "" {
		t.Error("empty error text")
	}
	pe := &ProtoError{Code: 3, MajorOp: 7, BadValue: 42}
	if pe.Error() == "" {
		t.Error("empty ProtoError message")
	}
	pe = &ProtoError{Code: 111, MajorOp: 222}
	if pe.Error() == "" {
		t.Error("unknown codes produced empty message")
	}
}
