//go:build amd64 && !purego

package sampleconv

import (
	"reflect"
	"testing"
)

// TestVectorKernelSelected pins the selection: the µ-law unity mix entry
// is the vector kernel exactly when the probe reports AVX2, and the table
// loop otherwise.
func TestVectorKernelSelected(t *testing.T) {
	fn := func(k Kernel) uintptr { return reflect.ValueOf(k).Pointer() }
	want := muMixScalar
	if hasAVX2() {
		want = muMixVector
	}
	if fn(muMix()) != fn(want) {
		t.Errorf("µ-law mix kernel: wrong path for hasAVX2 = %v", hasAVX2())
	}
}
