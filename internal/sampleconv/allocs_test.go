//go:build !race

package sampleconv

import "testing"

// TestKernelAllocs is the allocation gate of BenchmarkMix* and
// BenchmarkKernel: every kernel SelectKernel hands out, at every size,
// allocates nothing per call (the generic two-pass ones stage through a
// pooled scratch). Under -race the counts include the detector's own, so
// the gate runs without it.
func TestKernelAllocs(t *testing.T) {
	for _, mk := range mixKernels() {
		for _, size := range mixSizes {
			if n := testing.AllocsPerRun(100, mixOp(mk.enc, mk.k, size)); n != 0 {
				t.Errorf("Mix%s/%dB: %v allocs per call, want 0", mk.name, size, n)
			}
		}
	}
	for _, kc := range kernelCases {
		op, _ := kc.ready()
		if n := testing.AllocsPerRun(100, op); n != 0 {
			t.Errorf("Kernel/%s: %v allocs per call, want 0", kc.name, n)
		}
	}
}
