package sampleconv

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
)

// The µ-law unity mix kernel, at every tier this CPU runs (mixTiers, in
// mix_amd64_test.go and mix_other_test.go), against referenceProcess.

// mixTier is one µ-law unity mix kernel and its name.
type mixTier struct {
	name string
	k    Kernel
}

// forEachTier runs test as a subtest once per tier.
func forEachTier(t *testing.T, test func(t *testing.T, k Kernel)) {
	for _, tier := range mixTiers() {
		t.Run(tier.name, func(t *testing.T) { test(t, tier.k) })
	}
}

// TestVectorKernelSelected pins the selection: SelectKernel hands out the
// widest tier, AVX-512 over AVX2 over the table.
func TestVectorKernelSelected(t *testing.T) {
	fn := func(k Kernel) uintptr { return reflect.ValueOf(k).Pointer() }
	if widest := mixTiers()[0]; fn(SelectKernel(MU255, MU255, true, false)) != fn(widest.k) {
		t.Errorf("µ-law mix kernel: not the widest tier, %s", widest.name)
	}
}

// muMixReference is the oracle: the retained scalar pipeline.
func muMixReference(dst, src []byte, n int) {
	referenceProcess(dst, MU255, src, MU255, n, GainUnity, true)
}

// TestMuMixAllBytePairs enumerates the kernel's whole domain: every dst
// byte against every src byte.
func TestMuMixAllBytePairs(t *testing.T) {
	forEachTier(t, func(t *testing.T, k Kernel) {
		got := make([]byte, 65536)
		src := make([]byte, 65536)
		for i := range got {
			got[i], src[i] = byte(i>>8), byte(i)
		}
		want := append([]byte(nil), got...)
		k(got, src, len(got), GainUnity)
		muMixReference(want, src, len(want))
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("dst %#x + src %#x = %#x, want %#x", i>>8, i&0xff, got[i], want[i])
			}
		}
	})
}

// TestMixLengthsAndOffsets runs every length 0..130 at every dst and src
// start offset 0..31 inside larger buffers: the vector body / scalar tail
// split at each remainder, loads and stores at each misalignment, and
// canary bytes on both sides of dst that must survive.
func TestMixLengthsAndOffsets(t *testing.T) {
	forEachTier(t, func(t *testing.T, k Kernel) {
		const maxN, maxOff, canary = 130, 32, 0xA5
		rng := rand.New(rand.NewSource(7))
		dbuf := make([]byte, maxOff+maxN+maxOff)
		sbuf := randomSampleBuf(rng, MU255, maxOff+maxN)
		data := randomSampleBuf(rng, MU255, maxN)
		for n := 0; n <= maxN; n++ {
			for doff := 0; doff < maxOff; doff++ {
				for soff := 0; soff < maxOff; soff++ {
					for i := range dbuf {
						dbuf[i] = canary
					}
					dst := dbuf[doff : doff+n]
					copy(dst, data)
					src := sbuf[soff : soff+n]
					want := append([]byte(nil), dst...)
					muMixReference(want, src, n)
					k(dst, src, n, GainUnity)
					if !bytes.Equal(dst, want) {
						t.Fatalf("n=%d dst+%d src+%d: kernel != reference", n, doff, soff)
					}
					for i, b := range dbuf {
						if (i < doff || i >= doff+n) && b != canary {
							t.Fatalf("n=%d dst+%d src+%d: wrote byte %d outside dst", n, doff, soff, i)
						}
					}
				}
			}
		}
	})
}

// TestMixInPlace is the aliasing clause of the Kernel contract: dst and
// src the same samples, so every sample is doubled, saturating.
func TestMixInPlace(t *testing.T) {
	forEachTier(t, func(t *testing.T, k Kernel) {
		const n = 1000 + 13
		buf := randomSampleBuf(rand.New(rand.NewSource(8)), MU255, n)
		want := append([]byte(nil), buf...)
		muMixReference(want, append([]byte(nil), buf...), n)
		k(buf, buf, n, GainUnity)
		if !bytes.Equal(buf, want) {
			t.Fatal("mix with dst == src: != reference on a copy")
		}
	})
}
