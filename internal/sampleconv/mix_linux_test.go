package sampleconv

import (
	"bytes"
	"math/rand"
	"syscall"
	"testing"
)

// TestMixAgainstGuardPage places dst and src so each ends on the last
// byte before an inaccessible page: a kernel that loads or stores one byte
// past a buffer's end faults here rather than passing unnoticed.
func TestMixAgainstGuardPage(t *testing.T) {
	page := syscall.Getpagesize()
	guarded := func() []byte {
		m, err := syscall.Mmap(-1, 0, 2*page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
		if err != nil {
			t.Skipf("mmap: %v", err)
		}
		t.Cleanup(func() { syscall.Munmap(m) })
		if err := syscall.Mprotect(m[page:], syscall.PROT_NONE); err != nil {
			t.Skipf("mprotect: %v", err)
		}
		return m[:page]
	}
	dpage, spage := guarded(), guarded()
	forEachTier(t, func(t *testing.T, k Kernel) {
		rng := rand.New(rand.NewSource(9))
		for n := 0; n <= 130; n++ {
			dst, src := dpage[page-n:], spage[page-n:]
			rng.Read(dst)
			rng.Read(src)
			want := append([]byte(nil), dst...)
			muMixReference(want, src, n)
			k(dst, src, n, GainUnity)
			if !bytes.Equal(dst, want) {
				t.Fatalf("n=%d: kernel != reference", n)
			}
		}
	})
}
