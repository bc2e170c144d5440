//go:build linux && !race

package ring

import "syscall"

// zeroed maps n bytes the kernel zero-fills a page at a time, at first
// touch, and declines huge pages: neighbouring mappings merge, and one
// huge page would commit 2 MiB at once. Failing that, the heap's.
func zeroed(n int) (b []byte, mapped bool) {
	b, err := syscall.Mmap(-1, 0, n, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return make([]byte, n), false
	}
	syscall.Madvise(b, syscall.MADV_NOHUGEPAGE) //nolint:errcheck — advice only
	return b, true
}

func unmap(b []byte) { syscall.Munmap(b) } //nolint:errcheck — a whole mapping of ours
