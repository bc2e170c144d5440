//go:build !linux || race

package ring

// Device buffers live on the Go heap off Linux and in race builds: the
// race detector watches only the Go heap and data segments, so a mapped
// ring would hide its races.
func zeroed(n int) (b []byte, mapped bool) { return make([]byte, n), false }

func unmap([]byte) {}
