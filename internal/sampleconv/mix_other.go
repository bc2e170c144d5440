//go:build !amd64 || purego

package sampleconv

// installVectorMix is the last step of kernels.go's init. This build has
// no vector mix kernel: the table loop is the whole kernel.
func installVectorMix() {}
