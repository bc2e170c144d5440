//go:build !amd64 || purego

package sampleconv

// mixTiers are the µ-law unity mix kernels this build runs: the table
// loop alone.
func mixTiers() []mixTier { return []mixTier{{"Table", muMixScalar}} }
