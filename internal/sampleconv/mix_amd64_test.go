//go:build amd64 && !purego

package sampleconv

// mixTiers are the µ-law unity mix kernels this CPU runs, widest first:
// the ZMM kernel where the probe finds AVX-512 VBMI, the YMM kernel where
// it finds AVX2, and the table loop everywhere.
func mixTiers() []mixTier {
	var tiers []mixTier
	if hasAVX512VBMI() {
		tiers = append(tiers, mixTier{"AVX512", muMixVector512})
	}
	if hasAVX2() {
		tiers = append(tiers, mixTier{"AVX2", muMixVector})
	}
	return append(tiers, mixTier{"Table", muMixScalar})
}
