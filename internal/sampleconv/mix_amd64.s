//go:build amd64 && !purego

#include "textflag.h"

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// Nibble tables, one VPSHUFB each. Every one is indexed by four bits of a
// byte, so the 16 bytes are broadcast to both lanes.
//
// muMant[b&15] = ((15-(b&15))<<3) + 0x84: the biased mantissa of µ-law
// byte b. The byte is stored complemented; the table undoes that.
DATA muMant<>+0(SB)/8, $0xC4CCD4DCE4ECF4FC
DATA muMant<>+8(SB)/8, $0x848C949CA4ACB4BC
GLOBL muMant<>(SB), RODATA|NOPTR, $16

// muPow[i] = 1<<(7-(i&7)). Indexed by b>>4 it is 1<<exponent of µ-law
// byte b (complement undone, sign bit ignored), the multiplier that
// shifts the mantissa left. Indexed by a segment number it is the high
// byte of 1<<(15-seg), the multiplier whose high product shifts right by
// seg+1.
DATA muPow<>+0(SB)/8, $0x0102040810204080
DATA muPow<>+8(SB)/8, $0x0102040810204080
GLOBL muPow<>(SB), RODATA|NOPTR, $16

// log2Lo[n] = floor(log2(n)) and log2Hi[n] = 4+floor(log2(n)), both 0 at
// n = 0: for a byte h >= 1, max(log2Lo[h&15], log2Hi[h>>4]) is
// floor(log2(h)).
DATA log2Lo<>+0(SB)/8, $0x0202020201010000
DATA log2Lo<>+8(SB)/8, $0x0303030303030303
GLOBL log2Lo<>(SB), RODATA|NOPTR, $16
DATA log2Hi<>+0(SB)/8, $0x0606060605050400
DATA log2Hi<>+8(SB)/8, $0x0707070707070707
GLOBL log2Hi<>(SB), RODATA|NOPTR, $16

// Broadcast constants: nibble mask (bytes), µ-law bias (words), the clip
// level and bias of the 14-bit encode domain (words), and the two halves
// of the output mask (bytes).
DATA nibble<>+0(SB)/8, $0x0F0F0F0F0F0F0F0F
GLOBL nibble<>(SB), RODATA|NOPTR, $8
DATA bias16<>+0(SB)/8, $0x0084008400840084
GLOBL bias16<>(SB), RODATA|NOPTR, $8
DATA clip14<>+0(SB)/8, $0x1FDE1FDE1FDE1FDE
GLOBL clip14<>(SB), RODATA|NOPTR, $8
DATA bias14<>+0(SB)/8, $0x0021002100210021
GLOBL bias14<>(SB), RODATA|NOPTR, $8
DATA signBit<>+0(SB)/8, $0x8080808080808080
GLOBL signBit<>(SB), RODATA|NOPTR, $8
DATA maskLo<>+0(SB)/8, $0x6F6F6F6F6F6F6F6F
GLOBL maskLo<>(SB), RODATA|NOPTR, $8

// DECODE expands the 32 µ-law bytes in b to 16-bit linear, in lo (bytes
// 0-7 and 16-23) and hi (bytes 8-15 and 24-31): the order VPACK*WB
// undoes. It is muLawDecode: t = muMant[b&15] << exponent, by a multiply;
// the sample is t-0x84 when the byte's top bit is set and 0x84-t when it
// is clear. VPSIGNW takes the sign from (b<<8 | 0x0F), which has b's top
// bit and is never zero. Y12 = 0, Y13 = muPow, Y14 = muMant, Y15 =
// nibble, Y10 = bias16.
#define DECODE(b, lo, hi, t0, t1) \
	VPAND      Y15, b, t0; \
	VPSHUFB    t0, Y14, t0; \
	VPSRLW     $4, b, t1; \
	VPAND      Y15, t1, t1; \
	VPSHUFB    t1, Y13, t1; \
	VPUNPCKLBW Y12, t0, lo; \
	VPUNPCKHBW Y12, t0, hi; \
	VPUNPCKLBW Y12, t1, t0; \
	VPUNPCKHBW Y12, t1, t1; \
	VPMULLW    t0, lo, lo; \
	VPMULLW    t1, hi, hi; \
	VPSUBW     lo, Y10, lo; \
	VPSUBW     hi, Y10, hi; \
	VPUNPCKLBW b, Y15, t0; \
	VPUNPCKHBW b, Y15, t1; \
	VPSIGNW    t0, lo, lo; \
	VPSIGNW    t1, hi, hi

// func mixMuAVX2(dst, src []byte)
//
// dst[i] = muMixTab[dst[i]<<8 | src[i]], 32 samples a step, by doing the
// arithmetic the table caches: decode both bytes, saturating add, encode.
// The encode is muLawEncode on p = sum>>2: |p| clipped to 8158, plus 33,
// lies in [33, 8191], so its segment is floor(log2)-5, found on the byte
// p>>5 (1..255) by two nibble lookups and a max; the mantissa with its
// leading one, p>>(seg+1) in [16, 31], is the high half of p<<(15-seg).
// uval^mask is then (seg<<4) ^ that ^ 0xEF for a sum >= 0 and ^ 0x6F for
// a sum < 0.
TEXT ·mixMuAVX2(SB), NOSPLIT, $0-48
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ src_base+24(FP), SI
	SHRQ $5, CX
	JZ   mudone

	VBROADCASTI128 muMant<>(SB), Y14
	VBROADCASTI128 muPow<>(SB), Y13
	VBROADCASTI128 log2Lo<>(SB), Y8
	VBROADCASTI128 log2Hi<>(SB), Y9
	VPBROADCASTQ   nibble<>(SB), Y15
	VPBROADCASTQ   bias16<>(SB), Y10
	VPBROADCASTQ   clip14<>(SB), Y11
	VPXOR          Y12, Y12, Y12

muloop:
	VMOVDQU (DI), Y0
	VMOVDQU (SI), Y1
	DECODE(Y0, Y2, Y3, Y6, Y7)
	DECODE(Y1, Y4, Y5, Y6, Y7)
	VPADDSW Y4, Y2, Y2
	VPADDSW Y5, Y3, Y3

	// Y0 = output mask: 0x6F, plus 0x80 where the sum is not negative.
	VPBROADCASTQ signBit<>(SB), Y6
	VPBROADCASTQ maskLo<>(SB), Y7
	VPACKSSWB    Y3, Y2, Y0
	VPANDN       Y6, Y0, Y0
	VPOR         Y7, Y0, Y0

	// Y2, Y3 = min(|sum>>2|, 8158) + 33.
	VPBROADCASTQ bias14<>(SB), Y6
	VPSRAW       $2, Y2, Y2
	VPSRAW       $2, Y3, Y3
	VPABSW       Y2, Y2
	VPABSW       Y3, Y3
	VPMINSW      Y11, Y2, Y2
	VPMINSW      Y11, Y3, Y3
	VPADDW       Y6, Y2, Y2
	VPADDW       Y6, Y3, Y3

	// Y4 = segment, in byte lanes.
	VPSRLW    $5, Y2, Y4
	VPSRLW    $5, Y3, Y5
	VPACKUSWB Y5, Y4, Y4
	VPAND     Y15, Y4, Y5
	VPSRLW    $4, Y4, Y4
	VPAND     Y15, Y4, Y4
	VPSHUFB   Y5, Y8, Y5
	VPSHUFB   Y4, Y9, Y4
	VPMAXUB   Y5, Y4, Y4

	// Y2 = p>>(seg+1), in byte lanes.
	VPSHUFB    Y4, Y13, Y5
	VPUNPCKLBW Y5, Y12, Y6
	VPUNPCKHBW Y5, Y12, Y7
	VPMULHUW   Y6, Y2, Y2
	VPMULHUW   Y7, Y3, Y3
	VPACKUSWB  Y3, Y2, Y2

	VPSLLW  $4, Y4, Y4
	VPXOR   Y4, Y2, Y2
	VPXOR   Y0, Y2, Y2
	VMOVDQU Y2, (DI)

	ADDQ $32, DI
	ADDQ $32, SI
	DECQ CX
	JNZ  muloop
	VZEROUPPER

mudone:
	RET

// func mixMuAVX512(dst, src []byte, tab *[384]byte)
//
// dst[i] = muMixTab[dst[i]<<8 | src[i]], 64 samples a step. It computes
// what mixMuAVX2 does, with VBMI's VPERMI2B, which looks up 64 bytes in a
// 128-byte table, in place of nibble lookups and multiplies. tab is
// muMixZTab (mix_amd64.go).
//
// Decode: every µ-law value is a multiple of 4, and a byte with its top
// bit set decodes to minus the value of the byte without it. So a
// quarter value v of b&0x7F is stored as two signed bytes, v = x + 127y
// with |x|, |y| <= 63 (tab[0:128] and tab[128:256]), negated for a byte
// with its top bit set. The x and y of dst and src add as bytes, and one
// VPMADDUBSW by (1, 127) makes the sum s = x + 127y in words: the
// reference's sum/4 without its int16 clamp, which cannot matter, as the
// encode clips |s| at 8158, inside the clamp's 8191.
//
// Encode: VPADDUSW of 0xE021 takes |s| to 0xE000 + p, where p =
// min(|s|, 8158) + 33 is muLawEncode's biased magnitude; the saturation
// is the clip. p>>6 indexes tab[256:384], the segment+1 k, and p>>k is
// the mantissa with its leading one; the 0xE000 adds only bits above the
// low five. With V = k<<4 | (p>>k)&15, which is uval+16, the output byte
// uval^mask is (15-V) ^ (0x80 where s < 0).
TEXT ·mixMuAVX512(SB), NOSPLIT, $0-56
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ src_base+24(FP), SI
	MOVQ tab+48(FP), AX
	SHRQ $6, CX
	JZ   zdone

	VMOVDQU64 0(AX), Z16
	VMOVDQU64 64(AX), Z17
	VMOVDQU64 128(AX), Z18
	VMOVDQU64 192(AX), Z19
	VMOVDQU64 256(AX), Z20
	VMOVDQU64 320(AX), Z21

	// Z22 = 0; Z23 = (1, 127), Z24 = 0xE021, Z25 = 15 (words); Z26 = 15,
	// Z27 = 0x80 (bytes); K3 = the low byte of every word.
	VPXORQ       Z22, Z22, Z22
	MOVL         $0x7F01, DX
	VPBROADCASTW DX, Z23
	MOVL         $0xE021, DX
	VPBROADCASTW DX, Z24
	MOVL         $15, DX
	VPBROADCASTW DX, Z25
	VPBROADCASTB DX, Z26
	MOVL         $0x80, DX
	VPBROADCASTB DX, Z27
	MOVQ         $0x5555555555555555, DX
	KMOVQ        DX, K3

zloop:
	VMOVDQU64 (DI), Z0
	VMOVDQU64 (SI), Z1

	// Z2, Z0 = x, y of dst; Z4, Z1 = x, y of src.
	VPMOVB2M  Z0, K1
	VPMOVB2M  Z1, K2
	VMOVDQA64 Z0, Z2
	VPERMI2B  Z17, Z16, Z2
	VPERMI2B  Z19, Z18, Z0
	VMOVDQA64 Z1, Z4
	VPERMI2B  Z17, Z16, Z4
	VPERMI2B  Z19, Z18, Z1
	VPSUBB    Z2, Z22, K1, Z2
	VPSUBB    Z0, Z22, K1, Z0

	// Z5, Z6 = x, y of the sum; Z2, Z3 = s, in words: bytes 0-7 of each
	// lane in the first, 8-15 in the second, the order VPACK*WB undoes.
	VPADDB     Z4, Z2, Z5
	VPSUBB     Z4, Z2, K2, Z5
	VPADDB     Z1, Z0, Z6
	VPSUBB     Z1, Z0, K2, Z6
	VPUNPCKLBW Z6, Z5, Z2
	VPUNPCKHBW Z6, Z5, Z3
	VPMADDUBSW Z2, Z23, Z2
	VPMADDUBSW Z3, Z23, Z3

	// Z7 = the sign of s, in byte lanes; Z2, Z3 = 0xE000 + p.
	VPACKSSWB Z3, Z2, Z7
	VPABSW    Z2, Z2
	VPABSW    Z3, Z3
	VPADDUSW  Z24, Z2, Z2
	VPADDUSW  Z24, Z3, Z3

	// Z4, Z5 = k; Z2, Z3 = V.
	VPSRLW     $6, Z2, Z4
	VPSRLW     $6, Z3, Z5
	VPERMI2B.Z Z21, Z20, K3, Z4
	VPERMI2B.Z Z21, Z20, K3, Z5
	VPSRLVW    Z4, Z2, Z2
	VPSRLVW    Z5, Z3, Z3
	VPSLLW     $4, Z4, Z4
	VPSLLW     $4, Z5, Z5
	VPTERNLOGD $0xE4, Z25, Z4, Z2
	VPTERNLOGD $0xE4, Z25, Z5, Z3

	VPACKUSWB  Z3, Z2, Z2
	VPSUBB     Z2, Z26, Z2
	VPTERNLOGD $0x78, Z27, Z7, Z2
	VMOVDQU64  Z2, (DI)

	ADDQ $64, DI
	ADDQ $64, SI
	DECQ CX
	JNZ  zloop
	VZEROUPPER

zdone:
	RET
