#include "textflag.h"

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func aesMAC56(rk *[176]byte, a, b, c uint64) uint64
//
// Two-block AES-128 CBC-MAC of BE(a)‖BE(b)‖BE(c)‖0 under the round
// keys at rk; returns the first 8 bytes of the tag as a big-endian
// word. Round keys sit in X2..X12, the chaining block in X0.
TEXT ·aesMAC56(SB), NOSPLIT, $0-40
	MOVQ rk+0(FP), AX
	MOVQ a+8(FP), BX
	MOVQ b+16(FP), CX
	MOVQ c+24(FP), DX
	BSWAPQ BX
	BSWAPQ CX
	BSWAPQ DX
	MOVQ BX, X0
	PINSRQ $1, CX, X0
	MOVQ DX, X1
	MOVOU 0(AX), X2
	MOVOU 16(AX), X3
	MOVOU 32(AX), X4
	MOVOU 48(AX), X5
	MOVOU 64(AX), X6
	MOVOU 80(AX), X7
	MOVOU 96(AX), X8
	MOVOU 112(AX), X9
	MOVOU 128(AX), X10
	MOVOU 144(AX), X11
	MOVOU 160(AX), X12

	// Block 1: BE(a)‖BE(b).
	PXOR X2, X0
	AESENC X3, X0
	AESENC X4, X0
	AESENC X5, X0
	AESENC X6, X0
	AESENC X7, X0
	AESENC X8, X0
	AESENC X9, X0
	AESENC X10, X0
	AESENC X11, X0
	AESENCLAST X12, X0

	// Block 2: the chaining value XOR BE(c)‖0.
	PXOR X1, X0
	PXOR X2, X0
	AESENC X3, X0
	AESENC X4, X0
	AESENC X5, X0
	AESENC X6, X0
	AESENC X7, X0
	AESENC X8, X0
	AESENC X9, X0
	AESENC X10, X0
	AESENC X11, X0
	AESENCLAST X12, X0

	MOVQ X0, AX
	BSWAPQ AX
	MOVQ AX, ret+32(FP)
	RET

// SHA-1's initial state: ABCD with A in the top lane, then E in the
// top lane of the second vector.
DATA sha1IV<>+0(SB)/8, $0x98badcfe10325476
DATA sha1IV<>+8(SB)/8, $0x67452301efcdab89
DATA sha1IV<>+16(SB)/8, $0
DATA sha1IV<>+24(SB)/8, $0xc3d2e1f000000000
GLOBL sha1IV<>(SB), RODATA|NOPTR, $32

// Register roles for sha56NI: X0 = ABCD, X1/X2 = E (alternating by
// group), X3..X6 = message quads M0..M3 (quad i is schedule words
// 4i..4i+3, word 4i in the top lane; quad i lives in M(i mod 4)), X7 =
// the IV's ABCD.
#define ABCD X0
#define E0 X1
#define E1 X2
#define M0 X3
#define M1 X4
#define M2 X5
#define M3 X6

// RNDS runs one four-round group with function f: it feeds E from
// message quad m into ein, saves ABCD in eout (the next group's E
// source) and rounds.
#define RNDS(f, m, ein, eout) \
	SHA1NEXTE m, ein; \
	MOVO ABCD, eout; \
	SHA1RNDS4 $f, ein, ABCD

// func sha56NI(pre, lo uint64) uint64
//
// SHA-1 of the one padded block whose first quad is pre‖lo (words
// W0..W3), whose last word W15 is the bit length 104, and whose other
// words are zero; returns the final A<<32 | B. Group g (rounds
// 4g..4g+3) rounds with function g/5 on quad g. Quad g+3 of the
// schedule starts by SHA1MSG1 in group g = 1..16, takes W[t-8] by PXOR
// in g+1 = 2..17 and is finished by SHA1MSG2 in g+2 = 3..18.
TEXT ·sha56NI(SB), NOSPLIT, $0-24
	MOVQ pre+0(FP), AX
	MOVQ lo+8(FP), BX
	MOVQ BX, M0
	PINSRQ $1, AX, M0
	PXOR M1, M1
	PXOR M2, M2
	MOVQ $104, CX
	MOVQ CX, M3
	MOVOU sha1IV<>+0(SB), ABCD
	MOVOU sha1IV<>+16(SB), E0
	MOVO ABCD, X7

	PADDD M0, E0; MOVO ABCD, E1; SHA1RNDS4 $0, E0, ABCD // g = 0
	RNDS(0, M1, E1, E0); SHA1MSG1 M1, M0 // g = 1
	RNDS(0, M2, E0, E1); SHA1MSG1 M2, M1; PXOR M2, M0 // g = 2
	RNDS(0, M3, E1, E0); SHA1MSG2 M3, M0; SHA1MSG1 M3, M2; PXOR M3, M1 // g = 3
	RNDS(0, M0, E0, E1); SHA1MSG2 M0, M1; SHA1MSG1 M0, M3; PXOR M0, M2 // g = 4
	RNDS(1, M1, E1, E0); SHA1MSG2 M1, M2; SHA1MSG1 M1, M0; PXOR M1, M3 // g = 5
	RNDS(1, M2, E0, E1); SHA1MSG2 M2, M3; SHA1MSG1 M2, M1; PXOR M2, M0 // g = 6
	RNDS(1, M3, E1, E0); SHA1MSG2 M3, M0; SHA1MSG1 M3, M2; PXOR M3, M1 // g = 7
	RNDS(1, M0, E0, E1); SHA1MSG2 M0, M1; SHA1MSG1 M0, M3; PXOR M0, M2 // g = 8
	RNDS(1, M1, E1, E0); SHA1MSG2 M1, M2; SHA1MSG1 M1, M0; PXOR M1, M3 // g = 9
	RNDS(2, M2, E0, E1); SHA1MSG2 M2, M3; SHA1MSG1 M2, M1; PXOR M2, M0 // g = 10
	RNDS(2, M3, E1, E0); SHA1MSG2 M3, M0; SHA1MSG1 M3, M2; PXOR M3, M1 // g = 11
	RNDS(2, M0, E0, E1); SHA1MSG2 M0, M1; SHA1MSG1 M0, M3; PXOR M0, M2 // g = 12
	RNDS(2, M1, E1, E0); SHA1MSG2 M1, M2; SHA1MSG1 M1, M0; PXOR M1, M3 // g = 13
	RNDS(2, M2, E0, E1); SHA1MSG2 M2, M3; SHA1MSG1 M2, M1; PXOR M2, M0 // g = 14
	RNDS(3, M3, E1, E0); SHA1MSG2 M3, M0; SHA1MSG1 M3, M2; PXOR M3, M1 // g = 15
	RNDS(3, M0, E0, E1); SHA1MSG2 M0, M1; SHA1MSG1 M0, M3; PXOR M0, M2 // g = 16
	RNDS(3, M1, E1, E0); SHA1MSG2 M1, M2; PXOR M1, M3 // g = 17
	RNDS(3, M2, E0, E1); SHA1MSG2 M2, M3 // g = 18
	RNDS(3, M3, E1, E0) // g = 19

	// Only A and B are read, so E's feed-forward is skipped.
	PADDD X7, ABCD
	PEXTRQ $1, ABCD, AX
	MOVQ AX, ret+16(FP)
	RET
