#include "textflag.h"

// PARTITION8 partitions the eight values in vector V around the broadcast
// pivot Z15: the values < pivot are packed into Z3 and stored whole at the
// low write cursor DI (the slots past the packed ones are free), the others
// are packed into Z4 and stored under a mask just below the high write
// cursor DX, and the low side's lanes are added into the sum Z14. DI moves
// up and DX down by the count on their side; R12 holds 0xff. Clobbers AX,
// BX, K1-K3, Z3, Z4.
#define PARTITION8(V) \
	VPCMPQ      $1, Z15, V, K1; \
	VPCOMPRESSQ V, K1, Z3; \
	KNOTW       K1, K2; \
	VPCOMPRESSQ V, K2, Z4; \
	VPADDQ      V, Z14, K1, Z14; \
	KMOVW       K1, AX; \
	POPCNTL     AX, AX; \
	SHRXL       AX, R12, BX; \
	KMOVW       BX, K3; \
	VMOVDQU64   Z3, (DI); \
	LEAQ        (DI)(AX*8), DI; \
	LEAQ        -64(DX)(AX*8), DX; \
	VMOVDQU64   Z4, K3, (DX)

// func partitionVec(v *int64, n int, pivot int64) (lows int, sumLow int64)
//
// Partitions v[0:n] in place, n a multiple of 8 and at least 16: the values
// < pivot end in v[0:lows], the others in v[lows:n]; sumLow is the wrapping
// sum of the low side. The first and the last vector are held in registers,
// which leaves eight free slots at each end; every later vector is read
// from the side with fewer free slots, so both sides have room for a whole
// vector when it is written back and no write reaches an unread value. The
// side is chosen by a branch: with conditional moves instead, each load's
// address waited for the previous vector's compare, popcount and cursor
// update (~1.8 ns a value at a median pivot against ~0.4 with the branch,
// whose mispredictions cost a flush but no chain).
TEXT ·partitionVec(SB), NOSPLIT, $0-40
	MOVQ v+0(FP), DI             // low write cursor
	MOVQ n+8(FP), CX
	LEAQ (DI)(CX*8), DX          // high write cursor (exclusive)
	VPBROADCASTQ pivot+16(FP), Z15
	VPXORQ Z14, Z14, Z14
	VMOVDQU64 (DI), Z1           // held first vector
	VMOVDQU64 -64(DX), Z2        // held last vector
	LEAQ 64(DI), R8              // low read cursor
	LEAQ -64(DX), R9             // high read cursor (exclusive)
	MOVL $0xff, R12

loop:
	CMPQ R8, R9
	JEQ  held
	MOVQ R8, R10
	SUBQ DI, R10                 // free slots below: R8 - DI
	MOVQ DX, R11
	SUBQ R9, R11                 // free slots above: DX - R9
	CMPQ R10, R11
	JGT  above
	VMOVDQU64 (R8), Z0
	ADDQ $64, R8
	PARTITION8(Z0)
	JMP  loop

above:
	SUBQ $64, R9
	VMOVDQU64 (R9), Z0
	PARTITION8(Z0)
	JMP  loop

held:
	PARTITION8(Z1)
	PARTITION8(Z2)
	MOVQ v+0(FP), SI
	SUBQ SI, DI
	SHRQ $3, DI
	MOVQ DI, lows+24(FP)
	VEXTRACTI64X4 $1, Z14, Y0
	VPADDQ Y0, Y14, Y0
	VEXTRACTI128 $1, Y0, X1
	VPADDQ X1, X0, X0
	VPSHUFD $0x4e, X0, X1
	VPADDQ X1, X0, X0
	VMOVQ X0, sumLow+32(FP)
	VZEROUPPER
	RET

// PARTITION16 is PARTITION8 over sixteen uint32 offsets (VPCMPUD,
// VPCOMPRESSD, 4-byte cursor steps; R12 holds 0xffff). The low offsets
// are packed into Z3 with zeroes above them, so all sixteen lanes of Z3,
// zero-extended to 64 bits (VPMOVZXDQ), add into the sums Z14 (lanes 0-7)
// and Z13 (lanes 8-15). Clobbers AX, BX, K1-K3, Z3-Z6.
#define PARTITION16(V) \
	VPCMPUD       $1, Z15, V, K1; \
	VPCOMPRESSD.Z V, K1, Z3; \
	KNOTW         K1, K2; \
	VPCOMPRESSD   V, K2, Z4; \
	VPMOVZXDQ     Y3, Z5; \
	VEXTRACTI64X4 $1, Z3, Y6; \
	VPMOVZXDQ     Y6, Z6; \
	VPADDQ        Z5, Z14, Z14; \
	VPADDQ        Z6, Z13, Z13; \
	KMOVW         K1, AX; \
	POPCNTL       AX, AX; \
	SHRXL         AX, R12, BX; \
	KMOVW         BX, K3; \
	VMOVDQU32     Z3, (DI); \
	LEAQ          (DI)(AX*4), DI; \
	LEAQ          -64(DX)(AX*4), DX; \
	VMOVDQU32     Z4, K3, (DX)

// func partitionVec32(v *uint32, n int, pivot uint32) (lows int, sumLow uint64)
//
// partitionVec over uint32 offsets, n a multiple of 16 and at least 32:
// the same held first and last vector and the same choice of the side with
// fewer free slots, sixteen offsets a vector. The low side's sum is kept
// in 64-bit lanes, so it cannot wrap.
TEXT ·partitionVec32(SB), NOSPLIT, $0-40
	MOVQ v+0(FP), DI             // low write cursor
	MOVQ n+8(FP), CX
	LEAQ (DI)(CX*4), DX          // high write cursor (exclusive)
	MOVL pivot+16(FP), AX
	VPBROADCASTD AX, Z15
	VPXORQ Z14, Z14, Z14
	VPXORQ Z13, Z13, Z13
	VMOVDQU32 (DI), Z1           // held first vector
	VMOVDQU32 -64(DX), Z2        // held last vector
	LEAQ 64(DI), R8              // low read cursor
	LEAQ -64(DX), R9             // high read cursor (exclusive)
	MOVL $0xffff, R12

loop32:
	CMPQ R8, R9
	JEQ  held32
	MOVQ R8, R10
	SUBQ DI, R10                 // free bytes below: R8 - DI
	MOVQ DX, R11
	SUBQ R9, R11                 // free bytes above: DX - R9
	CMPQ R10, R11
	JGT  above32
	VMOVDQU32 (R8), Z0
	ADDQ $64, R8
	PARTITION16(Z0)
	JMP  loop32

above32:
	SUBQ $64, R9
	VMOVDQU32 (R9), Z0
	PARTITION16(Z0)
	JMP  loop32

held32:
	PARTITION16(Z1)
	PARTITION16(Z2)
	MOVQ v+0(FP), SI
	SUBQ SI, DI
	SHRQ $2, DI
	MOVQ DI, lows+24(FP)
	VPADDQ Z13, Z14, Z14
	VEXTRACTI64X4 $1, Z14, Y0
	VPADDQ Y0, Y14, Y0
	VEXTRACTI128 $1, Y0, X1
	VPADDQ X1, X0, X0
	VPSHUFD $0x4e, X0, X1
	VPADDQ X1, X0, X0
	VMOVQ X0, sumLow+32(FP)
	VZEROUPPER
	RET

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

// func xgetbv() (eax uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-4
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	RET
