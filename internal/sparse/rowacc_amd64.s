//go:build amd64 && !race

#include "go_asm.h"
#include "textflag.h"

// The row primitives of rowacc.go in SSE2: two lanes per register, the
// entry's value broadcast with MOVSD+UNPCKLPD, one MULPD then one ADDPD
// per lane pair — the Go forms' IEEE sequence, so the same bits (up to
// which payload a NaN of two NaNs keeps, which the Go compiler's operand
// order does not fix either). Nothing beyond SSE2, so there is no CPU
// probe.
//
// Registers: SI and DI the row's first column and value, BX its length,
// CX the entry index k within it, R9 x, DX the last in-range window start
// len(x)-lanes, R10 stride (4-lane), R8 lo and R11 hi (8-lane), X0-X1 and
// X2-X3 their sums. Nothing is read before it is checked: the row (i+1
// inside RowPtr, then RowPtr[i] <= RowPtr[i+1] <= len(ColIdx), len(Val),
// as unsigned numbers, so a negative one fails too) or -2 is returned;
// then each entry's window start against DX, unsigned again (a negative
// column), or its k is returned. The Go wrapper panics on both. Success
// stores the sums and returns -1.

#define ENTER(A, I, XBASE, XLEN) \
	MOVQ lo+0(FP), R8; \
	MOVQ A, AX; \
	MOVQ I, CX; \
	MOVQ XBASE, R9; \
	MOVQ XLEN, DX; \
	MOVQ CSR_RowPtr+0(AX), SI; \
	MOVQ CSR_RowPtr+8(AX), BX; \
	LEAQ 1(CX), DI; \
	CMPQ CX, BX; \
	JAE badrow; \
	CMPQ DI, BX; \
	JAE badrow; \
	MOVQ (SI)(CX*8), DI; \
	MOVQ 8(SI)(CX*8), BX; \
	CMPQ DI, BX; \
	JHI badrow; \
	CMPQ BX, CSR_ColIdx+8(AX); \
	JHI badrow; \
	CMPQ BX, CSR_Val+8(AX); \
	JHI badrow; \
	SUBQ DI, BX; \
	JEQ done; \
	MOVQ CSR_ColIdx+0(AX), SI; \
	MOVQ CSR_Val+0(AX), AX; \
	LEAQ (SI)(DI*4), SI; \
	LEAQ (AX)(DI*8), DI; \
	MOVUPD (R8), X0; \
	MOVUPD 16(R8), X1

// LIMIT follows the instruction that sets CX to the first entry visited,
// so that a block shorter than one window fails on that entry.
#define LIMIT(LANES) \
	SUBQ $LANES, DX; \
	JLT bad

#define LEAVE(RESULT) \
done: \
	MOVQ $-1, RESULT; \
	RET; \
bad: \
	MOVQ CX, RESULT; \
	RET; \
badrow: \
	MOVQ $-2, RESULT; \
	RET

#define ENTRY8 \
	MOVLQSX (SI)(CX*4), AX; \
	SHLQ $3, AX; \
	CMPQ AX, DX; \
	JHI bad; \
	MOVSD (DI)(CX*8), X4; \
	UNPCKLPD X4, X4; \
	MOVUPD (R9)(AX*8), X5; \
	MOVUPD 16(R9)(AX*8), X6; \
	MOVUPD 32(R9)(AX*8), X7; \
	MOVUPD 48(R9)(AX*8), X8; \
	MULPD X4, X5; \
	MULPD X4, X6; \
	MULPD X4, X7; \
	MULPD X4, X8; \
	ADDPD X5, X0; \
	ADDPD X6, X1; \
	ADDPD X7, X2; \
	ADDPD X8, X3

#define ENTRY4 \
	MOVLQSX (SI)(CX*4), AX; \
	IMULQ R10, AX; \
	CMPQ AX, DX; \
	JHI bad; \
	MOVSD (DI)(CX*8), X4; \
	UNPCKLPD X4, X4; \
	MOVUPD (R9)(AX*8), X5; \
	MOVUPD 16(R9)(AX*8), X6; \
	MULPD X4, X5; \
	MULPD X4, X6; \
	ADDPD X5, X0; \
	ADDPD X6, X1

// func rowAcc8AscAsm(lo, hi *[4]float64, a *CSR, i int, x []float64) int
TEXT ·rowAcc8AscAsm(SB), NOSPLIT, $0-64
	ENTER(a+16(FP), i+24(FP), x_base+32(FP), x_len+40(FP))
	MOVQ   hi+8(FP), R11
	MOVUPD (R11), X2
	MOVUPD 16(R11), X3
	XORQ   CX, CX
	LIMIT(8)

loop:
	ENTRY8
	INCQ CX
	CMPQ CX, BX
	JLT  loop
	MOVUPD X0, (R8)
	MOVUPD X1, 16(R8)
	MOVUPD X2, (R11)
	MOVUPD X3, 16(R11)
	LEAVE(ret+56(FP))

// func rowAcc8DescAsm(lo, hi *[4]float64, a *CSR, i int, x []float64) int
TEXT ·rowAcc8DescAsm(SB), NOSPLIT, $0-64
	ENTER(a+16(FP), i+24(FP), x_base+32(FP), x_len+40(FP))
	MOVQ   hi+8(FP), R11
	MOVUPD (R11), X2
	MOVUPD 16(R11), X3
	LEAQ   -1(BX), CX
	LIMIT(8)

loop:
	ENTRY8
	DECQ CX
	JGE  loop
	MOVUPD X0, (R8)
	MOVUPD X1, 16(R8)
	MOVUPD X2, (R11)
	MOVUPD X3, 16(R11)
	LEAVE(ret+56(FP))

// func rowAcc4AscAsm(lo *[4]float64, a *CSR, i int, x []float64, stride int) int
TEXT ·rowAcc4AscAsm(SB), NOSPLIT, $0-64
	ENTER(a+8(FP), i+16(FP), x_base+24(FP), x_len+32(FP))
	MOVQ stride+48(FP), R10
	XORQ CX, CX
	LIMIT(4)

loop:
	ENTRY4
	INCQ CX
	CMPQ CX, BX
	JLT  loop
	MOVUPD X0, (R8)
	MOVUPD X1, 16(R8)
	LEAVE(ret+56(FP))

// func rowAcc4DescAsm(lo *[4]float64, a *CSR, i int, x []float64, stride int) int
TEXT ·rowAcc4DescAsm(SB), NOSPLIT, $0-64
	ENTER(a+8(FP), i+16(FP), x_base+24(FP), x_len+32(FP))
	MOVQ stride+48(FP), R10
	LEAQ -1(BX), CX
	LIMIT(4)

loop:
	ENTRY4
	DECQ CX
	JGE  loop
	MOVUPD X0, (R8)
	MOVUPD X1, 16(R8)
	LEAVE(ret+56(FP))
