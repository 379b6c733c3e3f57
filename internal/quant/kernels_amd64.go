package quant

import "micronn/internal/vec"

// hasSQ8Kernel reports whether the CPU can run sq8L2x4AVX2. It shares
// internal/vec's feature check: the kernel needs AVX2 only, and vec's
// check asks for AVX2, FMA and the OS's YMM support.
var hasSQ8Kernel = vec.HasAVX2FMA()

// sq8L2x4AVX2 is the assembly SQ8 L2 kernel behind sq8L2Rows.
//
//go:noescape
func sq8L2x4AVX2(codes []byte, dim, rows int, lin, quad []float32, constant float32, out []float32)

// sq8L2Rows writes constant + polyAcc(row i) into out[i] for the first
// rows of codes, four rows per pass, and returns how many it wrote: n
// rounded down to a multiple of 4 when the CPU has AVX2 and dim is a
// positive multiple of 8, and 0 otherwise. Every value is polyAcc's bit
// for bit, so the caller scores the rows left over with polyAcc.
func sq8L2Rows(codes []byte, dim, n int, lin, quad []float32, constant float32, out []float32) int {
	rows := n &^ 3
	if !hasSQ8Kernel || dim <= 0 || dim%8 != 0 || rows == 0 {
		return 0
	}
	sq8L2x4AVX2(codes[:rows*dim], dim, rows, lin[:dim], quad[:dim], constant, out[:rows])
	return rows
}
