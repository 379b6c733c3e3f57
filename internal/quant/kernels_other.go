//go:build !amd64

package quant

// hasSQ8Kernel is false: off amd64 polyAcc scores every SQ8 L2 row.
const hasSQ8Kernel = false

// sq8L2Rows writes no rows: there is no assembly kernel off amd64.
func sq8L2Rows(codes []byte, dim, n int, lin, quad []float32, constant float32, out []float32) int {
	return 0
}
