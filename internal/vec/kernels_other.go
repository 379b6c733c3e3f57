//go:build !amd64

package vec

// Off amd64 the unrolled Go loops are the only kernels.

func dot(a, b []float32) float32 { return dotGeneric(a, b) }

func l2(a, b []float32) float32 { return l2Generic(a, b) }

// hasL2Strip is false: there is no tiled kernel off amd64.
const hasL2Strip = false

func l2Strip(x, c []float32, dim, ncols int, xn, cn, out []float32, ostride int) {
	panic("vec: no tiled kernel on this architecture")
}
