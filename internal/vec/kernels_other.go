//go:build !amd64

package vec

// Off amd64 the unrolled Go loops are the only kernels.

func dot(a, b []float32) float32 { return dotGeneric(a, b) }

func l2(a, b []float32) float32 { return l2Generic(a, b) }
