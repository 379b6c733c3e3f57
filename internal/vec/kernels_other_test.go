//go:build !amd64

package vec

// acceleratedKernels reports that no assembly kernels exist off amd64.
func acceleratedKernels() (dotK, l2K func(a, b []float32) float32, ok bool) {
	return nil, nil, false
}
