package vec

// acceleratedKernels returns the assembly kernels when this CPU can run them.
func acceleratedKernels() (dotK, l2K func(a, b []float32) float32, ok bool) {
	return dotAVX2, l2AVX2, hasAVX2FMA
}
