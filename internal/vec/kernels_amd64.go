package vec

// hasAVX2FMA reports whether the CPU has AVX2 and FMA and the OS saves the
// YMM registers across context switches, so the assembly kernels may run.
var hasAVX2FMA = detectAVX2FMA()

// HasAVX2FMA reports whether this CPU runs AVX2 and FMA code with the YMM
// registers saved by the OS: the feature check other packages' assembly
// kernels share, so the CPU is probed once.
func HasAVX2FMA() bool { return hasAVX2FMA }

func detectAVX2FMA() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	const (
		fmaBit     = 1 << 12 // CPUID.1:ECX
		osxsaveBit = 1 << 27 // CPUID.1:ECX
		avxBit     = 1 << 28 // CPUID.1:ECX
		avx2Bit    = 1 << 5  // CPUID.(7,0):EBX
		ymmState   = 0x6     // XCR0: XMM and YMM state enabled
	)
	_, _, ecx1, _ := cpuid(1, 0)
	if ecx1&(fmaBit|osxsaveBit|avxBit) != fmaBit|osxsaveBit|avxBit {
		return false
	}
	if xgetbv0()&ymmState != ymmState {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&avx2Bit != 0
}

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

func xgetbv0() (eax uint32)

// dotAVX2 and l2AVX2 are the assembly kernels; both require
// len(b) >= len(a) and read len(a) elements of each.
//
//go:noescape
func dotAVX2(a, b []float32) float32

//go:noescape
func l2AVX2(a, b []float32) float32

// l2Strip3x4AVX2 is the assembly tile kernel behind l2Strip.
//
//go:noescape
func l2Strip3x4AVX2(x, c []float32, dim, ncols int, xn, cn, out []float32, ostride int)

// hasL2Strip reports whether l2Strip may be called.
var hasL2Strip = hasAVX2FMA

// l2Strip writes the squared L2 distances from the three dim-element rows
// of x to the ncols rows of c into out[i*ostride+j], by the norm expansion
// over the squared norms xn and cn, clamped at 0. dim is a positive
// multiple of 8 and ncols a positive multiple of 4.
func l2Strip(x, c []float32, dim, ncols int, xn, cn, out []float32, ostride int) {
	_ = out[2*ostride+ncols-1] // the kernel writes three rows of ncols
	l2Strip3x4AVX2(x[:3*dim], c[:ncols*dim], dim, ncols, xn[:3], cn[:ncols], out, ostride)
}

func dot(a, b []float32) float32 {
	if hasAVX2FMA {
		return dotAVX2(a, b)
	}
	return dotGeneric(a, b)
}

func l2(a, b []float32) float32 {
	if hasAVX2FMA {
		return l2AVX2(a, b)
	}
	return l2Generic(a, b)
}
