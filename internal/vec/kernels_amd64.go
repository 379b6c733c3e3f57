package vec

// hasAVX2FMA reports whether the CPU has AVX2 and FMA and the OS saves the
// YMM registers across context switches, so the assembly kernels may run.
var hasAVX2FMA = detectAVX2FMA()

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
