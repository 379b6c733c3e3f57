package vec

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// kernelTol is the relative tolerance within which the accelerated and
// generic kernels must agree. It is relative to the sum of the absolute
// values of the kernel's terms, the scale its rounding error grows with;
// for L2 that sum is the result itself.
const kernelTol = 1e-5

// kernelRef returns the kernel's sum computed in float64 and the sum of
// the absolute values of its terms over the finite ones.
func kernelRef(isL2 bool, a, b []float32) (sum, mag float64) {
	for i := range a {
		var t float64
		if isL2 {
			d := float64(a[i]) - float64(b[i])
			t = d * d
		} else {
			t = float64(a[i]) * float64(b[i])
		}
		sum += t
		if !math.IsInf(t, 0) && !math.IsNaN(t) {
			mag += math.Abs(t)
		}
	}
	return sum, mag
}

// kernelsAgree reports whether two kernel results for the same n-element
// input agree with each other and with the float64 reference: both NaN
// where the reference is NaN, both the reference's infinity, or within
// kernelTol of mag apart, plus an absolute allowance for products that
// underflow below the smallest normal float32.
func kernelsAgree(got, want float32, ref, mag float64, n int) bool {
	switch {
	case math.IsNaN(ref):
		return math.IsNaN(float64(got)) && math.IsNaN(float64(want))
	case math.IsInf(ref, 0):
		return float64(got) == ref && float64(want) == ref
	}
	tol := kernelTol*mag + float64(n+1)*0x1p-126
	return math.Abs(float64(got)-float64(want)) <= tol &&
		math.Abs(float64(got)-ref) <= tol && math.Abs(float64(want)-ref) <= tol
}

// checkKernels compares the accelerated kernels with the generic ones on
// one input pair, returning a description of the first disagreement.
func checkKernels(dotK, l2K func(a, b []float32) float32, a, b []float32) error {
	for _, k := range []struct {
		name       string
		isL2       bool
		acc, plain func(a, b []float32) float32
	}{
		{"dot", false, dotK, dotGeneric},
		{"l2", true, l2K, l2Generic},
	} {
		got, want := k.acc(a, b), k.plain(a, b)
		ref, mag := kernelRef(k.isL2, a, b)
		if !kernelsAgree(got, want, ref, mag, len(a)) {
			return fmt.Errorf("%s n=%d: accelerated %v, generic %v, float64 reference %v (term magnitude %v)",
				k.name, len(a), got, want, ref, mag)
		}
	}
	return nil
}

func TestKernelsMatchGeneric(t *testing.T) {
	dotK, l2K, ok := acceleratedKernels()
	if !ok {
		t.Skip("no accelerated kernels on this CPU; the generic kernels are the only path")
	}
	rng := rand.New(rand.NewSource(11))
	const maxLen = 300
	// Backing arrays with room for odd element offsets, so sub-slices
	// start off any 32-byte boundary.
	abuf := make([]float32, maxLen+8)
	bbuf := make([]float32, maxLen+8)
	for n := 0; n <= maxLen; n++ {
		for _, off := range []int{0, 1, 3, 5} {
			for i := range abuf {
				abuf[i] = float32(rng.NormFloat64())
				bbuf[i] = float32(rng.NormFloat64())
			}
			a, b := abuf[off:off+n], bbuf[off:off+n]
			if err := checkKernels(dotK, l2K, a, b); err != nil {
				t.Fatalf("offset %d: %v", off, err)
			}
			// Every position must be read: a large value anywhere,
			// including the scalar tail and the last 8-lane block, moves
			// the result.
			if n > 0 {
				p := rng.Intn(n)
				a[p] = 1e4
				if err := checkKernels(dotK, l2K, a, b); err != nil {
					t.Fatalf("offset %d, spike at %d: %v", off, p, err)
				}
			}
		}
	}
}

func TestKernelsSpecialValues(t *testing.T) {
	dotK, l2K, ok := acceleratedKernels()
	if !ok {
		t.Skip("no accelerated kernels on this CPU; the generic kernels are the only path")
	}
	inf, nan := float32(math.Inf(1)), float32(math.NaN())
	rng := rand.New(rand.NewSource(12))
	for _, n := range []int{1, 7, 8, 9, 31, 32, 33, 40, 63, 64, 65, 128, 131, 300} {
		for _, special := range [][]float32{{inf}, {-inf}, {nan}, {inf, -inf}, {inf, inf}, {nan, inf}} {
			for trial := 0; trial < 8; trial++ {
				a, b := make([]float32, n), make([]float32, n)
				for i := range a {
					a[i] = float32(rng.NormFloat64())
					b[i] = float32(rng.NormFloat64())
				}
				for _, v := range special {
					p := rng.Intn(n)
					if rng.Intn(2) == 0 {
						a[p] = v
					} else {
						b[p] = v
					}
				}
				if trial == 0 {
					b[rng.Intn(n)] = 0 // Inf*0 must give NaN on both paths
				}
				if err := checkKernels(dotK, l2K, a, b); err != nil {
					t.Fatalf("specials %v: %v", special, err)
				}
			}
		}
	}
}

func TestDispatchUsesKernels(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	a, b := make([]float32, 131), make([]float32, 131)
	for i := range a {
		a[i] = rng.Float32()
		b[i] = rng.Float32()
	}
	dotK, l2K, ok := acceleratedKernels()
	if !ok {
		dotK, l2K = dotGeneric, l2Generic
	}
	if got, want := DotProduct(a, b), dotK(a, b); math.Float32bits(got) != math.Float32bits(want) {
		t.Errorf("DotProduct = %v, selected kernel %v", got, want)
	}
	if got, want := L2Squared(a, b), l2K(a, b); math.Float32bits(got) != math.Float32bits(want) {
		t.Errorf("L2Squared = %v, selected kernel %v", got, want)
	}
}

func FuzzKernels(f *testing.F) {
	f.Add([]byte{}, uint8(0))
	f.Add(ToBlob(nil, []float32{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}), uint8(1))
	f.Add(ToBlob(nil, []float32{float32(math.Inf(1)), 0, 1, 2}), uint8(3))
	f.Fuzz(func(t *testing.T, data []byte, off uint8) {
		dotK, l2K, ok := acceleratedKernels()
		if !ok {
			t.Skip("no accelerated kernels on this CPU")
		}
		v := AppendFromBlob(nil, data)
		o := int(off) % 4
		if len(v) < o {
			return
		}
		v = v[o:]
		n := len(v) / 2
		a, b := v[:n], v[n:2*n]
		// Sums that can overflow float32 in some order of addition are
		// order-dependent by nature; only inputs whose every partial sum
		// stays finite are compared.
		for _, isL2 := range []bool{false, true} {
			if _, mag := kernelRef(isL2, a, b); mag > math.MaxFloat32/4 {
				return
			}
		}
		if err := checkKernels(dotK, l2K, a, b); err != nil {
			t.Fatal(err)
		}
	})
}

// decodeRef is the per-element little-endian decode the blob codec must
// match bit for bit.
func decodeRef(blob []byte) []float32 {
	out := make([]float32, len(blob)/4)
	for i := range out {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(blob[i*4:]))
	}
	return out
}

func TestBlobCodecBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	specials := []uint32{
		0x80000000, // -0
		0x7fc00000, // quiet NaN
		0x7fc12345, // quiet NaN with payload
		0x7f800001, // signalling NaN
		0xffa5a5a5, // negative signalling NaN with payload
		0x7f800000, // +Inf
		0xff800000, // -Inf
		0x00000001, // smallest denormal
	}
	for _, n := range []int{0, 1, 3, 8, 31, 128, 257} {
		bits := make([]uint32, n)
		for i := range bits {
			if rng.Intn(3) == 0 {
				bits[i] = specials[rng.Intn(len(specials))]
			} else {
				bits[i] = rng.Uint32()
			}
		}
		// Encode by the per-element reference and check ToBlob matches.
		var want []byte
		v := make([]float32, n)
		for i, x := range bits {
			want = binary.LittleEndian.AppendUint32(want, x)
			v[i] = math.Float32frombits(x)
		}
		prefix := []byte{0xaa, 0xbb}
		if got := ToBlob(append([]byte(nil), prefix...), v); string(got) != string(append(prefix, want...)) {
			t.Fatalf("n=%d: ToBlob bytes differ from the per-element encoding", n)
		}
		// Decode from an odd byte offset with trailing bytes that do not
		// make a whole float32.
		buf := append(append([]byte{0x11}, want...), 0x22, 0x33)
		blob := buf[1:]
		ref := decodeRef(blob)
		sameBits := func(name string, got []float32) {
			t.Helper()
			if len(got) != len(ref) {
				t.Fatalf("n=%d %s: len %d, want %d", n, name, len(got), len(ref))
			}
			for i := range ref {
				if math.Float32bits(got[i]) != math.Float32bits(ref[i]) {
					t.Fatalf("n=%d %s [%d]: bits %#x, want %#x", n, name, i, math.Float32bits(got[i]), math.Float32bits(ref[i]))
				}
			}
		}
		sameBits("FromBlob", FromBlob(make([]float32, n), blob))
		app := AppendFromBlob([]float32{42}, blob)
		if math.Float32bits(app[0]) != math.Float32bits(42) {
			t.Fatalf("n=%d: AppendFromBlob changed the existing prefix", n)
		}
		sameBits("AppendFromBlob", app[1:])
	}
}

func TestFromBlobShortDestinationPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("FromBlob into a too-short destination did not panic")
		}
	}()
	FromBlob(make([]float32, 1, 4), ToBlob(nil, []float32{1, 2}))
}

func BenchmarkKernels(b *testing.B) {
	const rows, dim = 256, 128
	rng := rand.New(rand.NewSource(15))
	m := NewMatrix(rows, dim)
	for i := range m.Data {
		m.Data[i] = rng.Float32()
	}
	q := m.Row(0)
	out := make([]float32, rows)
	blob := ToBlob(nil, m.Data)
	b.Run("DistancesOneToMany-L2", func(b *testing.B) {
		b.SetBytes(int64(rows * dim * 4))
		for b.Loop() {
			DistancesOneToMany(L2, q, m, nil, out)
		}
	})
	b.Run("DistancesOneToMany-Dot", func(b *testing.B) {
		b.SetBytes(int64(rows * dim * 4))
		for b.Loop() {
			DistancesOneToMany(Dot, q, m, nil, out)
		}
	})
	b.Run("FromBlob", func(b *testing.B) {
		b.SetBytes(int64(len(blob)))
		for b.Loop() {
			FromBlob(m.Data, blob)
		}
	})
}
