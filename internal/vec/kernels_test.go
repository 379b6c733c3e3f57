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

// l2ExpansionRef returns the norm expansion ||x||^2 + ||c||^2 - 2 x.c in
// float64 and the sum of the absolute values of its finite terms: the
// scale the float32 expansion's rounding error grows with. Infinities and
// NaNs reach the sum as they reach the float32 one, whatever the order of
// addition, as long as no finite partial sum overflows float32.
func l2ExpansionRef(x, c []float32) (sum, mag float64) {
	var xx, cc, xc float64
	for i := range x {
		a, b := float64(x[i]), float64(c[i])
		xx += a * a
		cc += b * b
		xc += a * b
		for _, t := range [3]float64{a * a, b * b, 2 * a * b} {
			if !math.IsInf(t, 0) && !math.IsNaN(t) {
				mag += math.Abs(t)
			}
		}
	}
	return xx + cc - 2*xc, mag
}

// checkManyToMany compares DistancesManyToMany's L2 matrix for x against c
// with the pairwise generic expansion and the float64 reference, under
// kernelsAgree's tolerance, returning the first disagreement. The norms
// are passed in, so a single row takes the expansion too.
func checkManyToMany(x, c *Matrix) error {
	out := make([]float32, x.Rows*c.Rows)
	xn, cn := x.Norms(nil), c.Norms(nil)
	DistancesManyToMany(L2, x, c, xn, cn, out)
	for r := 0; r < x.Rows; r++ {
		for j := 0; j < c.Rows; j++ {
			want := xn[r] + cn[j] - 2*dotGeneric(x.Row(r), c.Row(j))
			if want < 0 {
				want = 0
			}
			got := out[r*c.Rows+j]
			ref, mag := l2ExpansionRef(x.Row(r), c.Row(j))
			if got < 0 || !kernelsAgree(got, want, ref, mag, 3*x.Dim) {
				return fmt.Errorf("%dx%d dim %d [%d,%d]: tiled %v, pairwise generic %v, float64 reference %v (term magnitude %v)",
					x.Rows, c.Rows, x.Dim, r, j, got, want, ref, mag)
			}
		}
	}
	return nil
}

// subMatrix returns a rows x dim matrix over buf starting off elements in,
// so its rows start off any 32-byte boundary when off is odd.
func subMatrix(buf []float32, off, rows, dim int) *Matrix {
	return &Matrix{Data: buf[off : off+rows*dim], Rows: rows, Dim: dim}
}

func TestDistancesManyToManyMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	dims := []int{128}
	for d := 1; d <= 37; d++ {
		dims = append(dims, d)
	}
	for _, dim := range dims {
		xbuf := make([]float32, 7*dim+8)
		cbuf := make([]float32, 9*dim+8)
		// Every tile remainder: rows 1-7 leave 0, 1 or 2 rows after the
		// 3-row tiles, columns 1-9 leave 0-3 after the 4-column ones.
		for rows := 1; rows <= 7; rows++ {
			for cols := 1; cols <= 9; cols++ {
				for _, off := range []int{0, 1, 3} {
					for i := range xbuf {
						xbuf[i] = float32(rng.NormFloat64())
					}
					for i := range cbuf {
						cbuf[i] = float32(rng.NormFloat64())
					}
					x, c := subMatrix(xbuf, off, rows, dim), subMatrix(cbuf, off, cols, dim)
					if err := checkManyToMany(x, c); err != nil {
						t.Fatalf("offset %d: %v", off, err)
					}
					// Every element must be read: a spike anywhere in
					// either matrix moves its row's distances.
					m := x
					if rng.Intn(2) == 0 {
						m = c
					}
					p := rng.Intn(len(m.Data))
					m.Data[p] = 1e4
					if err := checkManyToMany(x, c); err != nil {
						t.Fatalf("offset %d, spike at element %d: %v", off, p, err)
					}
				}
			}
		}
	}
}

// TestDistancesManyToManyClampsCancellation scores rows against copies of
// themselves, nudged by less than their magnitude's rounding error, where
// the norm expansion cancels to values either side of 0: none may be
// negative.
func TestDistancesManyToManyClampsCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for _, dim := range []int{8, 13, 128} {
		x, c := NewMatrix(6, dim), NewMatrix(8, dim)
		for i := range x.Data {
			x.Data[i] = 100 + float32(rng.NormFloat64())
		}
		for j := 0; j < c.Rows; j++ {
			for i, v := range x.Row(j % x.Rows) {
				c.Row(j)[i] = v + float32(rng.NormFloat64()*1e-6)
			}
		}
		if err := checkManyToMany(x, c); err != nil {
			t.Fatal(err)
		}
	}
}

func TestDistancesManyToManySpecialValues(t *testing.T) {
	inf, nan := float32(math.Inf(1)), float32(math.NaN())
	rng := rand.New(rand.NewSource(17))
	for _, dim := range []int{3, 8, 13, 16, 128} {
		for _, special := range [][]float32{{inf}, {-inf}, {nan}, {inf, -inf}, {inf, inf}, {nan, inf}} {
			for trial := 0; trial < 8; trial++ {
				rows, cols := 1+rng.Intn(7), 1+rng.Intn(9)
				x, c := NewMatrix(rows, dim), NewMatrix(cols, dim)
				for _, m := range []*Matrix{x, c} {
					for i := range m.Data {
						m.Data[i] = float32(rng.NormFloat64())
					}
				}
				for _, v := range special {
					m := x
					if rng.Intn(2) == 0 {
						m = c
					}
					m.Data[rng.Intn(len(m.Data))] = v
				}
				if trial == 0 {
					c.Data[rng.Intn(len(c.Data))] = 0 // Inf*0 must give NaN on both paths
				}
				if err := checkManyToMany(x, c); err != nil {
					t.Fatalf("specials %v: %v", special, err)
				}
			}
		}
	}
}

func FuzzKernels(f *testing.F) {
	f.Add([]byte{}, uint8(0))
	f.Add(ToBlob(nil, []float32{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}), uint8(1))
	f.Add(ToBlob(nil, []float32{float32(math.Inf(1)), 0, 1, 2}), uint8(3))
	f.Fuzz(func(t *testing.T, data []byte, off uint8) {
		v := AppendFromBlob(nil, data)
		o := int(off) % 4
		if len(v) < o {
			return
		}
		v = v[o:]
		// Sums that can overflow float32 in some order of addition are
		// order-dependent by nature; only inputs whose every partial sum
		// stays finite are compared, each check under its own bound.
		//
		// The tile: 1-7 rows of 8 elements (off picks how many) against
		// up to 9 rows made of the rest of the input.
		const dim = 8
		if rows := min(1+int(off/4)%7, len(v)/dim-1); rows >= 1 {
			if _, mag := l2ExpansionRef(v, v); mag <= math.MaxFloat32/16 {
				cols := min((len(v)-rows*dim)/dim, 9)
				x, c := subMatrix(v, 0, rows, dim), subMatrix(v, rows*dim, cols, dim)
				if err := checkManyToMany(x, c); err != nil {
					t.Fatal(err)
				}
			}
		}
		dotK, l2K, ok := acceleratedKernels()
		if !ok {
			return // the generic kernels are the only pairwise path
		}
		n := len(v) / 2
		a, b := v[:n], v[n:2*n]
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

// BenchmarkDistancesManyToMany times the L2 many-to-many kernel at the
// index build's shape (a 1024-row mini-batch against 320 centroids, with
// cached norms, as k-means assigns) and at BatchSearch's (4 queries sharing
// a 256-row partition, norms computed per call, as a scan batch is
// scored). ns/pair is the time per distance.
func BenchmarkDistancesManyToMany(b *testing.B) {
	for _, sh := range []struct {
		name        string
		rows, cols  int
		precomputed bool
	}{
		{"build-1024x320x128", 1024, 320, true},
		{"batch-4x256x128", 4, 256, false},
	} {
		b.Run(sh.name, func(b *testing.B) {
			const dim = 128
			rng := rand.New(rand.NewSource(18))
			x, c := NewMatrix(sh.rows, dim), NewMatrix(sh.cols, dim)
			for _, m := range []*Matrix{x, c} {
				for i := range m.Data {
					m.Data[i] = float32(rng.NormFloat64())
				}
			}
			var xn, cn []float32
			if sh.precomputed {
				xn, cn = x.Norms(nil), c.Norms(nil)
			}
			out := make([]float32, sh.rows*sh.cols)
			for b.Loop() {
				DistancesManyToMany(L2, x, c, xn, cn, out)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*sh.rows*sh.cols), "ns/pair")
		})
	}
}
