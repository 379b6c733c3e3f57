package quant

import (
	"bytes"
	"math"
	"testing"

	"micronn/internal/vec"
)

func trainOnKind(kind Type, clip float64, vectors [][]float32) *Codebook {
	t := NewTrainerKind(kind, len(vectors[0]), clip)
	for _, v := range vectors {
		t.Add(v)
	}
	return t.Codebook()
}

func TestSQ4NibblePacking(t *testing.T) {
	cb := &Codebook{
		Kind:  SQ4,
		Min:   []float32{0, 0, 0},
		Delta: []float32{1, 1, 1},
	}
	if got := cb.CodeSize(); got != 2 {
		t.Fatalf("CodeSize: got %d, want 2", got)
	}
	code := cb.Encode(nil, []float32{1, 2, 3})
	// Even dimension in the low nibble, odd in the high; trailing odd
	// dimension leaves the final high nibble zero.
	if !bytes.Equal(code, []byte{0x21, 0x03}) {
		t.Fatalf("packed code: got %x, want 2103", code)
	}
	dec := cb.Decode(make([]float32, 3), code)
	for d, want := range []float32{1, 2, 3} {
		if dec[d] != want {
			t.Fatalf("dim %d: decoded %v, want %v", d, dec[d], want)
		}
	}
}

func TestSQ4EncodeDecodeRoundTripErrorBound(t *testing.T) {
	const dim = 37 // odd size exercises the packing tail
	vectors := randVectors(21, 500, dim, 3)
	cb := trainOnKind(SQ4, 0, vectors)
	if cb.CodeSize() != (dim+1)/2 {
		t.Fatalf("CodeSize: got %d, want %d", cb.CodeSize(), (dim+1)/2)
	}
	dec := make([]float32, dim)
	var code []byte
	for _, v := range vectors {
		code = cb.Encode(code[:0], v)
		if len(code) != cb.CodeSize() {
			t.Fatalf("code length %d, want %d", len(code), cb.CodeSize())
		}
		cb.Decode(dec, code)
		for d := range v {
			bound := float64(cb.Delta[d])/2 + 1e-6
			if diff := math.Abs(float64(v[d] - dec[d])); diff > bound {
				t.Fatalf("dim %d: |%v - %v| = %v > half-step %v", d, v[d], dec[d], diff, bound)
			}
		}
	}
}

func TestSQ4EncodeClampsOutOfRange(t *testing.T) {
	cb := trainOnKind(SQ4, 0, [][]float32{{0, 0}, {1, 1}})
	code := cb.Encode(nil, []float32{-5, 9})
	if code[0]&0x0f != 0 {
		t.Fatalf("below-range code: got %d, want 0", code[0]&0x0f)
	}
	if code[0]>>4 != sq4Levels-1 {
		t.Fatalf("above-range code: got %d, want %d", code[0]>>4, sq4Levels-1)
	}
}

func TestSQ4AsymmetricDistanceMatchesDecoded(t *testing.T) {
	const dim = 33
	vectors := randVectors(22, 200, dim, 2)
	cb := trainOnKind(SQ4, 0, vectors)
	queries := randVectors(23, 5, dim, 2)

	dec := make([]float32, dim)
	for _, metric := range []vec.Metric{vec.L2, vec.Dot, vec.Cosine} {
		for _, q := range queries {
			qq := cb.NewQuery(metric, q)
			var code []byte
			for _, v := range vectors {
				code = cb.Encode(code[:0], v)
				cb.Decode(dec, code)
				got := qq.Distance(code)
				want := vec.Distance(metric, q, dec)
				tol := 1e-2 * (1 + math.Abs(float64(want)))
				if diff := math.Abs(float64(got - want)); diff > tol {
					t.Fatalf("%v: asymmetric %v vs decoded %v (diff %v)", metric, got, want, diff)
				}
			}
		}
	}
}

func TestSQ4DistancesManyMatchesDistance(t *testing.T) {
	const dim, n = 16, 33
	vectors := randVectors(24, n, dim, 2)
	cb := trainOnKind(SQ4, 0, vectors)
	q := randVectors(25, 1, dim, 2)[0]

	for _, metric := range []vec.Metric{vec.L2, vec.Dot, vec.Cosine} {
		qq := cb.NewQuery(metric, q)
		var packed []byte
		for _, v := range vectors {
			packed = cb.Encode(packed, v)
		}
		out := make([]float32, n)
		qq.DistancesMany(packed, n, out)
		for i, v := range vectors {
			want := qq.Distance(cb.Encode(nil, v))
			// TestDistancesManyEqualsDistance asserts bit equality; this
			// checks the batch against the single-row kernel to rounding.
			tol := 1e-5 * (1 + math.Abs(float64(want)))
			if diff := math.Abs(float64(out[i] - want)); diff > tol {
				t.Fatalf("%v row %d: %v != %v", metric, i, out[i], want)
			}
		}
	}
}

// TestClippedTrainerIgnoresOutliers is the outlier-robustness property: a
// handful of extreme rows must not stretch the quantization range. The
// clipped SQ4 codebook's step size should stay close to the inlier range
// (~[-1,1] scaled), not the outlier range (~[-100,100]).
func TestClippedTrainerIgnoresOutliers(t *testing.T) {
	const dim = 8
	vectors := randVectors(26, 600, dim, 1)
	for i := 0; i < 5; i++ {
		out := make([]float32, dim)
		for d := range out {
			if (i+d)%2 == 0 {
				out[d] = 100
			} else {
				out[d] = -100
			}
		}
		vectors = append(vectors, out)
	}

	unclipped := trainOnKind(SQ4, 0, vectors)
	clipped := trainOnKind(SQ4, 0.01, vectors)
	for d := 0; d < dim; d++ {
		// Unclipped: range ~200 over 15 steps => delta > 10.
		if unclipped.Delta[d] < 5 {
			t.Fatalf("dim %d: unclipped delta %v unexpectedly small", d, unclipped.Delta[d])
		}
		// Clipped: range close to the inlier spread (|x| <~ 4).
		if clipped.Delta[d] > 1 {
			t.Fatalf("dim %d: clipped delta %v did not shed outliers", d, clipped.Delta[d])
		}
	}

	// Reconstruction of inlier data must be far better with clipping.
	dec := make([]float32, dim)
	var errClip, errFull float64
	var code []byte
	for _, v := range vectors[:600] {
		code = clipped.Encode(code[:0], v)
		clipped.Decode(dec, code)
		for d := range v {
			errClip += math.Abs(float64(v[d] - dec[d]))
		}
		code = unclipped.Encode(code[:0], v)
		unclipped.Decode(dec, code)
		for d := range v {
			errFull += math.Abs(float64(v[d] - dec[d]))
		}
	}
	if errClip*2 > errFull {
		t.Fatalf("clipped reconstruction error %v not well below unclipped %v", errClip, errFull)
	}
}

func TestTrainerKindNormalization(t *testing.T) {
	tr := NewTrainerKind(None, 4, -1)
	if tr.kind != SQ8 || tr.clip != 0 {
		t.Fatalf("got kind %v clip %v, want sq8 / 0", tr.kind, tr.clip)
	}
	tr = NewTrainerKind(SQ4, 4, 0.7)
	if tr.clip != 0 {
		t.Fatalf("out-of-range clip not normalized: %v", tr.clip)
	}
	if tr.ClipPercentile() != 0 {
		t.Fatalf("ClipPercentile: got %v, want 0", tr.ClipPercentile())
	}
}

func TestMarshalRoundTripSQ4(t *testing.T) {
	vectors := randVectors(27, 50, 9, 2)
	cb := trainOnKind(SQ4, 0.05, vectors)
	blob := cb.Marshal()
	if blob[0] != codebookVersion {
		t.Fatalf("SQ4 codebook marshalled as version %d, want %d", blob[0], codebookVersion)
	}
	got, err := UnmarshalCodebook(blob)
	if err != nil {
		t.Fatal(err)
	}
	if got.Kind != SQ4 {
		t.Fatalf("round-tripped kind %v, want sq4", got.Kind)
	}
	for d := range cb.Min {
		if got.Min[d] != cb.Min[d] || got.Delta[d] != cb.Delta[d] {
			t.Fatalf("dim %d mismatch after round trip", d)
		}
	}

	// A version-1 blob (the SQ8 layout without a kind byte) is rejected.
	sq8 := trainOn(vectors)
	v1 := append([]byte{1}, sq8.Marshal()[2:]...)
	if _, err := UnmarshalCodebook(v1); err == nil {
		t.Fatal("version-1 codebook blob accepted")
	}

	// Unknown kind bytes are rejected.
	bad := append([]byte{}, blob...)
	bad[1] = 9
	if _, err := UnmarshalCodebook(bad); err == nil {
		t.Fatal("unknown kind byte accepted")
	}
}

func TestParseTypeSQ4(t *testing.T) {
	qt, err := ParseType("sq4")
	if err != nil || qt != SQ4 {
		t.Fatalf("ParseType(sq4): %v, %v", qt, err)
	}
	if SQ4.String() != "sq4" {
		t.Fatalf("SQ4.String(): %q", SQ4.String())
	}
	if _, err := ParseType("sq2"); err == nil {
		t.Fatal("ParseType accepted sq2")
	}
}

func BenchmarkAsymmetricL2SQ4(b *testing.B) {
	const dim, n = 128, 256
	vectors := randVectors(28, n, dim, 3)
	cb := trainOnKind(SQ4, 0.005, vectors)
	var packed []byte
	for _, v := range vectors {
		packed = cb.Encode(packed, v)
	}
	q := randVectors(29, 1, dim, 3)[0]
	qq := cb.NewQuery(vec.L2, q)
	out := make([]float32, n)
	b.SetBytes(int64(n * cb.CodeSize()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		qq.DistancesMany(packed, n, out)
	}
}
