package quant

import (
	"math"
	"math/rand"
	"testing"

	"micronn/internal/vec"
)

func randVectors(seed int64, n, dim int, scale float32) [][]float32 {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]float32, n)
	for i := range out {
		v := make([]float32, dim)
		for d := range v {
			v[d] = float32(rng.NormFloat64()) * scale
		}
		out[i] = v
	}
	return out
}

func trainOn(vectors [][]float32) *Codebook {
	t := NewTrainer(len(vectors[0]))
	for _, v := range vectors {
		t.Add(v)
	}
	return t.Codebook()
}

func TestEncodeDecodeRoundTripErrorBound(t *testing.T) {
	const dim = 37 // odd size exercises the kernel tails
	vectors := randVectors(1, 500, dim, 3)
	cb := trainOn(vectors)

	dec := make([]float32, dim)
	var code []byte
	for _, v := range vectors {
		code = cb.Encode(code[:0], v)
		cb.Decode(dec, code)
		for d := range v {
			// Rounding to the nearest of 256 levels bounds the error by
			// half a step.
			bound := float64(cb.Delta[d])/2 + 1e-5
			if diff := math.Abs(float64(v[d] - dec[d])); diff > bound {
				t.Fatalf("dim %d: |%v - %v| = %v exceeds half-step bound %v", d, v[d], dec[d], diff, bound)
			}
		}
	}
}

func TestEncodeClampsOutOfRange(t *testing.T) {
	cb := &Codebook{Min: []float32{0}, Delta: []float32{1.0 / 255}}
	lo := cb.Encode(nil, []float32{-10})
	hi := cb.Encode(nil, []float32{10})
	if lo[0] != 0 || hi[0] != 255 {
		t.Fatalf("clamp: got %d and %d, want 0 and 255", lo[0], hi[0])
	}
}

func TestConstantDimension(t *testing.T) {
	vectors := [][]float32{{5, 1}, {5, 2}, {5, 3}}
	cb := trainOn(vectors)
	if cb.Delta[0] != 0 {
		t.Fatalf("constant dim delta = %v, want 0", cb.Delta[0])
	}
	dec := make([]float32, 2)
	cb.Decode(dec, cb.Encode(nil, []float32{5, 2}))
	if dec[0] != 5 {
		t.Fatalf("constant dim decodes to %v, want 5", dec[0])
	}
}

func TestEmptyTrainerCodebook(t *testing.T) {
	cb := NewTrainer(4).Codebook()
	dec := make([]float32, 4)
	cb.Decode(dec, cb.Encode(nil, []float32{1, 2, 3, 4}))
	for d, x := range dec {
		if x != 0 {
			t.Fatalf("empty codebook decodes dim %d to %v, want 0", d, x)
		}
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	vectors := randVectors(2, 100, 19, 2)
	cb := trainOn(vectors)
	got, err := UnmarshalCodebook(cb.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	for d := range cb.Min {
		if got.Min[d] != cb.Min[d] || got.Delta[d] != cb.Delta[d] {
			t.Fatalf("dim %d: got (%v,%v), want (%v,%v)", d, got.Min[d], got.Delta[d], cb.Min[d], cb.Delta[d])
		}
	}
	if _, err := UnmarshalCodebook([]byte{9, 0, 0, 0, 0}); err == nil {
		t.Fatal("expected version error")
	}
	if _, err := UnmarshalCodebook([]byte{1, 2}); err == nil {
		t.Fatal("expected truncation error")
	}
}

// TestAsymmetricDistanceMatchesDecoded checks that Query.Distance equals
// vec.Distance against the decoded vector, for every metric: the asymmetric
// kernels are an algebraic refactoring, not an extra approximation.
func TestAsymmetricDistanceMatchesDecoded(t *testing.T) {
	const dim = 45
	vectors := randVectors(3, 200, dim, 4)
	cb := trainOn(vectors)
	queries := randVectors(4, 10, dim, 4)

	dec := make([]float32, dim)
	for _, metric := range []vec.Metric{vec.L2, vec.Dot, vec.Cosine} {
		for _, q := range queries {
			qq := cb.NewQuery(metric, q)
			var code []byte
			for _, v := range vectors {
				code = cb.Encode(code[:0], v)
				got := qq.Distance(code)
				want := vec.Distance(metric, q, cb.Decode(dec, code))
				tol := 1e-2 * (1 + math.Abs(float64(want)))
				if diff := math.Abs(float64(got - want)); diff > tol {
					t.Fatalf("%v: asymmetric %v vs decoded %v (diff %v)", metric, got, want, diff)
				}
			}
		}
	}
}

func TestDistancesMany(t *testing.T) {
	const dim, n = 16, 33
	vectors := randVectors(5, n, dim, 2)
	cb := trainOn(vectors)
	q := randVectors(6, 1, dim, 2)[0]
	qq := cb.NewQuery(vec.L2, q)

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
		if diff := math.Abs(float64(out[i] - want)); diff > 1e-4*(1+math.Abs(float64(want))) {
			t.Fatalf("row %d: %v != %v", i, out[i], want)
		}
	}
}

// TestDistancesManyEqualsDistance: a row's distance does not depend on the
// batch that scores it. DistancesMany's out[i] equals Distance of code i
// bit for bit for both kinds and every metric, in batches below and past
// the SQ8 assembly kernel's 4-row step and the SQ4 table kernel's 2-row
// step, and at dimensions with and without a tail past the kernels' 8-byte
// blocks. A scan that scores different rows together (a
// post-filter scan scores every row, the filter-first order scored only
// the rows that passed) must rank the same rows the same way.
func TestDistancesManyEqualsDistance(t *testing.T) {
	for _, kind := range []Type{SQ8, SQ4} {
		for _, dim := range []int{5, 16, 37, 128} {
			vectors := randVectors(int64(31+dim), 70, dim, 3)
			cb := trainOnKind(kind, 0, vectors)
			q := randVectors(int64(32+dim), 1, dim, 3)[0]
			var packed []byte
			for _, v := range vectors {
				packed = cb.Encode(packed, v)
			}
			cs := cb.CodeSize()
			for _, metric := range []vec.Metric{vec.L2, vec.Dot, vec.Cosine} {
				qq := cb.NewQuery(metric, q)
				for _, n := range []int{1, 2, 3, 4, 5, 31, 32, 33, 70} {
					for _, start := range []int{0, 70 - n} {
						out := make([]float32, n)
						qq.DistancesMany(packed[start*cs:(start+n)*cs], n, out)
						for i := range out {
							r := start + i
							want := qq.Distance(packed[r*cs : (r+1)*cs])
							if math.Float32bits(out[i]) != math.Float32bits(want) {
								t.Fatalf("%v dim %d %v: row %d in a batch of %d scored %v, alone %v", kind, dim, metric, r, n, out[i], want)
							}
						}
					}
				}
			}
		}
	}
}

// TestQuantizedOrderingQuality sanity-checks that SQ8 distances order a
// clustered collection nearly as well as exact distances: the exact nearest
// neighbour should appear in the quantized top-4.
func TestQuantizedOrderingQuality(t *testing.T) {
	const dim, n = 32, 400
	vectors := randVectors(7, n, dim, 5)
	cb := trainOn(vectors)
	queries := randVectors(8, 20, dim, 5)

	hits := 0
	for _, q := range queries {
		bestExact, bestD := -1, float32(math.MaxFloat32)
		for i, v := range vectors {
			if d := vec.Distance(vec.L2, q, v); d < bestD {
				bestExact, bestD = i, d
			}
		}
		qq := cb.NewQuery(vec.L2, q)
		type cand struct {
			i int
			d float32
		}
		cands := make([]cand, n)
		var code []byte
		for i, v := range vectors {
			code = cb.Encode(code[:0], v)
			cands[i] = cand{i, qq.Distance(code)}
		}
		for pass := 0; pass < 4; pass++ { // partial selection of top-4
			min := pass
			for j := pass + 1; j < n; j++ {
				if cands[j].d < cands[min].d {
					min = j
				}
			}
			cands[pass], cands[min] = cands[min], cands[pass]
			if cands[pass].i == bestExact {
				hits++
				break
			}
		}
	}
	if hits < 18 {
		t.Fatalf("exact NN in quantized top-4 for only %d/20 queries", hits)
	}
}

// BenchmarkAsymmetricL2 times what an SQ8 L2 query pays to score a
// partition scan's rows: NewQuery, then DistancesMany over 720 rows of
// dim 128 (about the rows one filtered-sq8 post-filter query scores). It
// reports ns/row.
func BenchmarkAsymmetricL2(b *testing.B) {
	const dim, n = 128, 720
	vectors := randVectors(9, n, dim, 3)
	cb := trainOn(vectors)
	var packed []byte
	for _, v := range vectors {
		packed = cb.Encode(packed, v)
	}
	q := randVectors(10, 1, dim, 3)[0]
	out := make([]float32, n)
	b.SetBytes(int64(n * dim))
	b.ReportAllocs()
	for b.Loop() {
		cb.NewQuery(vec.L2, q).DistancesMany(packed, n, out)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/row")
}
