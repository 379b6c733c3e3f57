package quant

import (
	"math"
	"math/rand"
	"testing"

	"micronn/internal/vec"
)

// checkBound encodes v under cb and asserts the stored residual byte
// decodes to at least the row's residual, and that the bound of q's
// approximate distance to the row, scored alone and in a batch, never
// exceeds the float32 exact distance. It returns the bound and the exact
// distance.
func checkBound(t *testing.T, cb *Codebook, q, v []float32) (float32, float32) {
	t.Helper()
	payload, r := cb.EncodeRow(nil, v)
	cs := cb.CodeSize()
	if len(payload) != cs+1 {
		t.Fatalf("payload %d bytes, want %d", len(payload), cs+1)
	}
	if code := cb.Encode(nil, v); string(code) != string(payload[:cs]) {
		t.Fatalf("EncodeRow's code %x differs from Encode's %x", payload[:cs], code)
	}
	res := ResidualBound(payload[cs], cb.ResidualUnit())
	if float64(res) < r {
		t.Fatalf("residual byte %d decodes to %v, below the residual %v", payload[cs], res, r)
	}
	qq := cb.NewQuery(vec.L2, q)
	approx := qq.Distance(payload[:cs])
	var batch [1]float32
	qq.DistancesMany(payload[:cs], 1, batch[:])
	exact := vec.Distance(vec.L2, q, v)
	b := cb.NewBound(q)
	for _, a := range []float32{approx, batch[0]} {
		if lb := b.Lower(a, res); lb > exact {
			t.Fatalf("bound %v exceeds the exact distance %v (approx %v, residual %v)", lb, exact, a, res)
		}
	}
	return b.Lower(approx, res), exact
}

// TestResidualBound checks the bound on trained SQ8 and SQ4 codebooks for
// rows inside the trained range, rows far outside it (whose residual bytes
// saturate) and exact duplicates of the query (whose bound must be 0). For
// most in-range rows the bound must also exceed a quarter of the exact
// distance, or it would rule out little.
func TestResidualBound(t *testing.T) {
	for _, kind := range []Type{SQ8, SQ4} {
		for _, dim := range []int{1, 7, 32, 128} {
			vectors := randVectors(int64(dim), 200, dim, 1)
			cb := trainOnKind(kind, 0.005, vectors)
			unit := cb.ResidualUnit()
			rng := rand.New(rand.NewSource(int64(dim)))
			saturated, pruned := 0, 0
			for i, v := range vectors {
				q := randVectors(int64(1000+i), 1, dim, 1)[0]
				if lb, exact := checkBound(t, cb, q, v); lb > exact/4 {
					pruned++
				}
				if lb, _ := checkBound(t, cb, v, v); lb != 0 {
					t.Fatalf("%v dim %d: bound %v for the query's own vector", kind, dim, lb)
				}
				far := make([]float32, dim)
				for d := range far {
					far[d] = v[d] * float32(1+rng.Intn(40))
				}
				p, _ := cb.EncodeRow(nil, far)
				if p[len(p)-1] == NoResidual {
					saturated++
				}
				checkBound(t, cb, q, far)
			}
			if saturated == 0 {
				t.Errorf("%v dim %d: no row far outside the trained range saturated to %d (unit %v)", kind, dim, NoResidual, unit)
			}
			if pruned < len(vectors)/2 {
				t.Errorf("%v dim %d: the bound exceeds a quarter of the exact distance for %d of %d rows", kind, dim, pruned, len(vectors))
			}
		}
	}
}

// FuzzRerankBound: for any codebook, row and query, under SQ8 and SQ4, the
// lower bound from a row's stored residual byte never exceeds the float32
// exact L2 distance, so a rerank that skips rows on it returns what a full
// rerank returns. The fuzzer drives the seed of the training set (which
// also picks clipping and whether the set shares the row's scale), the
// spread of the row and query values, and an offset that moves the row
// outside the trained range.
func FuzzRerankBound(f *testing.F) {
	f.Add(false, uint8(8), int64(1), float32(1), float32(0))
	f.Add(true, uint8(9), int64(2), float32(3), float32(50))
	f.Add(false, uint8(128), int64(3), float32(1e-20), float32(1e-30))
	f.Add(true, uint8(1), int64(4), float32(1e15), float32(-1e18))
	f.Fuzz(func(t *testing.T, sq4 bool, dim uint8, seed int64, spread, offset float32) {
		if dim == 0 || math.IsNaN(float64(spread)) || math.IsInf(float64(spread), 0) ||
			math.IsNaN(float64(offset)) || math.IsInf(float64(offset), 0) {
			return
		}
		kind := SQ8
		if sq4 {
			kind = SQ4
		}
		n := int(dim)
		rng := rand.New(rand.NewSource(seed))
		draw := func(scale float32) []float32 {
			v := make([]float32, n)
			for d := range v {
				v[d] = float32(rng.NormFloat64()) * scale
			}
			return v
		}
		tr, scale := NewTrainerKind(kind, n, 0.01*float64(seed&1)), float32(1)
		if seed&2 != 0 {
			scale = spread
		}
		for range 40 {
			tr.Add(draw(scale))
		}
		cb := tr.Codebook()
		v, q := draw(spread), draw(spread)
		v[rng.Intn(n)] += offset
		checkBound(t, cb, q, v)
		checkBound(t, cb, v, v)
	})
}
