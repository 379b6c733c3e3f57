package quant

import "math"

// This file holds the per-row residual bound that lets the exact rerank
// skip candidates (RaBitQ, Gao & Long, SIGMOD 2024, decides what to rerank
// from per-vector error bounds in the same way). A quantized row stores,
// after its code, one residual byte b bounding r = ‖x − x̂‖₂, the distance
// between the row's exact vector x and its decoded code x̂. By the triangle
// inequality √d(q,x) ≥ √d(q,x̂) − r, so a candidate whose lower bound
// (max(0, √d̂ − r))² exceeds the K-th exact distance found so far cannot
// enter the top K. The bound is per row, not per codebook: a row encoded
// after training may lie outside the trained range, where clamping makes
// its error larger than half a step per dimension.
//
// The byte counts units of ‖Δ‖₂/256, derived from the codebook, so no
// state beyond the codebook is persisted. An in-range row's residual is at
// most ‖Δ‖₂/2, 128 units; bytes up to 254 leave room for rows clamped
// outside the range, and a residual past that saturates to NoResidual.

// NoResidual is the residual byte of a row whose residual the byte scale
// cannot bound. Such a row has no lower bound: the rerank always reads it.
const NoResidual = 255

// ResidualUnit returns the codebook's residual unit, ‖Δ‖₂/256.
func (cb *Codebook) ResidualUnit() float32 {
	var s float64
	for _, d := range cb.Delta {
		s += float64(d) * float64(d)
	}
	return float32(math.Sqrt(s) / 256)
}

// ResidualBound decodes residual byte b under unit: a value no smaller than
// the residual of any row stored with b, and +Inf for NoResidual.
func ResidualBound(b byte, unit float32) float32 {
	if b == NoResidual {
		return float32(math.Inf(1))
	}
	return float32(b) * unit
}

// residualByte returns the smallest byte whose ResidualBound under unit is
// at least r, or NoResidual when none below it is (r too large, NaN or
// infinite, or a zero unit with r > 0). The bound is checked as decoded, so
// rounding in the scale cannot make it smaller than r.
func residualByte(r float64, unit float32) byte {
	if r == 0 {
		return 0
	}
	q := math.Ceil(r / float64(unit))
	if !(q < NoResidual) {
		return NoResidual
	}
	b := int(q)
	for b < NoResidual && float64(ResidualBound(byte(b), unit)) < r {
		b++
	}
	return byte(b)
}

// EncodeRow appends the payload of a quantized row, v's code followed by
// its residual byte, to dst. It also returns the residual r itself,
// computed in float64 against the code decoded in exact arithmetic.
func (cb *Codebook) EncodeRow(dst []byte, v []float32) ([]byte, float64) {
	start := len(dst)
	dst = cb.Encode(dst, v)
	code := dst[start:]
	var s float64
	for d, x := range v {
		e := float64(x) - (float64(cb.Min[d]) + float64(cb.codeAt(code, d))*float64(cb.Delta[d]))
		s += e * e
	}
	r := math.Sqrt(s)
	return append(dst, residualByte(r, cb.ResidualUnit())), r
}

// codeAt returns dimension d's code in code.
func (cb *Codebook) codeAt(code []byte, d int) byte {
	if cb.kind() != SQ4 {
		return code[d]
	}
	if d%2 == 0 {
		return code[d/2] & 0x0f
	}
	return code[d/2] >> 4
}

// Bound turns a query's approximate L2 distance to a quantized row
// (Query.Distance or DistancesMany under the same codebook) and the row's
// ResidualBound into a lower bound on the float32 exact distance
// vec.Distance(vec.L2, q, x). Build one per query with NewBound.
type Bound struct {
	slack float64 // absolute error bound of an approximate distance
	eps   float64 // relative error bound of an exact distance
	tiny  float64 // absolute error bound of an exact distance's subnormal steps
}

// tinyPerOp bounds the absolute rounding error of one float32 operation
// with a subnormal result, 2⁻¹⁴⁹.
const tinyPerOp = 0x1p-149

// NewBound returns the lower-bound function of query q under the codebook
// for the L2 metric. Dot and Cosine have no bound here.
//
// The float slack is derived, not tuned. With u = 2⁻²⁴, t = q − min and
// M the largest code, the approximate distance is constant + Σ_d l2Term_d,
// where the constant Σ t_d² carries at most (dim+3)·u·A of rounding error
// (A = Σ t_d²) and each l2Term_d = c·(Δ²c − 2tΔ) at most 4u times
// b_d = M²Δ_d² + 2M|t_d|Δ_d (the coefficients' own rounding included), and
// the four-accumulator sums, the SQ4 nibble folding and the final
// add add at most (dim/4+12)·u·Σ b_d. So the approximate distance is within
// (dim+16)·u·(A+B) of ‖q − x̂‖² (B = Σ b_d), and slack = ε·(A+B) with
// ε = (dim+8)·2⁻²³ = (2·dim+16)·u covers it. The exact kernel sums dim
// squared differences, each rounded twice, so its result is at least
// (1 − (dim+2)·u) times the true distance, and the final factor (1 − ε)
// covers that. A+B is at least ‖q − x̂‖², so the slack also keeps √d̂
// below its true value by a relative dim·u/2, far more than the float64
// error of the residual; a row at distance 0 therefore always has bound 0.
// The tinyPerOp terms cover subnormal results.
func (cb *Codebook) NewBound(q []float32) Bound {
	if len(q) != len(cb.Min) {
		panic("quant: dimension mismatch")
	}
	m := float64(cb.kind().maxCode())
	var a, b float64
	for d := range q {
		t := float64(q[d]) - float64(cb.Min[d])
		delta := math.Abs(float64(cb.Delta[d]))
		a += t * t
		b += m*m*delta*delta + 2*m*math.Abs(t)*delta
	}
	dim := float64(len(q))
	eps := (dim + 8) * 0x1p-23
	return Bound{slack: eps*(a+b) + (4*dim+16)*tinyPerOp, eps: eps, tiny: (2*dim + 2) * tinyPerOp}
}

// Lower returns a lower bound on the float32 exact L2 distance of a row
// whose approximate distance is approx and whose residual bound is
// residual: a float32 that is never negative nor NaN, rounded down from
// the bound computed in float64. It returns 0, no bound, when approx is
// NaN or infinite or residual is +Inf. Compare it strictly: a row whose
// bound equals the K-th exact distance may still tie its way in.
func (b Bound) Lower(approx, residual float32) float32 {
	a := float64(approx) - b.slack
	if !(a > 0) || math.IsInf(a, 1) {
		return 0
	}
	s := math.Sqrt(a) - float64(residual)
	if !(s > 0) {
		return 0
	}
	lb := s*s*(1-b.eps) - b.tiny
	if !(lb > 0) {
		return 0
	}
	f := float32(lb)
	if float64(f) > lb {
		f = math.Nextafter32(f, 0)
	}
	return f
}
