package quant

import (
	"encoding/binary"
	"math"
	"unsafe"

	"micronn/internal/vec"
)

// This file implements the asymmetric distance kernels: the query remains
// float32 while data vectors stay quantized, and the per-dimension affine
// decode is folded into per-query coefficients so a scan touches each code
// byte exactly once. Writing c for a dimension's code, the decoded value is
// min + c*delta, which makes every metric a low-degree polynomial in c:
//
//	L2:  ||q - v||^2 = Σ t_d^2 - Σ (2 t_d Δ_d) c_d + Σ Δ_d^2 c_d^2   (t = q - min)
//	IP:   q·v        = Σ q_d min_d + Σ (q_d Δ_d) c_d
//	|v|^2            = Σ min_d^2 + Σ (2 min_d Δ_d) c_d + Σ Δ_d^2 c_d^2
//
// The constant terms are computed once per query.
//
// SQ8 scans evaluate the polynomial directly, with no per-query table:
// polyAcc's 8-byte blocks add each dimension's term into one of four
// accumulators, and on amd64 with AVX2 an assembly kernel (sq8L2x4AVX2)
// runs the same arithmetic over four rows at a time, sharing each block's
// coefficient loads. A dim×256 table would cost more to build than a scan
// of a few hundred rows costs without it.
//
// A row's distance does not depend on the batch it is scored in:
// DistancesMany's out[i] equals Distance of code i bit for bit. The two
// L2 kernels of each kind (polyAcc and the assembly kernel for SQ8, lutAcc
// and the two-row lutAcc2 for SQ4) add the same rounded terms (l2Term) in
// the same order, so scoring a row alone, in a small batch or in a large
// one gives one value, and a scan's results do not depend on which rows
// share its batches.
//
// SQ4 scans never unpack nibbles: NewQuery bakes the polynomial into a
// 256-entry lookup table per code byte, where entry b already sums the
// contributions of both packed dimensions (low nibble = even dimension,
// high nibble = odd). A scan is then one table load and one add per byte —
// the classic product-quantization LUT trick applied to scalar codes.

// Query is the per-query state for asymmetric distance computation against
// quantized codes. Build one with Codebook.NewQuery and reuse it for a
// whole scan. A Query is immutable after construction — NewQuery computes
// every coefficient and SQ4 table — so the scan workers of one search may
// share it. An SQ8 L2 query holds only its 2·dim coefficients.
type Query struct {
	metric vec.Metric

	// codeSize is the stride in bytes between consecutive codes: dim for
	// SQ8, ceil(dim/2) for SQ4.
	codeSize int
	sq4      bool

	// constant + Σ c*(quad*c - lin) terms for the primary accumulator:
	// L2 distance for vec.L2, the inner product for vec.Dot and vec.Cosine.
	constant float32
	lin      []float32
	quad     []float32

	// Cosine extras: coefficients of the data-vector squared norm and the
	// query norm.
	normConst float32
	normLin   []float32
	qNorm     float32

	// SQ4 lookup tables, codeSize rows of 256 entries. lut[j*256+b] is the
	// primary-accumulator contribution of code byte value b at byte j
	// (both nibbles folded in); normLut is the cosine squared-norm analog.
	lut     []float32
	normLut []float32
}

// CodeSize returns the byte stride of the codes this query scans.
func (qq *Query) CodeSize() int { return qq.codeSize }

// NewQuery precomputes the asymmetric-distance coefficients of q under the
// codebook for the given metric.
func (cb *Codebook) NewQuery(metric vec.Metric, q []float32) *Query {
	if len(q) != len(cb.Min) {
		panic("quant: dimension mismatch")
	}
	dim := len(q)
	qq := &Query{metric: metric, codeSize: cb.CodeSize(), sq4: cb.kind() == SQ4}
	switch metric {
	case vec.L2:
		qq.lin = make([]float32, dim)
		qq.quad = make([]float32, dim)
		for d := 0; d < dim; d++ {
			t := q[d] - cb.Min[d]
			delta := cb.Delta[d]
			qq.constant += t * t
			qq.lin[d] = 2 * t * delta
			qq.quad[d] = delta * delta
		}
	case vec.Dot, vec.Cosine:
		qq.lin = make([]float32, dim)
		for d := 0; d < dim; d++ {
			qq.constant += q[d] * cb.Min[d]
			qq.lin[d] = q[d] * cb.Delta[d]
		}
		if metric == vec.Cosine {
			qq.normLin = make([]float32, dim)
			qq.quad = make([]float32, dim)
			for d := 0; d < dim; d++ {
				qq.normConst += cb.Min[d] * cb.Min[d]
				qq.normLin[d] = 2 * cb.Min[d] * cb.Delta[d]
				qq.quad[d] = cb.Delta[d] * cb.Delta[d]
			}
			qq.qNorm = vec.Norm(q)
		}
	default:
		panic("quant: unknown metric")
	}
	if qq.sq4 {
		qq.buildLUTs(dim)
	}
	return qq
}

// buildLUTs folds the per-dimension polynomial coefficients into per-byte
// 256-entry tables for the SQ4 scan path. A padding nibble (odd trailing
// dimension) always holds code 0, whose variable contribution is zero, so
// no special case is needed at scan time.
func (qq *Query) buildLUTs(dim int) {
	switch qq.metric {
	case vec.L2:
		qq.lut = buildNibbleLUT(dim, func(d int, c float32) float32 {
			return l2Term(c, qq.quad[d], qq.lin[d])
		})
	case vec.Dot:
		qq.lut = buildNibbleLUT(dim, func(d int, c float32) float32 {
			return qq.lin[d] * c
		})
	case vec.Cosine:
		qq.lut = buildNibbleLUT(dim, func(d int, c float32) float32 {
			return qq.lin[d] * c
		})
		qq.normLut = buildNibbleLUT(dim, func(d int, c float32) float32 {
			return c * (qq.quad[d]*c + qq.normLin[d])
		})
	}
}

// buildNibbleLUT builds ceil(dim/2) rows of 256 entries where row j, entry
// b sums contrib(2j, b&15) and contrib(2j+1, b>>4). The 16 per-nibble
// values are computed once per row, then combined, so construction is
// O(dim*128) adds — negligible next to a partition scan.
func buildNibbleLUT(dim int, contrib func(d int, c float32) float32) []float32 {
	nb := (dim + 1) / 2
	lut := make([]float32, nb*256)
	var lo, hi [sq4Levels]float32
	for j := 0; j < nb; j++ {
		d0, d1 := 2*j, 2*j+1
		for c := 0; c < sq4Levels; c++ {
			lo[c] = contrib(d0, float32(c))
			if d1 < dim {
				hi[c] = contrib(d1, float32(c))
			} else {
				hi[c] = 0
			}
		}
		row := lut[j*256 : (j+1)*256]
		for b := 0; b < 256; b++ {
			row[b] = lo[b&0x0f] + hi[b>>4]
		}
	}
	return lut
}

// Distance returns the metric distance between the query and one code,
// matching the conventions of vec.Distance (smaller is more similar; L2 is
// squared, Dot is negated, Cosine is 1-cos).
func (qq *Query) Distance(code []byte) float32 {
	if qq.sq4 {
		switch qq.metric {
		case vec.L2:
			return qq.constant + lutAcc(code, qq.lut)
		case vec.Dot:
			return -(qq.constant + lutAcc(code, qq.lut))
		default: // Cosine
			dot := qq.constant + lutAcc(code, qq.lut)
			nv2 := qq.normConst + lutAcc(code, qq.normLut)
			return qq.finishCosine(dot, nv2)
		}
	}
	switch qq.metric {
	case vec.L2:
		return qq.constant + polyAcc(code, qq.lin, qq.quad)
	case vec.Dot:
		return -(qq.constant + linAcc(code, qq.lin))
	default: // Cosine
		dot := qq.constant + linAcc(code, qq.lin)
		nv2 := qq.normConst + polyAccPos(code, qq.normLin, qq.quad)
		return qq.finishCosine(dot, nv2)
	}
}

func (qq *Query) finishCosine(dot, nv2 float32) float32 {
	if qq.qNorm == 0 || nv2 <= 0 {
		return 1
	}
	return 1 - dot/(qq.qNorm*float32(math.Sqrt(float64(nv2))))
}

// DistancesMany computes distances from the query to n consecutive codes
// packed in codes (n * CodeSize bytes), writing into out[:n]; out[i] equals
// Distance of code i exactly. SQ8 L2 runs the assembly kernel four rows at
// a time where it can (sq8L2Rows) and polyAcc on the rows left; SQ4 L2
// runs the table kernel two rows at a time; other metrics run the
// single-row kernel per code.
func (qq *Query) DistancesMany(codes []byte, n int, out []float32) {
	cs := qq.codeSize
	if qq.metric == vec.L2 && !qq.sq4 {
		for i := sq8L2Rows(codes, cs, n, qq.lin, qq.quad, qq.constant, out); i < n; i++ {
			out[i] = qq.constant + polyAcc(codes[i*cs:(i+1)*cs], qq.lin, qq.quad)
		}
		return
	}
	if qq.sq4 && qq.metric == vec.L2 {
		// Rows are independent, so interleaving two per pass doubles the
		// in-flight table loads and hides their latency.
		i := 0
		for ; i+2 <= n; i += 2 {
			r0, r1 := lutAcc2(codes[i*cs:(i+1)*cs], codes[(i+1)*cs:(i+2)*cs], qq.lut)
			out[i] = qq.constant + r0
			out[i+1] = qq.constant + r1
		}
		if i < n {
			out[i] = qq.constant + lutAcc(codes[i*cs:(i+1)*cs], qq.lut)
		}
		return
	}
	for i := 0; i < n; i++ {
		out[i] = qq.Distance(codes[i*cs : (i+1)*cs])
	}
}

// l2Term is one dimension's L2 term c*(quad*c - lin), every operation
// rounded to float32, as the SQ4 tables store it and the SQ8 assembly
// kernel computes it. The explicit conversions keep a compiler from fusing
// the operations into an FMA.
func l2Term(c, quad, lin float32) float32 {
	return float32(c * float32(float32(quad*c)-lin))
}

// polyAcc accumulates Σ c*(quad*c - lin) over the code bytes, the SQ8 L2
// kernel. It adds the terms in a fixed order — four accumulators,
// dimension d of each 8-byte block into accumulator d mod 4, tail bytes
// into the first — which the assembly kernel shares, so the two return one
// value for a row. The up-front bounds hints let the compiler drop
// per-element checks.
func polyAcc(code []byte, lin, quad []float32) float32 {
	n := len(code)
	if n == 0 {
		return 0
	}
	_ = lin[n-1]  // bounds hint: len(lin) >= n
	_ = quad[n-1] // bounds hint: len(quad) >= n
	var s0, s1, s2, s3 float32
	i := 0
	for ; i+8 <= n; i += 8 {
		l, q, c := lin[i:i+8:i+8], quad[i:i+8:i+8], code[i:i+8:i+8]
		s0 += l2Term(float32(c[0]), q[0], l[0])
		s1 += l2Term(float32(c[1]), q[1], l[1])
		s2 += l2Term(float32(c[2]), q[2], l[2])
		s3 += l2Term(float32(c[3]), q[3], l[3])
		s0 += l2Term(float32(c[4]), q[4], l[4])
		s1 += l2Term(float32(c[5]), q[5], l[5])
		s2 += l2Term(float32(c[6]), q[6], l[6])
		s3 += l2Term(float32(c[7]), q[7], l[7])
	}
	for ; i < n; i++ {
		s0 += l2Term(float32(code[i]), quad[i], lin[i])
	}
	return (s0 + s1) + (s2 + s3)
}

// polyAccPos accumulates Σ c*(quad*c + lin): the squared-norm polynomial,
// whose linear term adds rather than subtracts.
func polyAccPos(code []byte, lin, quad []float32) float32 {
	n := len(code)
	if n == 0 {
		return 0
	}
	_ = lin[n-1]
	_ = quad[n-1]
	var s0, s1, s2, s3, s4, s5, s6, s7 float32
	i := 0
	for ; i+8 <= n; i += 8 {
		c0 := float32(code[i])
		c1 := float32(code[i+1])
		c2 := float32(code[i+2])
		c3 := float32(code[i+3])
		c4 := float32(code[i+4])
		c5 := float32(code[i+5])
		c6 := float32(code[i+6])
		c7 := float32(code[i+7])
		s0 += c0 * (quad[i]*c0 + lin[i])
		s1 += c1 * (quad[i+1]*c1 + lin[i+1])
		s2 += c2 * (quad[i+2]*c2 + lin[i+2])
		s3 += c3 * (quad[i+3]*c3 + lin[i+3])
		s4 += c4 * (quad[i+4]*c4 + lin[i+4])
		s5 += c5 * (quad[i+5]*c5 + lin[i+5])
		s6 += c6 * (quad[i+6]*c6 + lin[i+6])
		s7 += c7 * (quad[i+7]*c7 + lin[i+7])
	}
	for ; i < n; i++ {
		c := float32(code[i])
		s0 += c * (quad[i]*c + lin[i])
	}
	return ((s0 + s1) + (s2 + s3)) + ((s4 + s5) + (s6 + s7))
}

// linAcc accumulates Σ lin*c: the inner-product kernel.
func linAcc(code []byte, lin []float32) float32 {
	n := len(code)
	if n == 0 {
		return 0
	}
	_ = lin[n-1]
	var s0, s1, s2, s3, s4, s5, s6, s7 float32
	i := 0
	for ; i+8 <= n; i += 8 {
		s0 += lin[i] * float32(code[i])
		s1 += lin[i+1] * float32(code[i+1])
		s2 += lin[i+2] * float32(code[i+2])
		s3 += lin[i+3] * float32(code[i+3])
		s4 += lin[i+4] * float32(code[i+4])
		s5 += lin[i+5] * float32(code[i+5])
		s6 += lin[i+6] * float32(code[i+6])
		s7 += lin[i+7] * float32(code[i+7])
	}
	for ; i < n; i++ {
		s0 += lin[i] * float32(code[i])
	}
	return ((s0 + s1) + (s2 + s3)) + ((s4 + s5) + (s6 + s7))
}

// lutAcc accumulates the per-byte LUT contributions of one code: one
// table row of 256 entries per code byte, one load and one add per byte.
// The hot loop reads eight code bytes as a single word and addresses the
// table through unsafe offsets — both the word load and the table loads
// are provably in bounds (checked once up front), and removing the
// per-element checks roughly doubles throughput on the scan benchmarks.
func lutAcc(code []byte, lut []float32) float32 {
	n := len(code)
	if n == 0 {
		return 0
	}
	if len(lut) < n*256 {
		panic("quant: lut too small for code")
	}
	base := unsafe.Pointer(unsafe.SliceData(lut))
	// Four accumulators in lutAcc2's order, so a row's sum is the same
	// whichever kernel scores it.
	var s0, s1, s2, s3 float32
	i := 0
	for ; i+8 <= n; i += 8 {
		w := binary.LittleEndian.Uint64(code[i : i+8])
		p := unsafe.Add(base, i*1024)
		// w>>(k-2)&0x3fc folds the float32 size scaling into the byte
		// extraction: one shift and one mask per dimension instead of
		// shift, mask and multiply.
		s0 += *(*float32)(unsafe.Add(p, (w<<2)&0x3fc))
		s1 += *(*float32)(unsafe.Add(p, 1*1024+(w>>6)&0x3fc))
		s2 += *(*float32)(unsafe.Add(p, 2*1024+(w>>14)&0x3fc))
		s3 += *(*float32)(unsafe.Add(p, 3*1024+(w>>22)&0x3fc))
		s0 += *(*float32)(unsafe.Add(p, 4*1024+(w>>30)&0x3fc))
		s1 += *(*float32)(unsafe.Add(p, 5*1024+(w>>38)&0x3fc))
		s2 += *(*float32)(unsafe.Add(p, 6*1024+(w>>46)&0x3fc))
		s3 += *(*float32)(unsafe.Add(p, 7*1024+(w>>54)&0x3fc))
	}
	for ; i < n; i++ {
		s0 += lut[i*256+int(code[i])]
	}
	return (s0 + s1) + (s2 + s3)
}

// lutAcc2 is lutAcc over two equal-length code rows at once: the rows'
// table loads are independent, so interleaving them keeps twice as many
// loads in flight and hides the table's L2 latency during batch scans.
func lutAcc2(a, b []byte, lut []float32) (float32, float32) {
	n := len(a)
	if len(b) != n {
		panic("quant: lutAcc2 rows differ in length")
	}
	if n == 0 {
		return 0, 0
	}
	if len(lut) < n*256 {
		panic("quant: lut too small for code")
	}
	base := unsafe.Pointer(unsafe.SliceData(lut))
	var s0, s1, s2, s3 float32
	var t0, t1, t2, t3 float32
	i := 0
	for ; i+8 <= n; i += 8 {
		wa := binary.LittleEndian.Uint64(a[i : i+8])
		wb := binary.LittleEndian.Uint64(b[i : i+8])
		p := unsafe.Add(base, i*1024)
		s0 += *(*float32)(unsafe.Add(p, (wa<<2)&0x3fc))
		t0 += *(*float32)(unsafe.Add(p, (wb<<2)&0x3fc))
		s1 += *(*float32)(unsafe.Add(p, 1*1024+(wa>>6)&0x3fc))
		t1 += *(*float32)(unsafe.Add(p, 1*1024+(wb>>6)&0x3fc))
		s2 += *(*float32)(unsafe.Add(p, 2*1024+(wa>>14)&0x3fc))
		t2 += *(*float32)(unsafe.Add(p, 2*1024+(wb>>14)&0x3fc))
		s3 += *(*float32)(unsafe.Add(p, 3*1024+(wa>>22)&0x3fc))
		t3 += *(*float32)(unsafe.Add(p, 3*1024+(wb>>22)&0x3fc))
		s0 += *(*float32)(unsafe.Add(p, 4*1024+(wa>>30)&0x3fc))
		t0 += *(*float32)(unsafe.Add(p, 4*1024+(wb>>30)&0x3fc))
		s1 += *(*float32)(unsafe.Add(p, 5*1024+(wa>>38)&0x3fc))
		t1 += *(*float32)(unsafe.Add(p, 5*1024+(wb>>38)&0x3fc))
		s2 += *(*float32)(unsafe.Add(p, 6*1024+(wa>>46)&0x3fc))
		t2 += *(*float32)(unsafe.Add(p, 6*1024+(wb>>46)&0x3fc))
		s3 += *(*float32)(unsafe.Add(p, 7*1024+(wa>>54)&0x3fc))
		t3 += *(*float32)(unsafe.Add(p, 7*1024+(wb>>54)&0x3fc))
	}
	for ; i < n; i++ {
		s0 += lut[i*256+int(a[i])]
		t0 += lut[i*256+int(b[i])]
	}
	return (s0 + s1) + (s2 + s3), (t0 + t1) + (t2 + t3)
}
