package vec

// This file implements the batched distance kernels used by partition scans,
// multi-query optimization and index builds. A partition's vectors are
// gathered into a row-major matrix (the storage blob layout is already
// row-major float32, so gathering is a straight decode) and distances for
// one or many queries are produced in a single call. For L2 the identity
//
//	||x - c||^2 = ||x||^2 + ||c||^2 - 2 x.c
//
// turns the many-to-many case into a matrix product over cached norms, the
// batched form in which the paper hands distances to its accelerated
// linear-algebra library. On amd64 with AVX2 and FMA that product runs in
// an assembly register tile: twelve accumulators hold a 3x4 block of dot
// products, so each loaded element feeds three or four FMAs instead of
// one, and the kernel adds the norms and clamps in place. Rows and columns
// left over from the tiles, dims that are not a multiple of 8 and other
// CPUs take one dot product per pair through the same formula.

// Matrix is a dense row-major float32 matrix: Rows vectors of Dim elements.
type Matrix struct {
	Data []float32
	Rows int
	Dim  int
}

// NewMatrix allocates a zeroed Rows x Dim matrix.
func NewMatrix(rows, dim int) *Matrix {
	return &Matrix{Data: make([]float32, rows*dim), Rows: rows, Dim: dim}
}

// Row returns the i'th row as a slice aliasing the matrix storage.
func (m *Matrix) Row(i int) []float32 {
	return m.Data[i*m.Dim : (i+1)*m.Dim]
}

// Slice returns rows [lo, hi) as a matrix aliasing m's storage.
func (m *Matrix) Slice(lo, hi int) *Matrix {
	return &Matrix{Data: m.Data[lo*m.Dim : hi*m.Dim], Rows: hi - lo, Dim: m.Dim}
}

// SetRow copies v into row i.
func (m *Matrix) SetRow(i int, v []float32) {
	copy(m.Row(i), v)
}

// AppendRowBlob decodes a float32 blob directly into the next row.
// The caller tracks the row count; row i must be < Rows.
func (m *Matrix) AppendRowBlob(i int, blob []byte) {
	FromBlob(m.Row(i), blob)
}

// Norms returns the squared L2 norm of every row, appending into dst.
func (m *Matrix) Norms(dst []float32) []float32 {
	for i := 0; i < m.Rows; i++ {
		r := m.Row(i)
		dst = append(dst, DotProduct(r, r))
	}
	return dst
}

// DistancesOneToMany computes metric distances from query q to every row of
// data, writing results into out (which must have length data.Rows).
// rowNorms may be nil; for L2 and Cosine supplying precomputed squared norms
// (L2) or norms implied by normalized rows avoids recomputation.
func DistancesOneToMany(metric Metric, q []float32, data *Matrix, rowNorms []float32, out []float32) {
	switch metric {
	case L2:
		if rowNorms != nil {
			qn := DotProduct(q, q)
			for i := 0; i < data.Rows; i++ {
				d := qn + rowNorms[i] - 2*DotProduct(q, data.Row(i))
				if d < 0 {
					d = 0 // guard tiny negative from fp cancellation
				}
				out[i] = d
			}
			return
		}
		for i := 0; i < data.Rows; i++ {
			out[i] = L2Squared(q, data.Row(i))
		}
	case Cosine:
		for i := 0; i < data.Rows; i++ {
			out[i] = CosineDistance(q, data.Row(i))
		}
	case Dot:
		for i := 0; i < data.Rows; i++ {
			out[i] = -DotProduct(q, data.Row(i))
		}
	default:
		panic("vec: unknown metric")
	}
}

// DistancesManyToMany computes the full |queries| x |data| distance matrix,
// row-major into out (len >= queries.Rows*data.Rows).
//
// queryNorms/rowNorms are optional precomputed squared L2 norms (used for
// the L2 metric); pass nil to compute them here. L2 distances come from the
// norm expansion, clamped at 0 against cancellation: in 3x4 register tiles
// where the CPU and dim allow (see the file comment), one dot product per
// pair elsewhere. The tile sums each dot product in another order than
// DotProduct, so its results may differ from the pairwise ones in the last
// bits. One query without rowNorms has nothing to share, so it is
// DistancesOneToMany: each distance computed directly, with no
// norm-expansion cancellation error.
func DistancesManyToMany(metric Metric, queries, data *Matrix, queryNorms, rowNorms []float32, out []float32) {
	if queries.Dim != data.Dim {
		panic("vec: dimension mismatch")
	}
	nd := data.Rows
	if queries.Rows == 1 && rowNorms == nil {
		DistancesOneToMany(metric, queries.Row(0), data, nil, out[:nd])
		return
	}
	switch metric {
	case L2:
		qn := queryNorms
		if qn == nil {
			qn = queries.Norms(make([]float32, 0, queries.Rows))
		}
		rn := rowNorms
		if rn == nil {
			rn = data.Norms(make([]float32, 0, nd))
		}
		l2ManyToMany(queries, data, qn, rn, out)
	case Cosine:
		for qi := 0; qi < queries.Rows; qi++ {
			qrow, orow := queries.Row(qi), out[qi*nd:(qi+1)*nd]
			for di := range orow {
				orow[di] = CosineDistance(qrow, data.Row(di))
			}
		}
	case Dot:
		for qi := 0; qi < queries.Rows; qi++ {
			qrow, orow := queries.Row(qi), out[qi*nd:(qi+1)*nd]
			for di := range orow {
				orow[di] = -DotProduct(qrow, data.Row(di))
			}
		}
	default:
		panic("vec: unknown metric")
	}
}

// l2ManyToMany is the L2 branch of DistancesManyToMany: the tiles cover the
// first rows and columns in multiples of 3 and 4, and every pair outside
// them is one dot product.
func l2ManyToMany(queries, data *Matrix, qn, rn, out []float32) {
	nq, nd, dim := queries.Rows, data.Rows, queries.Dim
	tr, tc := 0, 0 // rows and columns the tiles cover
	if hasL2Strip && dim > 0 && dim%8 == 0 && nd >= 4 {
		tr, tc = nq-nq%3, nd-nd%4
	}
	for r := 0; r < tr; r += 3 {
		l2Strip(queries.Data[r*dim:], data.Data, dim, tc, qn[r:], rn, out[r*nd:], nd)
	}
	for r := 0; r < nq; r++ {
		c0 := tc
		if r >= tr {
			c0 = 0
		}
		qrow, orow := queries.Row(r), out[r*nd:(r+1)*nd]
		for c := c0; c < nd; c++ {
			d := qn[r] + rn[c] - 2*dot(qrow, data.Row(c))
			if d < 0 {
				d = 0
			}
			orow[c] = d
		}
	}
}
