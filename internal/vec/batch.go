package vec

// This file implements the batched distance kernels used by partition scans
// and multi-query optimization. A partition's vectors are gathered into a
// row-major matrix (the storage blob layout is already row-major float32, so
// gathering is a straight decode) and distances for one or many queries are
// produced in a single call. For L2 the identity
//
//	||q - v||^2 = ||q||^2 + ||v||^2 - 2 q.v
//
// turns the many-to-many case into a blocked matrix multiplication over
// cached norms, which is the same trick the paper uses to hand batches to
// its accelerated linear algebra library.

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

// blockRows is the tile height used by the many-to-many kernel. 64 rows of a
// 128-dim f32 matrix is 32 KiB, sized to stay resident in L1/L2 while a tile
// is reused across all queries.
const blockRows = 64

// DistancesManyToMany computes the full |queries| x |data| distance matrix,
// row-major into out (len >= queries.Rows*data.Rows). Data is processed in
// row tiles so each tile is loaded once and reused across every query — the
// multi-query optimization's compute-sharing step.
//
// queryNorms/rowNorms are optional precomputed squared L2 norms (used for
// the L2 metric); pass nil to compute on the fly. One query without
// rowNorms has nothing to share, so it is DistancesOneToMany: each
// distance computed directly, with no norm-expansion cancellation error.
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
		for base := 0; base < nd; base += blockRows {
			end := base + blockRows
			if end > nd {
				end = nd
			}
			for qi := 0; qi < queries.Rows; qi++ {
				qrow := queries.Row(qi)
				orow := out[qi*nd:]
				for di := base; di < end; di++ {
					d := qn[qi] + rn[di] - 2*DotProduct(qrow, data.Row(di))
					if d < 0 {
						d = 0
					}
					orow[di] = d
				}
			}
		}
	case Cosine, Dot:
		for base := 0; base < nd; base += blockRows {
			end := base + blockRows
			if end > nd {
				end = nd
			}
			for qi := 0; qi < queries.Rows; qi++ {
				qrow := queries.Row(qi)
				orow := out[qi*nd:]
				if metric == Cosine {
					for di := base; di < end; di++ {
						orow[di] = CosineDistance(qrow, data.Row(di))
					}
				} else {
					for di := base; di < end; di++ {
						orow[di] = -DotProduct(qrow, data.Row(di))
					}
				}
			}
		}
	default:
		panic("vec: unknown metric")
	}
}
