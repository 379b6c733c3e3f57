// Package vec provides float32 vector primitives used throughout MicroNN:
// the on-disk blob codec, distance kernels (squared L2, dot product, cosine),
// and batched kernels that compute distances between one-or-many query
// vectors and a block of data vectors.
//
// The paper offloads these operations to a SIMD-accelerated linear algebra
// library. Here L2Squared and DotProduct, which every other distance in the
// system reduces to, dispatch once per call: on amd64 CPUs with AVX2 and FMA
// (checked with CPUID and XGETBV at start-up) they run assembly kernels with
// four 8-lane FMA accumulators; everywhere else they run generic Go loops
// unrolled 8-wide with independent accumulators. The batch kernels expose
// the same batch-oriented code path as the paper (vectors gathered into
// row-major matrices, one kernel call per block); many-to-many L2 runs in
// an assembly register tile where the CPU allows (batch.go).
//
// On little-endian hosts the blob layout is the in-memory layout of a
// []float32, so the codec is a single copy; big-endian hosts decode per
// element.
package vec

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"unsafe"
)

// Metric identifies the distance function used by an index.
type Metric uint8

const (
	// L2 is squared Euclidean distance. Squared distance preserves the
	// nearest-neighbour ordering of true Euclidean distance and avoids a
	// square root per comparison.
	L2 Metric = iota
	// Cosine is cosine distance, 1 - cos(a, b). Smaller is more similar.
	Cosine
	// Dot is negated inner product so that, like the other metrics,
	// smaller values mean more similar vectors.
	Dot
)

// String returns the metric name used in configuration and dataset tables.
func (m Metric) String() string {
	switch m {
	case L2:
		return "L2"
	case Cosine:
		return "cosine"
	case Dot:
		return "dot"
	default:
		return fmt.Sprintf("Metric(%d)", uint8(m))
	}
}

// ParseMetric converts a metric name ("L2", "cosine", "dot") to a Metric.
func ParseMetric(s string) (Metric, error) {
	switch s {
	case "L2", "l2":
		return L2, nil
	case "cosine", "Cosine":
		return Cosine, nil
	case "dot", "Dot", "ip":
		return Dot, nil
	}
	return L2, fmt.Errorf("vec: unknown metric %q", s)
}

// BlobSize returns the encoded size in bytes of a vector with dim dimensions.
func BlobSize(dim int) int { return 4 * dim }

// littleEndian reports whether the host stores a float32 in the blob's byte
// order, in which case the codec copies bytes instead of decoding elements.
var littleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// floatBytes views v's backing array as bytes.
func floatBytes(v []float32) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(v))), 4*len(v))
}

// ToBlob encodes v as little-endian float32 bytes, appending to dst.
// The layout matches what the batch kernels consume so no further
// marshalling is needed between storage and distance computation.
func ToBlob(dst []byte, v []float32) []byte {
	if littleEndian {
		return append(dst, floatBytes(v)...)
	}
	for _, f := range v {
		dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(f))
	}
	return dst
}

// FromBlob decodes a little-endian float32 blob into dst, which must have
// length at least len(blob)/4. It returns dst for convenience.
func FromBlob(dst []float32, blob []byte) []float32 {
	n := len(blob) / 4
	if len(dst) < n {
		panic("vec: FromBlob destination too short")
	}
	decodeBlob(dst[:n], blob)
	return dst
}

// AppendFromBlob decodes blob and appends the values to dst.
func AppendFromBlob(dst []float32, blob []byte) []float32 {
	n := len(blob) / 4
	dst = slices.Grow(dst, n)
	decodeBlob(dst[len(dst):len(dst)+n], blob)
	return dst[:len(dst)+n]
}

// decodeBlob fills dst with the first len(dst) float32 values of blob.
func decodeBlob(dst []float32, blob []byte) {
	if littleEndian {
		copy(floatBytes(dst), blob)
		return
	}
	for i := range dst {
		dst[i] = math.Float32frombits(binary.LittleEndian.Uint32(blob[i*4:]))
	}
}

// L2Squared returns the squared Euclidean distance between a and b.
func L2Squared(a, b []float32) float32 {
	if len(a) != len(b) {
		panic("vec: dimension mismatch")
	}
	return l2(a, b)
}

// DotProduct returns the inner product of a and b.
func DotProduct(a, b []float32) float32 {
	if len(a) != len(b) {
		panic("vec: dimension mismatch")
	}
	return dot(a, b)
}

// l2Generic is the portable squared-L2 kernel for len(b) >= len(a).
// The loop is unrolled 8-wide with eight independent accumulators so the
// reduction never serializes through one register, and the up-front bounds
// hint on b lets the compiler drop the per-element bounds checks.
func l2Generic(a, b []float32) float32 {
	n := len(a)
	if n == 0 {
		return 0
	}
	_ = b[n-1] // bounds hint: len(b) >= n
	var s0, s1, s2, s3, s4, s5, s6, s7 float32
	i := 0
	for ; i+8 <= n; i += 8 {
		d0 := a[i] - b[i]
		d1 := a[i+1] - b[i+1]
		d2 := a[i+2] - b[i+2]
		d3 := a[i+3] - b[i+3]
		d4 := a[i+4] - b[i+4]
		d5 := a[i+5] - b[i+5]
		d6 := a[i+6] - b[i+6]
		d7 := a[i+7] - b[i+7]
		s0 += d0 * d0
		s1 += d1 * d1
		s2 += d2 * d2
		s3 += d3 * d3
		s4 += d4 * d4
		s5 += d5 * d5
		s6 += d6 * d6
		s7 += d7 * d7
	}
	for ; i < n; i++ {
		d := a[i] - b[i]
		s0 += d * d
	}
	return ((s0 + s1) + (s2 + s3)) + ((s4 + s5) + (s6 + s7))
}

// dotGeneric is the portable inner-product kernel for len(b) >= len(a),
// unrolled 8-wide with independent accumulators like l2Generic.
func dotGeneric(a, b []float32) float32 {
	n := len(a)
	if n == 0 {
		return 0
	}
	_ = b[n-1] // bounds hint: len(b) >= n
	var s0, s1, s2, s3, s4, s5, s6, s7 float32
	i := 0
	for ; i+8 <= n; i += 8 {
		s0 += a[i] * b[i]
		s1 += a[i+1] * b[i+1]
		s2 += a[i+2] * b[i+2]
		s3 += a[i+3] * b[i+3]
		s4 += a[i+4] * b[i+4]
		s5 += a[i+5] * b[i+5]
		s6 += a[i+6] * b[i+6]
		s7 += a[i+7] * b[i+7]
	}
	for ; i < n; i++ {
		s0 += a[i] * b[i]
	}
	return ((s0 + s1) + (s2 + s3)) + ((s4 + s5) + (s6 + s7))
}

// Norm returns the Euclidean norm of v.
func Norm(v []float32) float32 {
	return float32(math.Sqrt(float64(DotProduct(v, v))))
}

// Normalize scales v in place to unit length. Zero vectors are unchanged.
func Normalize(v []float32) {
	n := Norm(v)
	if n == 0 {
		return
	}
	inv := 1 / n
	for i := range v {
		v[i] *= inv
	}
}

// CosineDistance returns 1 - cos(a, b). If either vector has zero norm the
// distance is defined as 1 (orthogonal).
func CosineDistance(a, b []float32) float32 {
	dot := DotProduct(a, b)
	na, nb := Norm(a), Norm(b)
	if na == 0 || nb == 0 {
		return 1
	}
	return 1 - dot/(na*nb)
}

// Distance computes the metric m between a and b.
func Distance(m Metric, a, b []float32) float32 {
	switch m {
	case L2:
		return L2Squared(a, b)
	case Cosine:
		return CosineDistance(a, b)
	case Dot:
		return -DotProduct(a, b)
	default:
		panic("vec: unknown metric")
	}
}

// Add accumulates src into dst element-wise.
func Add(dst, src []float32) {
	for i := range dst {
		dst[i] += src[i]
	}
}

// Scale multiplies every element of v by f.
func Scale(v []float32, f float32) {
	for i := range v {
		v[i] *= f
	}
}

// Lerp moves c toward x with learning rate eta: c = (1-eta)*c + eta*x.
// This is the mini-batch k-means centroid update (Algorithm 1, line 13).
func Lerp(c, x []float32, eta float32) {
	om := 1 - eta
	for i := range c {
		c[i] = om*c[i] + eta*x[i]
	}
}
