// Package quant implements MicroNN's scalar quantization: vectors are
// compressed to one byte per dimension (SQ8) or one packed nibble per
// dimension (SQ4) with a per-dimension affine codebook, cutting the bytes
// read by a partition scan 4x or 8x versus float32. Distances against
// quantized codes are computed asymmetrically — the query stays float32
// while data vectors remain encoded — so scan-time precision loss stays
// small, and the search layer reranks the top candidates against exact
// float32 vectors to recover full-precision ordering ("Quantization for
// Vector Search under Streaming Updates", PAPERS.md). An SQ8 L2 query
// scores codes straight from 2·dim per-query coefficients, with no lookup
// table to build (an AVX2 kernel scores four rows at a time on amd64); SQ4
// queries read per-byte nibble tables (kernels.go).
//
// The codebook is trained at index-build time and persisted beside the
// centroid table; the delta-store keeps raw float32 vectors so streaming
// inserts never need retraining. The trainer streams per-dimension ranges
// in O(dim) memory and, when a clip percentile is configured, also keeps a
// bounded reservoir sample so the codebook range can be set from the
// [p, 1-p] quantiles instead of the observed extremes. Clipping makes the
// 16-level SQ4 grid robust to outliers: a single extreme value no longer
// stretches a dimension's range and collapses everything else onto a few
// codes. Values outside the trained (possibly clipped) range clamp to the
// range edges, which the exact rerank corrects.
package quant

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
)

// Type selects a quantization scheme for an index.
type Type uint8

const (
	// None stores and scans full-precision float32 vectors.
	None Type = iota
	// SQ8 stores one byte per dimension with a per-dimension affine
	// codebook and reranks against exact vectors.
	SQ8
	// SQ4 stores one nibble per dimension — two dimensions bit-packed per
	// byte — halving scanned bytes again versus SQ8. The coarser 16-level
	// grid relies on quantile-clipped training and exact rerank to hold
	// recall.
	SQ4
)

// String names the quantization type as used in configuration.
func (t Type) String() string {
	switch t {
	case None:
		return "none"
	case SQ8:
		return "sq8"
	case SQ4:
		return "sq4"
	default:
		return fmt.Sprintf("Type(%d)", uint8(t))
	}
}

// ParseType converts a quantization name ("none", "sq8", "sq4") to a Type.
func ParseType(s string) (Type, error) {
	switch s {
	case "", "none", "None":
		return None, nil
	case "sq8", "SQ8":
		return SQ8, nil
	case "sq4", "SQ4":
		return SQ4, nil
	}
	return None, fmt.Errorf("quant: unknown quantization %q", s)
}

// levels is the number of representable codes per dimension for SQ8.
const levels = 256

// sq4Levels is the number of representable codes per dimension for SQ4.
const sq4Levels = 16

// maxCode returns the largest code value for type t (255 or 15).
func (t Type) maxCode() int {
	if t == SQ4 {
		return sq4Levels - 1
	}
	return levels - 1
}

// Codebook is a trained per-dimension affine codec: dimension d of a
// vector is encoded as round((v-Min[d])/Delta[d]) clamped to [0,maxCode],
// and decoded as Min[d] + code*Delta[d]. Delta is (hi-lo)/maxCode over the
// trained (possibly quantile-clipped) range; a constant dimension has
// Delta 0 and always encodes to 0.
//
// Kind selects the code layout: SQ8 stores one byte per dimension; SQ4
// packs two 4-bit codes per byte, even dimension in the low nibble and odd
// dimension in the high nibble (an odd trailing dimension leaves the final
// high nibble zero). The zero Kind is treated as SQ8.
type Codebook struct {
	Kind  Type
	Min   []float32
	Delta []float32
}

// kind normalizes the Kind field: anything other than SQ4 behaves as SQ8.
func (cb *Codebook) kind() Type {
	if cb.Kind == SQ4 {
		return SQ4
	}
	return SQ8
}

// Dim returns the codebook's dimensionality.
func (cb *Codebook) Dim() int { return len(cb.Min) }

// CodeSize returns the encoded size in bytes of one vector: dim for SQ8,
// ceil(dim/2) for SQ4.
func (cb *Codebook) CodeSize() int {
	if cb.kind() == SQ4 {
		return (len(cb.Min) + 1) / 2
	}
	return len(cb.Min)
}

// Encode appends the quantized code of v to dst.
func (cb *Codebook) Encode(dst []byte, v []float32) []byte {
	if len(v) != len(cb.Min) {
		panic("quant: dimension mismatch")
	}
	if cb.kind() == SQ4 {
		n := len(v)
		for d := 0; d+2 <= n; d += 2 {
			lo := cb.encodeDim(d, v[d])
			hi := cb.encodeDim(d+1, v[d+1])
			dst = append(dst, lo|hi<<4)
		}
		if n%2 == 1 {
			dst = append(dst, cb.encodeDim(n-1, v[n-1]))
		}
		return dst
	}
	for d, x := range v {
		dst = append(dst, cb.encodeDim(d, x))
	}
	return dst
}

func (cb *Codebook) encodeDim(d int, x float32) byte {
	delta := cb.Delta[d]
	if delta == 0 {
		return 0
	}
	max := float64(cb.kind().maxCode())
	c := math.Round(float64(x-cb.Min[d]) / float64(delta))
	if c < 0 {
		c = 0
	} else if c > max {
		c = max
	}
	return byte(c)
}

// Decode reconstructs the approximate float32 vector from code into dst,
// which must have length cb.Dim().
func (cb *Codebook) Decode(dst []float32, code []byte) []float32 {
	if len(code) != cb.CodeSize() || len(dst) != len(cb.Min) {
		panic("quant: dimension mismatch")
	}
	if cb.kind() == SQ4 {
		for d := range dst {
			b := code[d/2]
			var c byte
			if d%2 == 0 {
				c = b & 0x0f
			} else {
				c = b >> 4
			}
			dst[d] = cb.Min[d] + float32(c)*cb.Delta[d]
		}
		return dst
	}
	for d, c := range code {
		dst[d] = cb.Min[d] + float32(c)*cb.Delta[d]
	}
	return dst
}

// codebookVersion is the persisted codebook layout: a version byte, a kind
// byte (SQ8 or SQ4), a uint32 dimension, then the Min and Delta arrays as
// little-endian float32. Version 2 is the only layout; UnmarshalCodebook
// rejects any other version byte.
const codebookVersion = 2

// codebookHeader is the byte length of the version, kind and dimension.
const codebookHeader = 6

// Marshal serializes the codebook in the codebookVersion layout. This is
// the on-disk format stored in the index meta table.
func (cb *Codebook) Marshal() []byte {
	dim := len(cb.Min)
	out := make([]byte, 0, codebookHeader+8*dim)
	out = append(out, codebookVersion, byte(cb.kind()))
	out = binary.LittleEndian.AppendUint32(out, uint32(dim))
	for _, m := range cb.Min {
		out = binary.LittleEndian.AppendUint32(out, math.Float32bits(m))
	}
	for _, d := range cb.Delta {
		out = binary.LittleEndian.AppendUint32(out, math.Float32bits(d))
	}
	return out
}

// UnmarshalCodebook parses a codebook serialized by Marshal.
func UnmarshalCodebook(blob []byte) (*Codebook, error) {
	if len(blob) < codebookHeader {
		return nil, fmt.Errorf("quant: codebook blob too short (%d bytes)", len(blob))
	}
	if blob[0] != codebookVersion {
		return nil, fmt.Errorf("quant: unsupported codebook version %d", blob[0])
	}
	kind := Type(blob[1])
	if kind != SQ8 && kind != SQ4 {
		return nil, fmt.Errorf("quant: unknown codebook kind %d", blob[1])
	}
	dim := int(binary.LittleEndian.Uint32(blob[2:]))
	if len(blob) != codebookHeader+8*dim {
		return nil, fmt.Errorf("quant: codebook blob size %d, want %d for dim %d", len(blob), codebookHeader+8*dim, dim)
	}
	cb := &Codebook{Kind: kind, Min: make([]float32, dim), Delta: make([]float32, dim)}
	off := codebookHeader
	for d := 0; d < dim; d++ {
		cb.Min[d] = math.Float32frombits(binary.LittleEndian.Uint32(blob[off:]))
		off += 4
	}
	for d := 0; d < dim; d++ {
		cb.Delta[d] = math.Float32frombits(binary.LittleEndian.Uint32(blob[off:]))
		off += 4
	}
	return cb, nil
}

// reservoirCap bounds the trainer's vector sample used for quantile
// estimation: 1024 rows keeps memory at dim*4 KiB while putting ~5 sample
// points beyond a 0.5% clip on each side.
const reservoirCap = 1024

// minClipSample is the smallest reservoir that supports quantile clipping;
// below it the trainer falls back to the full min/max range.
const minClipSample = 20

// Trainer accumulates per-dimension ranges over a streamed pass of the
// collection. Memory is O(dim) for the min/max pass plus a bounded
// reservoir sample (reservoirCap rows) when quantile clipping is enabled,
// preserving the bounded-memory discipline of the index build path.
type Trainer struct {
	kind Type
	clip float64
	min  []float32
	max  []float32
	seen bool

	count   int64
	sample  []float32 // reservoir, row-major: nsample rows of dim
	nsample int
	rng     uint64
}

// NewTrainer returns an SQ8 trainer with no clipping for dim-dimensional
// vectors, the pre-SQ4 behavior.
func NewTrainer(dim int) *Trainer {
	return NewTrainerKind(SQ8, dim, 0)
}

// NewTrainerKind returns a trainer producing a codebook of the given kind.
// clipPercentile in (0, 0.5) trims each dimension's range to the
// [p, 1-p] quantiles of a reservoir sample; 0 (or out-of-range values)
// trains on the full observed min/max.
func NewTrainerKind(kind Type, dim int, clipPercentile float64) *Trainer {
	if kind != SQ4 {
		kind = SQ8
	}
	if clipPercentile < 0 || clipPercentile >= 0.5 || math.IsNaN(clipPercentile) {
		clipPercentile = 0
	}
	t := &Trainer{
		kind: kind,
		clip: clipPercentile,
		min:  make([]float32, dim),
		max:  make([]float32, dim),
		rng:  0x9e3779b97f4a7c15, // fixed seed: training is deterministic in stream order
	}
	if t.clip > 0 {
		t.sample = make([]float32, 0, reservoirCap*dim)
	}
	return t
}

// nextRand is a xorshift64 step returning a value in [0, bound).
func (t *Trainer) nextRand(bound int64) int64 {
	t.rng ^= t.rng << 13
	t.rng ^= t.rng >> 7
	t.rng ^= t.rng << 17
	return int64(t.rng % uint64(bound))
}

// Add folds one vector into the running ranges (and, when clipping, the
// reservoir sample).
func (t *Trainer) Add(v []float32) {
	dim := len(t.min)
	if len(v) != dim {
		panic("quant: dimension mismatch")
	}
	if !t.seen {
		copy(t.min, v)
		copy(t.max, v)
		t.seen = true
	} else {
		for d, x := range v {
			if x < t.min[d] {
				t.min[d] = x
			}
			if x > t.max[d] {
				t.max[d] = x
			}
		}
	}
	t.count++
	if t.clip <= 0 {
		return
	}
	if t.nsample < reservoirCap {
		t.sample = append(t.sample, v...)
		t.nsample++
		return
	}
	if j := t.nextRand(t.count); j < reservoirCap {
		copy(t.sample[int(j)*dim:(int(j)+1)*dim], v)
	}
}

// Codebook finalizes the trained ranges into a codebook. Training on an
// empty stream yields an all-zero codebook (every code decodes to zero).
// With clipping enabled and enough samples, each dimension's range is the
// [clip, 1-clip] quantile interval of the reservoir; degenerate intervals
// fall back to that dimension's full range.
func (t *Trainer) Codebook() *Codebook {
	dim := len(t.min)
	cb := &Codebook{Kind: t.kind, Min: make([]float32, dim), Delta: make([]float32, dim)}
	if !t.seen {
		return cb
	}
	maxCode := float32(t.kind.maxCode())
	var col []float32
	useClip := t.clip > 0 && t.nsample >= minClipSample
	if useClip {
		col = make([]float32, t.nsample)
	}
	for d := 0; d < dim; d++ {
		lo, hi := t.min[d], t.max[d]
		if useClip {
			for i := 0; i < t.nsample; i++ {
				col[i] = t.sample[i*dim+d]
			}
			sort.Slice(col, func(a, b int) bool { return col[a] < col[b] })
			qlo := col[int(t.clip*float64(t.nsample-1))]
			qhi := col[int(math.Ceil((1-t.clip)*float64(t.nsample-1)))]
			if qhi > qlo {
				lo, hi = qlo, qhi
			}
		}
		cb.Min[d] = lo
		cb.Delta[d] = (hi - lo) / maxCode
	}
	return cb
}

// ClipPercentile reports the clip percentile this trainer was built with
// (0 when clipping is disabled).
func (t *Trainer) ClipPercentile() float64 { return t.clip }
