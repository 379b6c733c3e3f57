package rescache

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"sort"

	"micronn/internal/reldb"
	"micronn/internal/stats"
	"micronn/internal/token"
)

// Key is the 128-bit fingerprint of a canonicalized query.
type Key [16]byte

// Request kinds (a point search and a batch never share a key even when
// the batch holds exactly one vector, because their response types differ).
const (
	KindSearch byte = 'S'
	KindBatch  byte = 'B'
	KindHybrid byte = 'H'
)

// Request is the canonicalizable description of a query. The caller is
// expected to resolve database-level defaults first (K=0 → 10, NProbe=0 →
// 8, RerankFactor → the configured default on quantized stores and 0 on
// unquantized ones, Plan → 0 when no filters are present, NProbe/Rerank →
// 0 under Exact) so that requests the engine treats identically collide to
// one key. KeyOf then canonicalizes what the engine itself is insensitive
// to: filter order and duplication, NaN payloads and the sign of zero.
type Request struct {
	Kind         byte
	K            int
	NProbe       int
	RerankFactor int
	Plan         int
	Exact        bool
	Vectors      [][]float32
	Filters      []stats.Filter

	// Hybrid-query fields (zero for KindSearch/KindBatch). Text is hashed
	// as its sorted unique token set — the engine tokenizes the same way, so
	// queries equal after tokenization share one entry.
	Text         string
	TextCol      string
	FusionK      int
	Weighted     bool
	VectorWeight float64
	TextWeight   float64
}

// KeyOf returns the fingerprint of the canonical form of r. It is total:
// any Request value — including garbage operator or type bytes smuggled
// into filters — hashes without panicking, and semantically equal requests
// produce equal keys:
//
//   - Filters is a conjunction, so filter order is irrelevant and repeated
//     filters are idempotent: filters are encoded, sorted and deduplicated.
//   - Filter.AnyOf is a disjunction with the same two properties:
//     predicates are encoded, sorted and deduplicated within each filter.
//   - Every NaN bit pattern compares and computes identically (reldb
//     compares collapse NaN, distance kernels propagate it), so all NaNs
//     collapse to one canonical pattern, in query vectors and in predicate
//     operands alike.
//   - Negative zero equals positive zero in every comparison and distance,
//     so -0 maps to +0.
//   - A MATCH filter means its query's unique token set, so a MATCH on a
//     text operand is encoded as that set: "cat dog", "dog cat" and
//     "CAT dog" share one key.
//
// Vector order within a batch is significant (results come back in request
// order) and is preserved.
func KeyOf(r Request) Key {
	h := fnv.New128a()
	var buf [8]byte
	writeU64 := func(v uint64) {
		binary.BigEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	exact := byte(0)
	if r.Exact {
		exact = 1
	}
	h.Write([]byte{r.Kind, exact})
	writeU64(uint64(int64(r.K)))
	writeU64(uint64(int64(r.NProbe)))
	writeU64(uint64(int64(r.RerankFactor)))
	writeU64(uint64(int64(r.Plan)))
	writeU64(uint64(len(r.Vectors)))
	for _, v := range r.Vectors {
		writeU64(uint64(len(v)))
		for _, x := range v {
			binary.BigEndian.PutUint32(buf[:4], canonFloat32(x))
			h.Write(buf[:4])
		}
	}
	h.Write(canonFilters(r.Filters))
	// Hybrid fields are appended after the base encoding; keys are
	// process-local fingerprints, so extending the preimage is safe.
	toks := token.Unique(r.Text)
	writeU64(uint64(len(toks)))
	for _, t := range toks {
		writeU64(uint64(len(t)))
		h.Write([]byte(t))
	}
	writeU64(uint64(len(r.TextCol)))
	h.Write([]byte(r.TextCol))
	writeU64(uint64(int64(r.FusionK)))
	weighted := byte(0)
	if r.Weighted {
		weighted = 1
	}
	h.Write([]byte{weighted})
	writeU64(canonFloat64(r.VectorWeight))
	writeU64(canonFloat64(r.TextWeight))
	var k Key
	copy(k[:], h.Sum(nil))
	return k
}

// canonFloat32 returns the canonical bit pattern of x: one pattern for
// every NaN, +0 for -0.
func canonFloat32(x float32) uint32 {
	if x != x {
		return 0x7fc00000
	}
	b := math.Float32bits(x)
	if b == 0x80000000 {
		return 0
	}
	return b
}

// canonFloat64 is canonFloat32 for predicate operands.
func canonFloat64(x float64) uint64 {
	if x != x {
		return 0x7ff8000000000000
	}
	b := math.Float64bits(x)
	if b == 0x8000000000000000 {
		return 0
	}
	return b
}

// canonFilters encodes the conjunction in canonical form: each filter's
// canonical encoding, sorted, deduplicated, length-prefixed.
func canonFilters(fs []stats.Filter) []byte {
	if len(fs) == 0 {
		return nil
	}
	encs := make([]string, len(fs))
	for i, f := range fs {
		encs[i] = canonFilter(f)
	}
	sort.Strings(encs)
	var out []byte
	for i, e := range encs {
		if i > 0 && e == encs[i-1] {
			continue
		}
		out = appendUvarint(out, uint64(len(e)))
		out = append(out, e...)
	}
	return out
}

// canonFilter encodes one disjunction in canonical form: each predicate's
// encoding, sorted, deduplicated, length-prefixed.
func canonFilter(f stats.Filter) string {
	encs := make([]string, len(f.AnyOf))
	for i, p := range f.AnyOf {
		encs[i] = encodePredicate(p)
	}
	sort.Strings(encs)
	var out []byte
	for i, e := range encs {
		if i > 0 && e == encs[i-1] {
			continue
		}
		out = appendUvarint(out, uint64(len(e)))
		out = append(out, e...)
	}
	return string(out)
}

// encodePredicate renders one predicate injectively: length-prefixed
// column, operator byte, canonical value. A MATCH on a text operand means
// the operand's unique token set, so its value encodes as that set (sorted
// and deduplicated by token.Unique, each token length-prefixed): texts
// that differ only in token order, case, punctuation or repeats share one
// key. Unknown operator or type bytes encode as themselves — garbage stays
// distinct from real predicates and never panics.
func encodePredicate(p reldb.Predicate) string {
	b := appendUvarint(nil, uint64(len(p.Column)))
	b = append(b, p.Column...)
	b = append(b, byte(p.Op))
	if p.Op == reldb.OpMatch && p.Value.Type == reldb.TypeText {
		toks := token.Unique(p.Value.Str)
		b = append(b, byte(reldb.TypeText))
		b = appendUvarint(b, uint64(len(toks)))
		for _, t := range toks {
			b = appendUvarint(b, uint64(len(t)))
			b = append(b, t...)
		}
		return string(b)
	}
	b = appendValue(b, p.Value)
	return string(b)
}

// appendValue appends the canonical encoding of a reldb value: a type byte
// then a type-specific payload (floats canonicalized, variable-length
// payloads length-prefixed). Unknown types encode as the bare type byte.
func appendValue(b []byte, v reldb.Value) []byte {
	b = append(b, byte(v.Type))
	switch v.Type {
	case reldb.TypeInt64:
		b = binary.BigEndian.AppendUint64(b, uint64(v.Int))
	case reldb.TypeFloat64:
		b = binary.BigEndian.AppendUint64(b, canonFloat64(v.Flt))
	case reldb.TypeText:
		b = appendUvarint(b, uint64(len(v.Str)))
		b = append(b, v.Str...)
	case reldb.TypeBlob:
		b = appendUvarint(b, uint64(len(v.Bts)))
		b = append(b, v.Bts...)
	}
	return b
}

func appendUvarint(b []byte, v uint64) []byte {
	return binary.AppendUvarint(b, v)
}
