package rescache

import (
	"encoding/binary"
	"math"
	"slices"
	"strings"
	"testing"

	"micronn/internal/reldb"
	"micronn/internal/stats"
	"micronn/internal/token"
)

// fuzzReader consumes fuzz input bytes as typed fields, yielding zeros when
// the input runs dry so every byte string decodes to SOME request.
type fuzzReader struct {
	data []byte
	pos  int
}

func (r *fuzzReader) byte() byte {
	if r.pos >= len(r.data) {
		return 0
	}
	b := r.data[r.pos]
	r.pos++
	return b
}

func (r *fuzzReader) u32() uint32 {
	var b [4]byte
	for i := range b {
		b[i] = r.byte()
	}
	return binary.LittleEndian.Uint32(b[:])
}

func (r *fuzzReader) f32() float32 { return math.Float32frombits(r.u32()) }

func (r *fuzzReader) str(max int) string {
	n := int(r.byte()) % (max + 1)
	b := make([]byte, n)
	for i := range b {
		b[i] = r.byte()
	}
	return string(b)
}

// requestFromBytes decodes an arbitrary byte string into a Request,
// deliberately passing raw garbage through where the type allows it:
// unvalidated operator and value-type bytes, NaN/±0/Inf vector components,
// unnormalized parameter values.
func requestFromBytes(data []byte) Request {
	r := &fuzzReader{data: data}
	req := Request{
		Kind:         r.byte(),
		K:            int(int8(r.byte())),
		NProbe:       int(int8(r.byte())),
		RerankFactor: int(int8(r.byte())),
		Plan:         int(int8(r.byte())),
		Exact:        r.byte()&1 == 1,
	}
	nvec := int(r.byte() % 3)
	for i := 0; i < nvec; i++ {
		dim := int(r.byte() % 8)
		v := make([]float32, dim)
		for j := range v {
			v[j] = r.f32()
		}
		req.Vectors = append(req.Vectors, v)
	}
	nfil := int(r.byte() % 4)
	for i := 0; i < nfil; i++ {
		npred := int(r.byte() % 4)
		var f stats.Filter
		for j := 0; j < npred; j++ {
			p := reldb.Predicate{
				Column: r.str(6),
				Op:     reldb.Op(r.byte()), // may be garbage
			}
			switch r.byte() % 6 {
			case 0:
				p.Value = reldb.I(int64(int32(r.u32())))
			case 1:
				p.Value = reldb.F(float64(r.f32())) // NaN/±0/Inf reachable
			case 2:
				p.Value = reldb.S(r.str(6))
			case 3:
				p.Value = reldb.B([]byte(r.str(6)))
			case 4:
				p.Value = reldb.Null()
			default:
				// Garbage value type byte with text payload.
				p.Value = reldb.Value{Type: reldb.ColType(r.byte()), Str: r.str(4)}
			}
			f.AnyOf = append(f.AnyOf, p)
		}
		req.Filters = append(req.Filters, f)
	}
	return req
}

// canonNaNZero rewrites the semantically-neutral float representation
// choices in req: every NaN gets a different payload and every zero the
// opposite sign. A correct canonicalizer keys both forms identically.
func canonNaNZero(req Request) Request {
	out := req
	out.Vectors = make([][]float32, len(req.Vectors))
	for i, v := range req.Vectors {
		nv := make([]float32, len(v))
		for j, x := range v {
			switch {
			case x != x:
				nv[j] = math.Float32frombits(0xffc00000 | uint32(j+1))
			case x == 0:
				// Flip the sign of zero.
				if math.Signbit(float64(x)) {
					nv[j] = 0
				} else {
					nv[j] = float32(math.Copysign(0, -1))
				}
			default:
				nv[j] = x
			}
		}
		out.Vectors[i] = nv
	}
	out.Filters = make([]stats.Filter, len(req.Filters))
	for i, f := range req.Filters {
		nf := stats.Filter{AnyOf: make([]reldb.Predicate, len(f.AnyOf))}
		copy(nf.AnyOf, f.AnyOf)
		for j, p := range nf.AnyOf {
			if p.Value.Type == reldb.TypeFloat64 {
				if p.Value.Flt != p.Value.Flt {
					p.Value = reldb.F(math.Float64frombits(0xfff8000000000000 | uint64(j+1)))
				} else if p.Value.Flt == 0 {
					p.Value = reldb.F(math.Copysign(0, -1))
					if math.Signbit(f.AnyOf[j].Value.Flt) {
						p.Value = reldb.F(0)
					}
				}
				nf.AnyOf[j] = p
			}
		}
		out.Filters[i] = nf
	}
	return out
}

// permuteFilters rotates the conjunction, reverses every disjunction and
// duplicates the first element of each — all semantic no-ops.
func permuteFilters(req Request) Request {
	out := req
	out.Filters = make([]stats.Filter, 0, len(req.Filters)+1)
	for i := range req.Filters {
		f := req.Filters[(i+1)%len(req.Filters)]
		nf := stats.Filter{}
		for j := len(f.AnyOf) - 1; j >= 0; j-- {
			nf.AnyOf = append(nf.AnyOf, f.AnyOf[j])
		}
		if len(nf.AnyOf) > 0 {
			nf.AnyOf = append(nf.AnyOf, nf.AnyOf[len(nf.AnyOf)-1])
		}
		out.Filters = append(out.Filters, nf)
	}
	if len(out.Filters) > 0 {
		out.Filters = append(out.Filters, out.Filters[len(out.Filters)-1])
	}
	return out
}

// matchOperands returns the first and the last text operand among req's
// predicates ("" when there is none).
func matchOperands(req Request) (first, last string) {
	seen := false
	for _, f := range req.Filters {
		for _, p := range f.AnyOf {
			if p.Value.Type == reldb.TypeText {
				if !seen {
					first, seen = p.Value.Str, true
				}
				last = p.Value.Str
			}
		}
	}
	return first, last
}

// matchRequest is a search whose one filter is a MATCH on text.
func matchRequest(text string) Request {
	return Request{Kind: KindSearch, K: 10, Vectors: [][]float32{{1}}, Filters: []stats.Filter{
		{AnyOf: []reldb.Predicate{{Column: "tags", Op: reldb.OpMatch, Value: reldb.S(text)}}},
	}}
}

// sameTokens rewrites text into another text with the same unique token
// set: its tokens in reverse order, the first one repeated, ASCII letters
// upper-cased, joined by punctuation.
func sameTokens(text string) string {
	toks := token.Tokenize(text)
	var b strings.Builder
	for i := len(toks) - 1; i >= 0; i-- {
		for _, r := range toks[i] {
			if r >= 'a' && r <= 'z' {
				r -= 'a' - 'A'
			}
			b.WriteRune(r)
		}
		b.WriteString(" ,")
	}
	if len(toks) > 0 {
		b.WriteString(toks[0])
	}
	return b.String()
}

// FuzzCacheKey asserts that key canonicalization is total and stable:
// arbitrary request bytes never panic, hashing is deterministic, and the
// semantically-neutral rewrites (filter permutation/duplication, NaN
// payloads, zero signs) always collide to the same key. MATCH filters key
// by their operand's unique token set: a MATCH on the first and one on the
// last text operand of the request share a key exactly when the operands'
// token sets are equal, and a rewrite of an operand that keeps its token
// set keeps its key.
func FuzzCacheKey(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("S\x0a\x08\x04\x00\x00\x01\x04\x00\x00\x80\x3f\x00\x00\x80\x7f"))
	f.Add([]byte{0x42, 0xff, 0x80, 0x7f, 0x01, 0x01, 0x02, 0x03, 0x00, 0x00, 0xc0, 0x7f, 0x00, 0x00, 0x00, 0x80})
	f.Add([]byte("B\x01\x01\x01\x01\x00\x00\x03\x02\x03tag\x06\x01dog park"))
	f.Add([]byte("S\x01\x01\x01\x01\x00\x00\x01\x02\x04tags\x06\x02\x06cat dog\x04tags\x06\x02\x06DOG,ca"))
	f.Fuzz(func(t *testing.T, data []byte) {
		req := requestFromBytes(data)
		k1 := KeyOf(req)
		if k2 := KeyOf(req); k2 != k1 {
			t.Fatalf("KeyOf is not deterministic: %x vs %x", k1, k2)
		}
		if pk := KeyOf(permuteFilters(req)); pk != k1 {
			t.Fatalf("permuted/duplicated filters changed the key: %x vs %x", k1, pk)
		}
		if ck := KeyOf(canonNaNZero(req)); ck != k1 {
			t.Fatalf("NaN payload / zero sign changed the key: %x vs %x", k1, ck)
		}
		if ck := KeyOf(permuteFilters(canonNaNZero(req))); ck != k1 {
			t.Fatalf("composed rewrites changed the key: %x vs %x", k1, ck)
		}
		a, b := matchOperands(req)
		ka, kb := KeyOf(matchRequest(a)), KeyOf(matchRequest(b))
		if same := slices.Equal(token.Unique(a), token.Unique(b)); (ka == kb) != same {
			t.Fatalf("MATCH %q and %q: equal keys %v, equal token sets %v", a, b, ka == kb, same)
		}
		if kr := KeyOf(matchRequest(sameTokens(a))); kr != ka {
			t.Fatalf("MATCH %q and %q have one token set but different keys", a, sameTokens(a))
		}
	})
}
