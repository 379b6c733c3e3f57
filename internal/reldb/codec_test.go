package reldb

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestKeyRoundTrip(t *testing.T) {
	rows := []Row{
		{I(0)}, {I(-1)}, {I(math.MaxInt64)}, {I(math.MinInt64)},
		{F(0)}, {F(-1.5)}, {F(math.MaxFloat64)}, {F(-math.MaxFloat64)},
		{S("")}, {S("hello")}, {S("with\x00null")}, {S("ünïcödé")},
		{B(nil)}, {B([]byte{0, 1, 2, 0xFF, 0})},
		{Null()},
		{I(42), S("composite"), F(3.14)},
		{S("a\x00b"), S("a"), I(-7), Null(), B([]byte{0})},
	}
	for _, row := range rows {
		enc := EncodeKey(nil, row...)
		dec, err := DecodeKey(enc, len(row))
		if err != nil {
			t.Fatalf("DecodeKey(%v): %v", row, err)
		}
		for i := range row {
			if Compare(row[i], dec[i]) != 0 || row[i].Type != dec[i].Type {
				t.Errorf("round trip %v: got %v", row, dec)
			}
		}
	}
}

func TestKeyOrderPreservingInts(t *testing.T) {
	f := func(a, b int64) bool {
		ea := EncodeKey(nil, I(a))
		eb := EncodeKey(nil, I(b))
		cmp := bytes.Compare(ea, eb)
		switch {
		case a < b:
			return cmp < 0
		case a > b:
			return cmp > 0
		default:
			return cmp == 0
		}
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestKeyOrderPreservingFloats(t *testing.T) {
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) {
			return true // NaN ordering is undefined; schemas reject NaN keys upstream
		}
		ea := EncodeKey(nil, F(a))
		eb := EncodeKey(nil, F(b))
		cmp := bytes.Compare(ea, eb)
		switch {
		case a < b:
			return cmp < 0
		case a > b:
			return cmp > 0
		default:
			return cmp == 0
		}
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestKeyOrderPreservingStrings(t *testing.T) {
	f := func(a, b string) bool {
		ea := EncodeKey(nil, S(a))
		eb := EncodeKey(nil, S(b))
		cmp := bytes.Compare(ea, eb)
		switch {
		case a < b:
			return cmp < 0
		case a > b:
			return cmp > 0
		default:
			return cmp == 0
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestKeyOrderPreservingComposite(t *testing.T) {
	f := func(a1, b1 int64, a2, b2 string) bool {
		ea := EncodeKey(nil, I(a1), S(a2))
		eb := EncodeKey(nil, I(b1), S(b2))
		cmp := bytes.Compare(ea, eb)
		var want int
		switch {
		case a1 < b1:
			want = -1
		case a1 > b1:
			want = 1
		case a2 < b2:
			want = -1
		case a2 > b2:
			want = 1
		}
		switch want {
		case -1:
			return cmp < 0
		case 1:
			return cmp > 0
		default:
			return cmp == 0
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestNullSortsFirst(t *testing.T) {
	null := EncodeKey(nil, Null())
	for _, v := range []Value{I(math.MinInt64), F(-math.MaxFloat64), S(""), B(nil)} {
		if bytes.Compare(null, EncodeKey(nil, v)) >= 0 {
			t.Errorf("null does not sort before %v", v)
		}
	}
}

func TestRowRoundTrip(t *testing.T) {
	rows := []Row{
		{I(5), F(2.5), S("text"), B([]byte{1, 2}), Null()},
		{},
		{S("")},
		{I(-1 << 62)},
	}
	for _, row := range rows {
		enc := EncodeRow(nil, row)
		dec, err := DecodeRow(enc, len(row))
		if err != nil {
			t.Fatalf("DecodeRow(%v): %v", row, err)
		}
		for i := range row {
			if Compare(row[i], dec[i]) != 0 || row[i].Type != dec[i].Type {
				t.Errorf("round trip %v -> %v", row, dec)
			}
		}
	}
}

func TestRowRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(6)
		row := make(Row, n)
		for i := range row {
			switch rng.Intn(5) {
			case 0:
				row[i] = I(rng.Int63() - rng.Int63())
			case 1:
				row[i] = F(rng.NormFloat64())
			case 2:
				buf := make([]byte, rng.Intn(50))
				rng.Read(buf)
				row[i] = S(string(buf))
			case 3:
				buf := make([]byte, rng.Intn(50))
				rng.Read(buf)
				row[i] = B(buf)
			case 4:
				row[i] = Null()
			}
		}
		enc := EncodeRow(nil, row)
		dec, err := DecodeRow(enc, n)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for i := range row {
			if Compare(row[i], dec[i]) != 0 {
				t.Fatalf("trial %d col %d: %v != %v", trial, i, row[i], dec[i])
			}
		}
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, _, err := DecodeKeyValue(nil); err == nil {
		t.Error("DecodeKeyValue(nil) should fail")
	}
	if _, _, err := DecodeKeyValue([]byte{tagInt, 1, 2}); err == nil {
		t.Error("truncated int should fail")
	}
	if _, _, err := DecodeKeyValue([]byte{tagText, 'a'}); err == nil {
		t.Error("unterminated string should fail")
	}
	if _, _, err := DecodeKeyValue([]byte{0x99}); err == nil {
		t.Error("unknown tag should fail")
	}
	if _, _, err := DecodeRowValue(nil); err == nil {
		t.Error("DecodeRowValue(nil) should fail")
	}
	if _, _, err := DecodeRowValue([]byte{byte(TypeText), 200}); err == nil {
		t.Error("truncated text row should fail")
	}
}

func TestValueCompare(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{I(1), I(2), -1},
		{I(2), I(1), 1},
		{I(1), I(1), 0},
		{F(1.5), F(2.5), -1},
		{S("a"), S("b"), -1},
		{B([]byte{1}), B([]byte{1, 0}), -1},
		{Null(), Null(), 0},
		{Null(), I(0), -1}, // null type sorts before int
	}
	for _, c := range cases {
		if got := Compare(c.a, c.b); got != c.want {
			t.Errorf("Compare(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestPredicateEval(t *testing.T) {
	cases := []struct {
		pred Predicate
		val  Value
		want bool
	}{
		{Predicate{"c", OpEq, I(5)}, I(5), true},
		{Predicate{"c", OpEq, I(5)}, I(6), false},
		{Predicate{"c", OpNe, I(5)}, I(6), true},
		{Predicate{"c", OpLt, I(5)}, I(4), true},
		{Predicate{"c", OpLt, I(5)}, I(5), false},
		{Predicate{"c", OpLe, I(5)}, I(5), true},
		{Predicate{"c", OpGt, F(1.0)}, F(1.5), true},
		{Predicate{"c", OpGe, F(1.0)}, F(1.0), true},
		{Predicate{"c", OpEq, S("x")}, S("x"), true},
		{Predicate{"c", OpEq, I(5)}, Null(), false},
		{Predicate{"c", OpNe, I(5)}, Null(), false}, // null never matches
		{Predicate{"c", OpEq, I(5)}, S("5"), false}, // type mismatch
	}
	for _, c := range cases {
		if got := c.pred.Eval(&c.val); got != c.want {
			t.Errorf("%v on %v = %v, want %v", c.pred, c.val, got, c.want)
		}
	}
	// MATCH is a full-text index's to answer: Eval never matches it.
	p := Predicate{"c", OpMatch, S("doc")}
	if v := S("doc"); p.Eval(&v) {
		t.Error("Eval must not answer MATCH")
	}
}
