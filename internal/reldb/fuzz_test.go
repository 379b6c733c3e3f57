package reldb

import (
	"bytes"
	"math"
	"testing"
)

// FuzzReldbCodec fuzzes both row codecs from two directions. Forward: every
// value type built from the fuzzed scalars must survive
// decode(encode(v)) == v through both the order-preserving key encoding and
// the compact row encoding, and the key encoding must preserve tuple order
// (the property the clustered tables and secondary indexes stand on).
// Backward: the decoders must reject or decode arbitrary bytes without
// panicking, because they read pages straight from disk and a torn write or
// bit rot must surface as an error, not a crash. Both directions also run
// the allocation-free field readers KeyInt, RowBytes and SkipRowValue,
// which must agree with DecodeKeyValue and DecodeRowValue column by column.
func FuzzReldbCodec(f *testing.F) {
	f.Add([]byte{}, int64(0), 0.0, "")
	f.Add([]byte{0x00, 0xFF, 0x00, 0x01}, int64(-1), -0.0, "a\x00b")
	f.Add([]byte{tagInt, 1, 2, 3}, int64(1<<62), 3.5e300, "text")
	f.Add([]byte{byte(TypeBlob), 0xFF, 0xFF}, int64(-1<<62), -1e-300, "\xff\xfe")

	f.Fuzz(func(t *testing.T, data []byte, i int64, fl float64, s string) {
		row := Row{Null(), I(i), F(fl), S(s), B(data)}

		// Key codec round-trip (floats: NaN has no total-order encoding
		// contract; skip the float column when fl is NaN).
		keyRow := row
		if fl != fl {
			keyRow = Row{Null(), I(i), S(s), B(data)}
		}
		key := EncodeKey(nil, keyRow...)
		back, err := DecodeKey(key, len(keyRow))
		if err != nil {
			t.Fatalf("DecodeKey(EncodeKey(%v)): %v", keyRow, err)
		}
		for c := range keyRow {
			if !valueEqual(keyRow[c], back[c]) {
				t.Fatalf("key column %d: %v -> %v", c, keyRow[c], back[c])
			}
		}

		// Order preservation: the byte order of encoded int/string keys must
		// equal the value order.
		k1 := EncodeKey(nil, I(i))
		k2 := EncodeKey(nil, I(i+1))
		if i+1 > i && bytes.Compare(k1, k2) >= 0 {
			t.Fatalf("int key order broken: %d vs %d", i, i+1)
		}
		s1 := EncodeKey(nil, S(s))
		s2 := EncodeKey(nil, S(s+"\x00"))
		if bytes.Compare(s1, s2) >= 0 {
			t.Fatalf("string key order broken for %q", s)
		}

		// Row codec round-trip (NaN compares unequal to itself; compare
		// bit-level via valueEqual's NaN handling below).
		enc := EncodeRow(nil, row)
		rback, err := DecodeRow(enc, len(row))
		if err != nil {
			t.Fatalf("DecodeRow(EncodeRow(%v)): %v", row, err)
		}
		for c := range row {
			if !valueEqual(row[c], rback[c]) {
				t.Fatalf("row column %d: %v -> %v", c, row[c], rback[c])
			}
		}

		// Backward: arbitrary bytes through every decoder — errors are
		// fine, panics and non-termination are not.
		for n := 1; n <= 4; n++ {
			if r, err := DecodeKey(data, n); err == nil && len(r) != n {
				t.Fatalf("DecodeKey returned %d columns, want %d", len(r), n)
			}
			if r, err := DecodeRow(data, n); err == nil && len(r) != n {
				t.Fatalf("DecodeRow returned %d columns, want %d", len(r), n)
			}
		}
		checkKeyInt(t, key)
		checkRowBytes(t, enc)
		checkKeyInt(t, data)
		checkRowBytes(t, data)
		rest := data
		for len(rest) > 0 {
			_, next, err := DecodeKeyValue(rest)
			if err != nil {
				break
			}
			if len(next) >= len(rest) {
				t.Fatal("DecodeKeyValue made no progress")
			}
			rest = next
		}
		rest = data
		for len(rest) > 0 {
			_, next, err := DecodeRowValue(rest)
			if err != nil {
				break
			}
			if len(next) >= len(rest) {
				t.Fatal("DecodeRowValue made no progress")
			}
			rest = next
		}
	})
}

// checkKeyInt walks b column by column with DecodeKeyValue and checks that
// KeyInt reads every int64 column to the same value and remainder, and
// fails on every other column and wherever DecodeKeyValue fails.
func checkKeyInt(t *testing.T, b []byte) {
	t.Helper()
	for {
		v, rest, err := DecodeKeyValue(b)
		got, grest, gerr := KeyInt(b)
		if err == nil && v.Type == TypeInt64 {
			if gerr != nil || got != v.Int || len(grest) != len(rest) {
				t.Fatalf("KeyInt(%x) = %d, %d left, %v; DecodeKeyValue = %d, %d left", b, got, len(grest), gerr, v.Int, len(rest))
			}
		} else if gerr == nil {
			t.Fatalf("KeyInt(%x) succeeded; DecodeKeyValue = %v, %v", b, v, err)
		}
		if err != nil || len(rest) == 0 {
			return
		}
		b = rest
	}
}

// checkRowBytes is checkKeyInt for RowBytes and DecodeRowValue: text and
// blob columns read as their payload, NULL as nil, other types fail. It
// also holds SkipRowValue to DecodeRowValue: the same error verdict and the
// same remaining bytes.
func checkRowBytes(t *testing.T, b []byte) {
	t.Helper()
	for {
		v, rest, err := DecodeRowValue(b)
		if srest, serr := SkipRowValue(b); (serr == nil) != (err == nil) || len(srest) != len(rest) {
			t.Fatalf("SkipRowValue(%x) = %d left, %v; DecodeRowValue = %v, %d left, %v", b, len(srest), serr, v, len(rest), err)
		}
		got, grest, gerr := RowBytes(b)
		var want []byte
		ok := err == nil
		switch v.Type {
		case TypeText:
			want = []byte(v.Str)
		case TypeBlob:
			want = v.Bts
		case TypeNull:
		default:
			ok = false
		}
		if ok {
			if gerr != nil || !bytes.Equal(got, want) || (got == nil) != (v.Type == TypeNull) || len(grest) != len(rest) {
				t.Fatalf("RowBytes(%x) = %x, %d left, %v; DecodeRowValue = %v, %d left", b, got, len(grest), gerr, v, len(rest))
			}
		} else if gerr == nil {
			t.Fatalf("RowBytes(%x) succeeded; DecodeRowValue = %v, %v", b, v, err)
		}
		if err != nil || len(rest) == 0 {
			return
		}
		b = rest
	}
}

// valueEqual compares decoded values, treating NaN floats as equal to
// themselves (round-tripping must preserve the bits, not IEEE equality).
func valueEqual(a, b Value) bool {
	if a.Type != b.Type {
		return false
	}
	switch a.Type {
	case TypeNull:
		return true
	case TypeInt64:
		return a.Int == b.Int
	case TypeFloat64:
		// Bit-level: NaN payloads and the sign of -0.0 must survive the
		// round trip, which IEEE == cannot check.
		return math.Float64bits(a.Flt) == math.Float64bits(b.Flt)
	case TypeText:
		return a.Str == b.Str
	case TypeBlob:
		return bytes.Equal(a.Bts, b.Bts)
	default:
		return false
	}
}
