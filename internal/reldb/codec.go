package reldb

import (
	"encoding/binary"
	"fmt"
	"math"
	"strings"
)

// Key encoding. Composite keys are the concatenation of self-delimiting,
// order-preserving column encodings, so bytes.Compare over encoded keys
// equals tuple comparison over the decoded values. This property is what
// lets the clustered vector table store (partition, vector id) rows
// contiguously and lets secondary indexes answer range predicates with a
// single B+tree seek.
//
// Per-column layout: a 1-byte type tag (nulls first), then
//   - int64: big-endian with the sign bit flipped
//   - float64: IEEE bits; negative values fully inverted, positive values
//     sign-flipped (the classic total-order trick)
//   - text/blob: bytes with 0x00 escaped as 0x00 0xFF, terminated by
//     0x00 0x01 (the terminator sorts below any escaped byte)

const (
	tagNull  = 0x05
	tagInt   = 0x10
	tagFloat = 0x15
	tagText  = 0x20
	tagBlob  = 0x25
)

// AppendKeyValue appends the order-preserving encoding of v to dst.
func AppendKeyValue(dst []byte, v Value) []byte {
	switch v.Type {
	case TypeNull:
		return append(dst, tagNull)
	case TypeInt64:
		dst = append(dst, tagInt)
		return binary.BigEndian.AppendUint64(dst, uint64(v.Int)^(1<<63))
	case TypeFloat64:
		dst = append(dst, tagFloat)
		bits := math.Float64bits(v.Flt)
		if bits&(1<<63) != 0 {
			bits = ^bits
		} else {
			bits ^= 1 << 63
		}
		return binary.BigEndian.AppendUint64(dst, bits)
	case TypeText:
		dst = append(dst, tagText)
		return appendEscaped(dst, []byte(v.Str))
	case TypeBlob:
		dst = append(dst, tagBlob)
		return appendEscaped(dst, v.Bts)
	default:
		panic(fmt.Sprintf("reldb: cannot key-encode type %v", v.Type))
	}
}

func appendEscaped(dst, s []byte) []byte {
	for _, b := range s {
		if b == 0x00 {
			dst = append(dst, 0x00, 0xFF)
		} else {
			dst = append(dst, b)
		}
	}
	return append(dst, 0x00, 0x01)
}

// EncodeKey encodes a composite key.
func EncodeKey(dst []byte, vals ...Value) []byte {
	for _, v := range vals {
		dst = AppendKeyValue(dst, v)
	}
	return dst
}

// DecodeKeyValue decodes one key column from b, returning the value and the
// remaining bytes.
func DecodeKeyValue(b []byte) (Value, []byte, error) {
	if len(b) == 0 {
		return Value{}, nil, fmt.Errorf("reldb: empty key")
	}
	tag := b[0]
	b = b[1:]
	switch tag {
	case tagNull:
		return Null(), b, nil
	case tagInt:
		v, rest, err := keyInt(b)
		if err != nil {
			return Value{}, nil, err
		}
		return I(v), rest, nil
	case tagFloat:
		if len(b) < 8 {
			return Value{}, nil, fmt.Errorf("reldb: truncated float key")
		}
		bits := binary.BigEndian.Uint64(b)
		if bits&(1<<63) != 0 {
			bits ^= 1 << 63
		} else {
			bits = ^bits
		}
		return F(math.Float64frombits(bits)), b[8:], nil
	case tagText, tagBlob:
		out := make([]byte, 0, 16)
		i := 0
		for {
			if i >= len(b) {
				return Value{}, nil, fmt.Errorf("reldb: unterminated string key")
			}
			c := b[i]
			if c != 0x00 {
				out = append(out, c)
				i++
				continue
			}
			if i+1 >= len(b) {
				return Value{}, nil, fmt.Errorf("reldb: truncated escape in string key")
			}
			switch b[i+1] {
			case 0xFF:
				out = append(out, 0x00)
				i += 2
			case 0x01:
				rest := b[i+2:]
				if tag == tagText {
					return S(string(out)), rest, nil
				}
				return B(out), rest, nil
			default:
				return Value{}, nil, fmt.Errorf("reldb: bad escape 0x%02x", b[i+1])
			}
		}
	default:
		return Value{}, nil, fmt.Errorf("reldb: unknown key tag 0x%02x", tag)
	}
}

// KeyInt reads one int64 key column from b without allocating, returning
// the value and the remaining bytes. It fails on every input DecodeKeyValue
// rejects and on a column of any other type.
func KeyInt(b []byte) (int64, []byte, error) {
	if len(b) == 0 {
		return 0, nil, fmt.Errorf("reldb: empty key")
	}
	if b[0] != tagInt {
		return 0, nil, fmt.Errorf("reldb: key tag 0x%02x is not int64", b[0])
	}
	return keyInt(b[1:])
}

// keyInt decodes an int64 key payload (the bytes after the tag).
func keyInt(b []byte) (int64, []byte, error) {
	if len(b) < 8 {
		return 0, nil, fmt.Errorf("reldb: truncated int key")
	}
	return int64(binary.BigEndian.Uint64(b) ^ (1 << 63)), b[8:], nil
}

// DecodeKey decodes n key columns.
func DecodeKey(b []byte, n int) (Row, error) {
	row := make(Row, 0, n)
	var v Value
	var err error
	for i := 0; i < n; i++ {
		v, b, err = DecodeKeyValue(b)
		if err != nil {
			return nil, err
		}
		row = append(row, v)
	}
	return row, nil
}

// Row (value) encoding: compact, not order-preserving. Layout per column:
// type tag byte, then varint/fixed payload.

// AppendRowValue appends the value encoding of v to dst.
func AppendRowValue(dst []byte, v Value) []byte {
	dst = append(dst, byte(v.Type))
	switch v.Type {
	case TypeNull:
		return dst
	case TypeInt64:
		return binary.AppendVarint(dst, v.Int)
	case TypeFloat64:
		return binary.LittleEndian.AppendUint64(dst, math.Float64bits(v.Flt))
	case TypeText:
		dst = binary.AppendUvarint(dst, uint64(len(v.Str)))
		return append(dst, v.Str...)
	case TypeBlob:
		dst = binary.AppendUvarint(dst, uint64(len(v.Bts)))
		return append(dst, v.Bts...)
	default:
		panic(fmt.Sprintf("reldb: cannot encode type %v", v.Type))
	}
}

// EncodeRow encodes all values of row.
func EncodeRow(dst []byte, row Row) []byte {
	for _, v := range row {
		dst = AppendRowValue(dst, v)
	}
	return dst
}

// DecodeRowValue decodes one value, returning it and the remaining bytes.
// Text and blob payloads are copied so rows may outlive page buffers.
func DecodeRowValue(b []byte) (Value, []byte, error) {
	if len(b) == 0 {
		return Value{}, nil, fmt.Errorf("reldb: empty row data")
	}
	typ := ColType(b[0])
	b = b[1:]
	switch typ {
	case TypeNull:
		return Null(), b, nil
	case TypeInt64:
		v, n := binary.Varint(b)
		if n <= 0 {
			return Value{}, nil, fmt.Errorf("reldb: bad varint")
		}
		return I(v), b[n:], nil
	case TypeFloat64:
		if len(b) < 8 {
			return Value{}, nil, fmt.Errorf("reldb: truncated float")
		}
		return F(math.Float64frombits(binary.LittleEndian.Uint64(b))), b[8:], nil
	case TypeText:
		p, rest, err := rowPayload(b, typ)
		if err != nil {
			return Value{}, nil, err
		}
		return S(string(p)), rest, nil
	case TypeBlob:
		p, rest, err := rowPayload(b, typ)
		if err != nil {
			return Value{}, nil, err
		}
		return B(append([]byte{}, p...)), rest, nil
	default:
		return Value{}, nil, fmt.Errorf("reldb: unknown row type %d", typ)
	}
}

// SkipRowValue steps over one encoded value column without decoding it,
// returning the remaining bytes. It fails on every input DecodeRowValue
// rejects.
func SkipRowValue(b []byte) ([]byte, error) {
	if len(b) == 0 {
		return nil, fmt.Errorf("reldb: empty row data")
	}
	switch typ := ColType(b[0]); typ {
	case TypeNull:
		return b[1:], nil
	case TypeInt64:
		if _, n := binary.Varint(b[1:]); n > 0 {
			return b[1+n:], nil
		}
		return nil, fmt.Errorf("reldb: bad varint")
	case TypeFloat64:
		if len(b) < 9 {
			return nil, fmt.Errorf("reldb: truncated float")
		}
		return b[9:], nil
	case TypeText, TypeBlob:
		_, rest, err := rowPayload(b[1:], typ)
		return rest, err
	default:
		return nil, fmt.Errorf("reldb: unknown row type %d", typ)
	}
}

// RowBytes reads one text or blob value column from b without allocating,
// returning its payload and the remaining bytes. The payload aliases b; a
// NULL column reads as a nil payload. It fails on every input
// DecodeRowValue rejects and on an int64 or float64 column.
func RowBytes(b []byte) ([]byte, []byte, error) {
	if len(b) == 0 {
		return nil, nil, fmt.Errorf("reldb: empty row data")
	}
	switch typ := ColType(b[0]); typ {
	case TypeNull:
		return nil, b[1:], nil
	case TypeText, TypeBlob:
		return rowPayload(b[1:], typ)
	default:
		return nil, nil, fmt.Errorf("reldb: row type %d is not text or blob", typ)
	}
}

// rowPayload splits a length-prefixed text or blob payload (the bytes
// after the type tag) from the rest of the row.
func rowPayload(b []byte, typ ColType) ([]byte, []byte, error) {
	n, sz := binary.Uvarint(b)
	if sz <= 0 || uint64(len(b[sz:])) < n {
		return nil, nil, fmt.Errorf("reldb: truncated %s", strings.ToLower(typ.String()))
	}
	return b[sz : sz+int(n)], b[sz+int(n):], nil
}

// DecodeRow decodes n values.
func DecodeRow(b []byte, n int) (Row, error) {
	row := make(Row, 0, n)
	var v Value
	var err error
	for i := 0; i < n; i++ {
		v, b, err = DecodeRowValue(b)
		if err != nil {
			return nil, err
		}
		row = append(row, v)
	}
	return row, nil
}
