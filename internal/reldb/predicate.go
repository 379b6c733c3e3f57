package reldb

import "fmt"

// Op is a relational comparison operator. MicroNN supports the standard
// operators over declared attributes (paper §3.5) plus MATCH, the
// conjunctive full-text operator evaluated through the FTS index.
type Op uint8

const (
	// OpEq is equality (=).
	OpEq Op = iota
	// OpNe is inequality (!=).
	OpNe
	// OpLt is less-than (<).
	OpLt
	// OpLe is less-or-equal (<=).
	OpLe
	// OpGt is greater-than (>).
	OpGt
	// OpGe is greater-or-equal (>=).
	OpGe
	// OpMatch is full-text match over a FullText text column: the row
	// matches when it contains every token of the operand string. Only the
	// column's full-text index answers it (see Predicate.Eval).
	OpMatch
)

// String returns the operator symbol.
func (o Op) String() string {
	switch o {
	case OpEq:
		return "="
	case OpNe:
		return "!="
	case OpLt:
		return "<"
	case OpLe:
		return "<="
	case OpGt:
		return ">"
	case OpGe:
		return ">="
	case OpMatch:
		return "MATCH"
	default:
		return fmt.Sprintf("Op(%d)", uint8(o))
	}
}

// Predicate is a single comparison: column op value.
type Predicate struct {
	Column string
	Op     Op
	Value  Value
}

// String renders the predicate for logs and plan explanations.
func (p Predicate) String() string {
	return fmt.Sprintf("%s %s %s", p.Column, p.Op, p.Value)
}

// Eval applies the comparison to v. Null never matches (SQL three-valued
// logic collapsed to false), nor does a value of another type, nor MATCH,
// which only a full-text index answers. Both sides are taken by pointer:
// the scan loops that call it copy no Value.
func (p *Predicate) Eval(v *Value) bool {
	if v.IsNull() || v.Type != p.Value.Type {
		return false
	}
	c := Compare(*v, p.Value)
	switch p.Op {
	case OpEq:
		return c == 0
	case OpNe:
		return c != 0
	case OpLt:
		return c < 0
	case OpLe:
		return c <= 0
	case OpGt:
		return c > 0
	case OpGe:
		return c >= 0
	default:
		return false
	}
}
