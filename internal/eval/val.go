package eval

import (
	"repro/internal/ast"
	"repro/internal/solver/rat"
)

// Val is the unboxed form of a Value that compiled programs (see
// Compile) compute with: a sort tag and the payload of that sort. Int
// and Real payloads are rat.Rats, inline for anything that fits two
// int64 words, so a Val needs no allocation unless a number overflows.
// The zero Val has sort ast.SortInvalid and stands for "no value".
type Val struct {
	sort ast.Sort
	b    bool
	r    rat.Rat
	s    string
}

// BoolVal returns the Bool value b.
func BoolVal(b bool) Val { return Val{sort: ast.SortBool, b: b} }

// StrVal returns the String value s.
func StrVal(s string) Val { return Val{sort: ast.SortString, s: s} }

// IntVal returns the Int value r, which must be an integer.
func IntVal(r rat.Rat) Val { return Val{sort: ast.SortInt, r: r} }

// RealVal returns the Real value r.
func RealVal(r rat.Rat) Val { return Val{sort: ast.SortReal, r: r} }

// Sort returns the value's sort, ast.SortInvalid for the zero Val.
func (v Val) Sort() ast.Sort { return v.sort }

// Bool returns the payload of a Bool value.
func (v Val) Bool() bool { return v.b }

// Str returns the payload of a String value.
func (v Val) Str() string { return v.s }

// Box converts v to a Value; the zero Val boxes to nil.
func (v Val) Box() Value {
	switch v.sort {
	case ast.SortBool:
		return BoolV(v.b)
	case ast.SortInt:
		return IntV{V: v.r.Big().Num()}
	case ast.SortReal:
		return RealV{V: v.r.Big()}
	case ast.SortString:
		return StrV(v.s)
	}
	return nil
}

// Unbox converts a Value to a Val; nil unboxes to the zero Val.
func Unbox(v Value) Val {
	switch x := v.(type) {
	case BoolV:
		return BoolVal(bool(x))
	case IntV:
		return IntVal(rat.FromBigInt(x.V))
	case RealV:
		return RealVal(rat.FromBig(x.V))
	case StrV:
		return StrVal(string(x))
	}
	return Val{}
}

// Equal reports whether v and w have the same sort and value.
func (v Val) Equal(w Val) bool {
	if v.sort != w.sort {
		return false
	}
	switch v.sort {
	case ast.SortBool:
		return v.b == w.b
	case ast.SortInt, ast.SortReal:
		return v.r.Cmp(w.r) == 0
	}
	return v.s == w.s
}
