// Package eval evaluates terms under models with exact rational
// arithmetic and full SMT-LIB string/regex semantics. It is the
// semantic ground truth of the system: the reference solver certifies
// every sat answer against it, generators self-check their witness
// models with it, and property tests use it to validate the fusion
// propositions. Every value is a Val, and every operator is computed
// by one set of helpers: Term, the tree-walking interpreter, is the
// reference, and Compile gives hot loops a compiled path over frames
// of Vals with the same results.
//
// SMT-LIB leaves division by zero underspecified (any fixed
// interpretation is conforming). This package — and the reference
// solver, which must agree with it — fixes:
//
//	(/ a 0)   = 0
//	(div a 0) = 0
//	(mod a 0) = a
//
// Integer division and modulo follow the SMT-LIB (Euclidean) semantics:
// the remainder is always non-negative.
package eval

import (
	"fmt"
	"strconv"

	"repro/internal/ast"
	"repro/internal/rat"
)

// Val is an evaluated SMT value: a sort tag and the payload of that
// sort. Int and Real payloads are rat.Rats, inline for anything that
// fits two int64 words, so a Val needs no allocation unless a number
// overflows. The zero Val has sort ast.SortInvalid and stands for "no
// value".
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

// Rat returns the payload of an Int or Real value.
func (v Val) Rat() rat.Rat { return v.r }

// Str returns the payload of a String value.
func (v Val) Str() string { return v.s }

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

// String renders the value in SMT-LIB syntax, as ast.Print renders its
// literal; the zero Val renders as "".
func (v Val) String() string {
	switch v.sort {
	case ast.SortBool:
		return strconv.FormatBool(v.b)
	case ast.SortInt:
		return ast.Print(&ast.IntLit{V: v.r})
	case ast.SortReal:
		return ast.Print(&ast.RealLit{V: v.r})
	case ast.SortString:
		return ast.Print(&ast.StrLit{V: v.s})
	}
	return ""
}

// ToTerm converts a value back into a literal term built in tb.
func ToTerm(tb *ast.Table, v Val) ast.Term {
	switch v.sort {
	case ast.SortBool:
		return ast.Bool(v.b)
	case ast.SortInt:
		return tb.IntRat(v.r)
	case ast.SortReal:
		return tb.RealRat(v.r)
	case ast.SortString:
		return tb.Str(v.s)
	}
	panic(fmt.Sprintf("eval: no literal for a value of sort %v", v.sort))
}

// Model maps free-variable names to values.
type Model map[string]Val

// Clone returns a copy of the model.
func (m Model) Clone() Model {
	out := make(Model, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// DefaultValue returns the sort's designated default (0, 0.0, "", false)
// used to complete partial models.
func DefaultValue(s ast.Sort) Val {
	switch s {
	case ast.SortBool:
		return BoolVal(false)
	case ast.SortInt:
		return IntVal(rat.Rat{})
	case ast.SortReal:
		return RealVal(rat.Rat{})
	case ast.SortString:
		return StrVal("")
	}
	panic(fmt.Sprintf("eval: no default value for sort %v", s))
}
