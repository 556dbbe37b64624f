// Package eval evaluates terms under models with exact big-number
// arithmetic and full SMT-LIB string/regex semantics. It is the
// semantic ground truth of the system: the reference solver certifies
// every sat answer against it, generators self-check their witness
// models with it, and property tests use it to validate the fusion
// propositions. Compile gives hot loops a compiled path over unboxed
// values with the same results; Term is its reference.
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
	"math/big"

	"repro/internal/ast"
)

// Value is an evaluated SMT value.
type Value interface {
	Sort() ast.Sort
	// String renders the value in SMT-LIB syntax.
	String() string
}

// BoolV is a boolean value.
type BoolV bool

// IntV is an integer value.
type IntV struct{ V *big.Int }

// RealV is a rational value.
type RealV struct{ V *big.Rat }

// StrV is a string value.
type StrV string

func (BoolV) Sort() ast.Sort { return ast.SortBool }
func (IntV) Sort() ast.Sort  { return ast.SortInt }
func (RealV) Sort() ast.Sort { return ast.SortReal }
func (StrV) Sort() ast.Sort  { return ast.SortString }

func (v BoolV) String() string {
	if v {
		return "true"
	}
	return "false"
}

func (v IntV) String() string  { return ast.Print(&ast.IntLit{V: v.V}) }
func (v RealV) String() string { return ast.Print(&ast.RealLit{V: v.V}) }
func (v StrV) String() string  { return ast.Print(&ast.StrLit{V: string(v)}) }

// Int returns an integer value.
func Int(v int64) IntV { return IntV{V: big.NewInt(v)} }

// Real returns a rational value.
func Real(num, den int64) RealV { return RealV{V: big.NewRat(num, den)} }

// Equal reports value equality (same sort and same value).
func Equal(a, b Value) bool {
	if a.Sort() != b.Sort() {
		return false
	}
	switch x := a.(type) {
	case BoolV:
		return x == b.(BoolV)
	case IntV:
		return x.V.Cmp(b.(IntV).V) == 0
	case RealV:
		return x.V.Cmp(b.(RealV).V) == 0
	case StrV:
		return x == b.(StrV)
	}
	return false
}

// ToTerm converts a value back into a literal term built in tb.
func ToTerm(tb *ast.Table, v Value) ast.Term {
	switch x := v.(type) {
	case BoolV:
		return ast.Bool(bool(x))
	case IntV:
		return tb.IntBig(x.V)
	case RealV:
		return tb.RealBig(x.V)
	case StrV:
		return tb.Str(string(x))
	default:
		panic(fmt.Sprintf("eval: unknown value %T", v))
	}
}

// Model maps free-variable names to values.
type Model map[string]Value

// Clone returns a copy of the model (values are immutable and shared).
func (m Model) Clone() Model {
	out := make(Model, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// Union returns the union of two models; overlapping names must agree.
func (m Model) Union(other Model) (Model, error) {
	out := m.Clone()
	for k, v := range other {
		if prev, ok := out[k]; ok && !Equal(prev, v) {
			return nil, fmt.Errorf("eval: models disagree on %s (%s vs %s)", k, prev, v)
		}
		out[k] = v
	}
	return out, nil
}

// DefaultValue returns the sort's designated default (0, 0.0, "", false)
// used to complete partial models.
func DefaultValue(s ast.Sort) Value {
	switch s {
	case ast.SortBool:
		return BoolV(false)
	case ast.SortInt:
		return Int(0)
	case ast.SortReal:
		return Real(0, 1)
	case ast.SortString:
		return StrV("")
	default:
		panic(fmt.Sprintf("eval: no default value for sort %v", s))
	}
}
