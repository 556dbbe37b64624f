package ast

import (
	"fmt"

	"repro/internal/rat"
)

// Term is an immutable, well-sorted term tree. Terms are shared freely:
// no operation in this package mutates an existing term; transformations
// return new trees that may alias unchanged subtrees.
type Term interface {
	// Sort returns the sort of the term.
	Sort() Sort
	aTerm()
}

// Var is a free or bound variable occurrence.
type Var struct {
	Name  string
	VSort Sort
	hash  uint64
}

func (v *Var) Sort() Sort { return v.VSort }
func (*Var) aTerm()       {}

// Var returns the table's variable term for (name, sort).
func (tb *Table) Var(name string, sort Sort) *Var { return tb.internVar(name, sort, nil) }

// BoolLit is a boolean literal (true or false).
type BoolLit struct{ V bool }

func (*BoolLit) Sort() Sort { return SortBool }
func (*BoolLit) aTerm()     {}

// Shared literal instances for the common cases.
var (
	True  = &BoolLit{V: true}
	False = &BoolLit{V: false}
)

// Bool returns the shared literal for b.
func Bool(b bool) *BoolLit {
	if b {
		return True
	}
	return False
}

// IntLit is an arbitrary-precision integer literal.
type IntLit struct {
	V    rat.Rat // an integer
	hash uint64
}

func (*IntLit) Sort() Sort { return SortInt }
func (*IntLit) aTerm()     {}

// Int returns the table's Int literal for v.
func (tb *Table) Int(v int64) *IntLit { return tb.internInt(rat.Int(v), nil) }

// IntRat returns the table's Int literal for v, which must be an
// integer.
func (tb *Table) IntRat(v rat.Rat) *IntLit {
	if !v.IsInt() {
		panic("ast: IntRat of a non-integer " + v.String())
	}
	return tb.internInt(v, nil)
}

// RealLit is an exact rational literal.
type RealLit struct {
	V    rat.Rat
	hash uint64
}

func (*RealLit) Sort() Sort { return SortReal }
func (*RealLit) aTerm()     {}

// Real returns the table's Real literal for num/den.
func (tb *Table) Real(num, den int64) *RealLit { return tb.internRat(rat.New(num, den), nil) }

// RealRat returns the table's Real literal for v.
func (tb *Table) RealRat(v rat.Rat) *RealLit { return tb.internRat(v, nil) }

// Numeral returns the value of an Int or Real literal, and false for
// any other term.
func Numeral(t Term) (rat.Rat, bool) {
	switch n := t.(type) {
	case *IntLit:
		return n.V, true
	case *RealLit:
		return n.V, true
	}
	return rat.Rat{}, false
}

// StrLit is a string literal. The value is the already-unescaped Go
// string; printing re-applies SMT-LIB escaping.
type StrLit struct {
	V    string
	hash uint64
}

func (*StrLit) Sort() Sort { return SortString }
func (*StrLit) aTerm()     {}

// Str returns the table's String literal for v.
func (tb *Table) Str(v string) *StrLit { return tb.internStr(v, nil) }

// App is the application of a builtin operator to arguments.
type App struct {
	Op     Op
	Args   []Term
	sort   Sort
	forged bool
	hash   uint64
}

func (a *App) Sort() Sort { return a.sort }
func (*App) aTerm()       {}

// Forged reports whether UncheckedApp built the node with a sort that
// its operator's typing rule does not derive from the arguments, or
// over arguments the rule rejects. Every other table-built node
// carries the sort NewApp derived, so the static analyzer re-types
// only forged nodes (and nodes built outside a table, whose sort is
// SortInvalid).
func (a *App) Forged() bool { return a.forged }

// SortedVar is a sorted variable binding in a quantifier prefix.
type SortedVar struct {
	Name string
	Sort Sort
}

// Quant is a universally or existentially quantified formula.
type Quant struct {
	Forall bool
	Bound  []SortedVar
	Body   Term
	hash   uint64
}

func (*Quant) Sort() Sort { return SortBool }
func (*Quant) aTerm()     {}

// NewQuant builds a quantifier in the table. The body must be boolean.
func (tb *Table) NewQuant(forall bool, bound []SortedVar, body Term) (*Quant, error) {
	if body.Sort() != SortBool {
		return nil, fmt.Errorf("quantifier body has sort %v, want Bool", body.Sort())
	}
	if len(bound) == 0 {
		return nil, fmt.Errorf("quantifier with empty binder list")
	}
	return tb.internQuant(forall, bound, body, nil), nil
}

// MustQuant is NewQuant, panicking on error. It is intended for
// reconstruction of quantifiers whose pieces come from an existing
// well-formed quantifier (transformations, solver preprocessing).
func (tb *Table) MustQuant(forall bool, bound []SortedVar, body Term) *Quant {
	q, err := tb.NewQuant(forall, bound, body)
	if err != nil {
		panic(err)
	}
	return q
}

// SortOf returns the sort of the application of op to args under the
// operator's typing rule, or an error when arity or argument sorts do
// not match it. It builds, hashes and looks up nothing.
func SortOf(op Op, args []Term) (Sort, error) {
	if op <= OpInvalid || op >= opMax {
		return SortInvalid, fmt.Errorf("invalid operator %v", op)
	}
	info := &opTable[op]
	if len(args) < info.minAr || (info.maxAr != variadic && len(args) > info.maxAr) {
		return SortInvalid, fmt.Errorf("%s: got %d arguments, want %s", info.name, len(args), arityString(info))
	}
	sort, err := info.typing(args)
	if err != nil {
		return SortInvalid, fmt.Errorf("%s: %w", info.name, err)
	}
	return sort, nil
}

// NewApp builds a well-sorted application of op to args in the table,
// reporting an error when arity or argument sorts do not match the
// operator's typing rule.
func (tb *Table) NewApp(op Op, args ...Term) (Term, error) {
	sort, err := SortOf(op, args)
	if err != nil {
		return nil, err
	}
	return tb.internApp(op, sort, args, false, nil), nil
}

// MustApp is NewApp, panicking on typing errors. It is intended for
// programmatic construction of terms whose sorts are known correct by
// construction (generators, fusion tables, tests).
func (tb *Table) MustApp(op Op, args ...Term) Term {
	t, err := tb.NewApp(op, args...)
	if err != nil {
		panic(err)
	}
	return t
}

// UncheckedApp constructs an application with an explicitly supplied
// result sort, bypassing the operator's typing rule. All production
// construction goes through NewApp; this exists so negative tests (and
// the static analyzer's own test suite) can forge ill-sorted terms.
// The result sort is part of the table key, so a forged node never
// aliases a well-sorted node of the same shape. A node whose sort the
// typing rule does not derive is marked Forged; one whose supplied
// sort agrees with the rule is the NewApp node.
func (tb *Table) UncheckedApp(op Op, sort Sort, args ...Term) *App {
	derived, err := SortOf(op, args)
	return tb.internApp(op, sort, args, err != nil || derived != sort, nil)
}

func arityString(info *opInfo) string {
	if info.maxAr == variadic {
		return fmt.Sprintf("at least %d", info.minAr)
	}
	if info.minAr == info.maxAr {
		return fmt.Sprintf("exactly %d", info.minAr)
	}
	return fmt.Sprintf("between %d and %d", info.minAr, info.maxAr)
}

// Convenience smart constructors used pervasively by generators, the
// fusion engine, and tests. All panic on ill-sorted input (MustApp).

// Not negates a boolean term.
func (tb *Table) Not(t Term) Term { return tb.MustApp(OpNot, t) }

// And conjoins boolean terms; And() of a single term returns the term.
func (tb *Table) And(ts ...Term) Term {
	if len(ts) == 1 {
		return ts[0]
	}
	return tb.MustApp(OpAnd, ts...)
}

// Or disjoins boolean terms; Or() of a single term returns the term.
func (tb *Table) Or(ts ...Term) Term {
	if len(ts) == 1 {
		return ts[0]
	}
	return tb.MustApp(OpOr, ts...)
}

// Eq builds an equality.
func (tb *Table) Eq(a, b Term) Term { return tb.MustApp(OpEq, a, b) }

// Ite builds an if-then-else.
func (tb *Table) Ite(c, t, e Term) Term { return tb.MustApp(OpIte, c, t, e) }

// Add, Sub, Mul, Neg build arithmetic terms.
func (tb *Table) Add(ts ...Term) Term { return tb.MustApp(OpAdd, ts...) }
func (tb *Table) Sub(ts ...Term) Term { return tb.MustApp(OpSub, ts...) }
func (tb *Table) Mul(ts ...Term) Term { return tb.MustApp(OpMul, ts...) }
func (tb *Table) Neg(t Term) Term     { return tb.MustApp(OpNeg, t) }

// Comparisons.
func (tb *Table) Le(a, b Term) Term { return tb.MustApp(OpLe, a, b) }
func (tb *Table) Lt(a, b Term) Term { return tb.MustApp(OpLt, a, b) }
func (tb *Table) Ge(a, b Term) Term { return tb.MustApp(OpGe, a, b) }
func (tb *Table) Gt(a, b Term) Term { return tb.MustApp(OpGt, a, b) }
