// Package simplex implements an exact general simplex procedure for
// linear real arithmetic in the style of Dutertre and de Moura's
// "A Fast Linear-Arithmetic Solver for DPLL(T)": problem variables and
// slack variables carry lower/upper bounds over δ-rationals (so strict
// inequalities are exact), and a Bland's-rule pivoting loop either
// repairs all bound violations or reports unsatisfiability.
package simplex

import (
	"repro/internal/rat"
)

// Num is a δ-rational a + b·δ, where δ is a positive infinitesimal.
// Strict bounds x > c are represented as x ≥ c + δ. Num is a value
// type built from two rat.Rat values, so arithmetic on small
// δ-rationals does not allocate.
type Num struct {
	A rat.Rat // standard part
	B rat.Rat // δ coefficient
}

// Rat returns the δ-rational for a plain rational.
func Rat(a rat.Rat) Num { return Num{A: a} }

// RatDelta returns a + b·δ.
func RatDelta(a rat.Rat, b int64) Num { return Num{A: a, B: rat.Int(b)} }

// Cmp compares two δ-rationals lexicographically.
func (n Num) Cmp(o Num) int {
	if c := n.A.Cmp(o.A); c != 0 {
		return c
	}
	return n.B.Cmp(o.B)
}

// Add returns n + o.
func (n Num) Add(o Num) Num { return Num{A: n.A.Add(o.A), B: n.B.Add(o.B)} }

// Sub returns n − o.
func (n Num) Sub(o Num) Num { return Num{A: n.A.Sub(o.A), B: n.B.Sub(o.B)} }

// ScaleRat returns n · r for a plain rational r.
func (n Num) ScaleRat(r rat.Rat) Num { return Num{A: n.A.Mul(r), B: n.B.Mul(r)} }

func (n Num) String() string {
	if n.B.IsZero() {
		return n.A.String()
	}
	return n.A.String() + "+" + n.B.String() + "δ"
}
