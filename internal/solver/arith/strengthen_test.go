package arith

import (
	"math/big"
	"testing"
	"testing/quick"

	"repro/internal/ast"
	"repro/internal/rat"
)

func TestStrengthenInts(t *testing.T) {
	c := &checker{intVars: map[string]bool{"x": true, "y": true}}
	mk := func(coeff int64, konst int64, rel Rel) Atom {
		e := NewLinExpr()
		e.AddVar("x", rat.Int(coeff))
		e.Const = rat.Int(konst)
		return Atom{Expr: e, Rel: rel}
	}
	// x − 3 > 0 strengthens to x − 4 ≥ 0.
	out := c.strengthenInts([]Atom{mk(1, -3, RelGt)})
	if out[0].Rel != RelGe || out[0].Expr.Const.Cmp(rat.Int(-4)) != 0 {
		t.Errorf("Gt strengthening: %+v", out[0])
	}
	// x + 1 < 0 strengthens to x + 2 ≤ 0.
	out = c.strengthenInts([]Atom{mk(1, 1, RelLt)})
	if out[0].Rel != RelLe || out[0].Expr.Const.Cmp(rat.Int(2)) != 0 {
		t.Errorf("Lt strengthening: %+v", out[0])
	}
	// Non-strict relations and real variables stay untouched.
	out = c.strengthenInts([]Atom{mk(1, 0, RelLe)})
	if out[0].Rel != RelLe {
		t.Error("Le modified")
	}
	e := NewLinExpr()
	e.AddVar("r", rat.Int(1)) // r is not an int var
	out = c.strengthenInts([]Atom{{Expr: e, Rel: RelLt}})
	if out[0].Rel != RelLt {
		t.Error("real atom strengthened")
	}
	// Fractional coefficients stay untouched.
	ef := NewLinExpr()
	ef.AddVar("x", rat.New(1, 2))
	out = c.strengthenInts([]Atom{{Expr: ef, Rel: RelGt}})
	if out[0].Rel != RelGt {
		t.Error("fractional-coefficient atom strengthened")
	}
}

func TestGcdCut(t *testing.T) {
	c := &checker{intVars: map[string]bool{"x": true, "y": true}}
	mk := func(cx, cy, konst int64) *LinExpr {
		e := NewLinExpr()
		e.AddVar("x", rat.Int(cx))
		e.AddVar("y", rat.Int(cy))
		e.Const = rat.Int(konst)
		return e
	}
	// 2x + 4y + 1 = 0: gcd 2 does not divide 1 → infeasible.
	if !c.gcdCutInfeasible(mk(2, 4, 1)) {
		t.Error("2x+4y+1=0 should be cut")
	}
	// 2x + 4y + 6 = 0: divisible → feasible by the cut.
	if c.gcdCutInfeasible(mk(2, 4, 6)) {
		t.Error("2x+4y+6=0 wrongly cut")
	}
	// Real variable present → no cut.
	e := mk(2, 0, 1)
	e.AddVar("r", rat.Int(2))
	if c.gcdCutInfeasible(e) {
		t.Error("mixed-sort equality wrongly cut")
	}
}

// Property: Check on a single-variable integer interval [lo, hi] is sat
// iff the interval contains an integer, with an integral witness.
func TestQuickIntegerIntervals(t *testing.T) {
	f := func(loNum, hiNum int16, denRaw uint8) bool {
		den := int64(denRaw%4) + 1
		lo := big.NewRat(int64(loNum), den)
		hi := big.NewRat(int64(hiNum), den)
		if lo.Cmp(hi) > 0 {
			lo, hi = hi, lo
		}
		eLo := NewLinExpr()
		eLo.AddVar("x", rat.Int(1))
		eLo.Const = rat.FromBig(lo).Neg() // x − lo ≥ 0
		eHi := NewLinExpr()
		eHi.AddVar("x", rat.Int(1))
		eHi.Const = rat.FromBig(hi).Neg() // x − hi ≤ 0
		st, m := Check(&Problem{
			Atoms:   []Atom{{Expr: eLo, Rel: RelGe}, {Expr: eHi, Rel: RelLe}},
			IntVars: map[string]bool{"x": true},
		})
		// Ground truth: does [lo, hi] contain an integer?
		floorHi := new(big.Int).Quo(hi.Num(), hi.Denom())
		if hi.Sign() < 0 && !hi.IsInt() {
			floorHi.Sub(floorHi, big.NewInt(1))
		}
		contains := new(big.Rat).SetInt(floorHi).Cmp(lo) >= 0
		if (st == Sat) != contains {
			return false
		}
		if st == Sat {
			x, ok := m.Value("x")
			return ok && x.IsInt() && x.Cmp(rat.FromBig(lo)) >= 0 && x.Cmp(rat.FromBig(hi)) <= 0
		}
		return st == Unsat
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestAbstractorStability(t *testing.T) {
	abs := NewAbstractor("$t")
	x := tb.Var("x", ast.SortInt)
	y := tb.Var("y", ast.SortInt)
	prod := tb.Mul(x, y)
	v1 := abs.VarFor(prod)
	v2 := abs.VarFor(tb.Mul(x, y)) // structurally equal, fresh tree
	if v1 != v2 {
		t.Errorf("structurally equal terms got different abstraction vars: %s %s", v1, v2)
	}
	v3 := abs.VarFor(tb.Mul(y, x)) // different order → different term
	if v3 == v1 {
		t.Error("order-distinct products merged")
	}
	if abs.Len() != 2 {
		t.Errorf("Len = %d", abs.Len())
	}
	if got := abs.Terms()[v1]; !ast.Equal(got, prod) {
		t.Error("Terms mapping lost")
	}
}
