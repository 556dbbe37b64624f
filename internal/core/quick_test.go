package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/ast"
	"repro/internal/eval"
	"repro/internal/smtlib"
)

// Property (Proposition 1, concrete form): for arbitrary integer
// witnesses, SAT fusion of two satisfiable interval formulas produces a
// formula whose constructed witness evaluates every assert to true.
func TestQuickProposition1(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	f := func(a, b int64, seed int64) bool {
		a %= 1000
		b %= 1000
		x := tb.Var("x", ast.SortInt)
		y := tb.Var("y", ast.SortInt)
		phi1 := &Seed{
			Script: smtlib.NewScript("QF_LIA",
				[]*smtlib.DeclareFun{{Name: "x", Sort: ast.SortInt}},
				[]ast.Term{tb.Ge(x, tb.Int(a)), tb.Le(x, tb.Int(a+5))}),
			Status:  StatusSat,
			Witness: eval.Model{"x": eval.Int(a + 2)},
		}
		phi2 := &Seed{
			Script: smtlib.NewScript("QF_LIA",
				[]*smtlib.DeclareFun{{Name: "y", Sort: ast.SortInt}},
				[]ast.Term{tb.Ge(y, tb.Int(b)), tb.Le(y, tb.Int(b+9))}),
			Status:  StatusSat,
			Witness: eval.Model{"y": eval.Int(b + 4)},
		}
		fused, err := Fuse(tb, phi1, phi2, rng, Options{})
		if err != nil {
			return false
		}
		for _, assert := range fused.Script.Asserts() {
			ok, err := eval.Bool(assert, fused.Witness)
			if err != nil || !ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: fusion never loses or duplicates declarations — the fused
// script declares exactly the union of (renamed) ancestor variables
// plus the fresh fusion variables.
func TestQuickDeclarationAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := func(a int64) bool {
		a %= 50
		x := tb.Var("x", ast.SortReal)
		mk := func(name string, w int64) *Seed {
			v := tb.Var(name, ast.SortReal)
			return &Seed{
				Script: smtlib.NewScript("QF_LRA",
					[]*smtlib.DeclareFun{{Name: name, Sort: ast.SortReal}},
					[]ast.Term{tb.Lt(v, tb.Real(w+1, 1))}),
				Status:  StatusSat,
				Witness: eval.Model{name: eval.Real(w, 1)},
			}
		}
		_ = x
		phi1, phi2 := mk("x", a), mk("x", a+1) // same name: forces renaming
		fused, err := Fuse(tb, phi1, phi2, rng, Options{MaxPairs: 1})
		if err != nil {
			return false
		}
		names := map[string]int{}
		for _, d := range fused.Script.Declarations() {
			names[d.Name]++
		}
		for n, c := range names {
			if c != 1 {
				return false
			}
			_ = n
		}
		// x, x_2, and one fusion variable.
		return len(names) == 3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: every fused script reparses to an equal print (printer and
// parser stay in sync under fusion-generated terms).
func TestQuickFusedReparse(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	u1 := seedFromSrcQuick(`
(declare-fun p () Real)
(assert (> p (+ p 1.0)))
`)
	u2 := seedFromSrcQuick(`
(declare-fun q () Real)
(assert (and (< q 0.0) (> q 1.0)))
`)
	f := func(n uint8) bool {
		fused, err := Fuse(tb, u1, u2, rng, Options{MaxPairs: 1 + int(n%2)})
		if err != nil {
			return false
		}
		txt := smtlib.Print(fused.Script)
		back, err := smtlib.ParseScript(txt)
		if err != nil {
			return false
		}
		return smtlib.Print(back) == txt
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func seedFromSrcQuick(src string) *Seed {
	sc, err := smtlib.ParseScript(src)
	if err != nil {
		panic(err)
	}
	return &Seed{Script: sc, Status: StatusUnsat}
}
