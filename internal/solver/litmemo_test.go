package solver

import (
	"fmt"
	"math/big"
	"sort"
	"testing"

	"repro/internal/ast"
	"repro/internal/eval"
	"repro/internal/rat"
	"repro/internal/smtlib"
	"repro/internal/solver/arith"
)

// naiveGrid is sampleGrid without the memo: every single-variable and
// pairwise grid point is evaluated on a cloned eval.Model, including
// those that leave a variable at its candidate value. It also counts
// those repeats, which sampleGrid skips.
func naiveGrid(lits []ast.Term, base eval.Model) (eval.Model, int) {
	var names []string
	for name, v := range base {
		if v.Sort().IsArith() {
			names = append(names, name)
		}
	}
	if len(names) == 0 || len(names) > 6 {
		return nil, 0
	}
	sort.Strings(names)
	grid := []*big.Rat{big.NewRat(0, 1), big.NewRat(1, 1), big.NewRat(-1, 1), big.NewRat(2, 1), big.NewRat(1, 2), big.NewRat(-2, 1)}
	repeats := 0
	set := func(m eval.Model, name string, v *big.Rat) {
		old := m[name]
		if old.Sort() == ast.SortInt {
			if v.IsInt() {
				m[name] = eval.IntVal(rat.FromBig(v))
			}
		} else {
			m[name] = eval.RealVal(rat.FromBig(v))
		}
		if m[name].Equal(old) {
			repeats++
		}
	}
	holds := func(m eval.Model) bool {
		for _, l := range lits {
			if ok, err := eval.Bool(l, m); err != nil || !ok {
				return false
			}
		}
		return true
	}
	for _, name := range names {
		for _, g := range grid {
			m := base.Clone()
			set(m, name, g)
			if holds(m) {
				return m, repeats
			}
		}
	}
	if len(names) <= 3 {
		for i := range names {
			for j := i + 1; j < len(names); j++ {
				for _, g1 := range grid {
					for _, g2 := range grid {
						m := base.Clone()
						set(m, names[i], g1)
						set(m, names[j], g2)
						if holds(m) {
							return m, repeats
						}
					}
				}
			}
		}
	}
	return nil, repeats
}

func printModel(m eval.Model) string {
	if m == nil {
		return "none"
	}
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	out := ""
	for _, k := range names {
		out += fmt.Sprintf("%s=%s ", k, m[k])
	}
	return out
}

// TestSampleGridMatchesNaive runs sampleGrid on rejected candidates of
// conjunctions mixing Int and Real variables: it must return the
// witness the naive search returns, although it skips the grid points
// the naive search re-evaluates (an Int variable set to 1/2, or a
// variable set to its candidate value).
func TestSampleGridMatchesNaive(t *testing.T) {
	decls := "(declare-fun x () Int) (declare-fun y () Real) (declare-fun z () Int)\n"
	cases := []struct {
		asserts string
		base    map[string]*big.Rat // the arith candidate; z unvalued when absent
		witness bool
	}{
		{"(assert (> x 1)) (assert (= (* (to_real x) y) 1.0))", map[string]*big.Rat{"x": big.NewRat(0, 1), "y": big.NewRat(0, 1)}, true},
		{"(assert (= (* y (to_real z)) 0.5)) (assert (< x z))", map[string]*big.Rat{"x": big.NewRat(0, 1), "y": big.NewRat(0, 1)}, true},
		{"(assert (= (* x z) (- 2))) (assert (> y (* 2.0 (to_real x))))", map[string]*big.Rat{"x": big.NewRat(2, 1), "y": big.NewRat(-1, 2), "z": big.NewRat(1, 1)}, true},
		{"(assert (= (* x x) 3)) (assert (> y 0.0))", map[string]*big.Rat{"x": big.NewRat(1, 1), "y": big.NewRat(1, 2)}, false},
	}
	for i, c := range cases {
		sc, err := smtlib.ParseScript(decls + c.asserts)
		if err != nil {
			t.Fatal(err)
		}
		lits := sc.Asserts()
		m := newLitMemo(len(lits))
		for _, l := range lits {
			m.lits = append(m.lits, m.get(l))
		}
		m.collectVars()
		var cand arith.Model
		for name := range c.base {
			cand.Names = append(cand.Names, name)
		}
		sort.Strings(cand.Names)
		for _, name := range cand.Names {
			cand.Vals = append(cand.Vals, rat.FromBig(c.base[name]))
		}
		m.load(cand)
		if m.holds() {
			t.Fatalf("case %d: the candidate holds", i)
		}
		base := m.model()
		want, repeats := naiveGrid(lits, base)
		got, ok := m.sampleGrid()
		if ok != (got != nil) || ok != c.witness {
			t.Fatalf("case %d: sampleGrid ok=%v model %v, want witness %v", i, ok, got, c.witness)
		}
		if printModel(got) != printModel(want) {
			t.Errorf("case %d: sampleGrid returns %s, naive search %s", i, printModel(got), printModel(want))
		}
		if repeats == 0 {
			t.Errorf("case %d: the naive search repeats no rejected point; the case tests no skip", i)
		}
	}
}
