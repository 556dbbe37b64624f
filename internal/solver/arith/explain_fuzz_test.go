package arith

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/rat"
)

// fuzzProblem decodes data into a linear conjunction over up to four
// variables: the first byte picks the variable count and which of them
// are integers, then every five bytes make one atom, a relation (≠
// included) over coefficients in [−3, 3] and a constant in [−12, 12].
func fuzzProblem(data []byte) *Problem {
	if len(data) == 0 {
		return nil
	}
	nv := 2 + int(data[0]&3)%3
	names := []string{"a", "b", "c", "d"}[:nv]
	p := &Problem{IntVars: map[string]bool{}}
	for i, v := range names {
		if data[0]>>(2+i)&1 == 1 {
			p.IntVars[v] = true
		}
	}
	data = data[1:]
	for len(data) >= 5 && len(p.Atoms) < 10 {
		e := NewLinExpr()
		for i, v := range names {
			// One nibble per coefficient across bytes 1–2.
			k := int64(data[1+i/2]>>(4*(i%2))&7%7) - 3
			e.AddVar(v, rat.Int(k))
		}
		e.Const = rat.Int(int64(data[3]%25) - 12)
		p.Atoms = append(p.Atoms, Atom{Expr: e, Rel: Rel(data[4] % 6)})
		data = data[5:]
	}
	return p
}

func describe(atoms []Atom, ints map[string]bool) string {
	var b strings.Builder
	for _, a := range atoms {
		fmt.Fprintf(&b, "  %s %v 0\n", a.Expr, a.Rel)
	}
	fmt.Fprintf(&b, "  ints %v", ints)
	return b.String()
}

// FuzzExplanationUnsat checks CheckCore's cores: whenever it reports
// Unsat on a random linear conjunction (Int and Real variables, ≠
// atoms, branch and bound), the core is a nonempty sorted set of atom
// indices whose atoms are Unsat on their own. It also checks that
// explaining does not change the search: CheckCore and Check agree.
func FuzzExplanationUnsat(f *testing.F) {
	// Bound pair, infeasible row, GCD cut (2a + 2b = 1 over Int), a
	// disequality split and a branch-and-bound tree.
	f.Add([]byte{0x00, 0, 0x04, 0, 13, 0, 0, 0x02, 0, 10, 3})
	f.Add([]byte{0x01, 0, 0x34, 0x33, 11, 3, 0, 0x43, 0x33, 11, 3, 0, 0x44, 0x33, 16, 0})
	f.Add([]byte{0x0c, 0, 0x55, 0, 13, 4})
	f.Add([]byte{0x04, 0, 0x04, 0, 12, 5, 0, 0x04, 0, 11, 2, 0, 0x04, 0, 13, 0})
	f.Add([]byte{0x0c, 0, 0x56, 0, 13, 4, 0, 0x04, 0, 12, 3, 0, 0x05, 0, 13, 0})
	f.Add([]byte{0x1d, 0, 0x64, 0x03, 10, 0, 0, 0x35, 0x03, 15, 3, 0, 0x53, 0x03, 8, 5, 0, 0x13, 0x05, 14, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		p := fuzzProblem(data)
		if p == nil || len(p.Atoms) == 0 {
			return
		}
		st, _, core := CheckCore(p)
		if plain, _ := Check(p); plain != st {
			t.Fatalf("Check = %v, CheckCore = %v on\n%s", plain, st, describe(p.Atoms, p.IntVars))
		}
		if st != Unsat {
			if core != nil {
				t.Fatalf("%v with core %v", st, core)
			}
			return
		}
		if len(core) == 0 {
			t.Fatalf("Unsat with an empty core on\n%s", describe(p.Atoms, p.IntVars))
		}
		var sub []Atom
		for i, j := range core {
			if j < 0 || j >= len(p.Atoms) || i > 0 && core[i-1] >= j {
				t.Fatalf("core %v is not a sorted set of atom indices below %d", core, len(p.Atoms))
			}
			sub = append(sub, p.Atoms[j])
		}
		if got, _ := Check(&Problem{Atoms: sub, IntVars: p.IntVars, NodeBudget: 4000}); got != Unsat {
			t.Fatalf("core %v is %v on its own; problem\n%s", core, got, describe(p.Atoms, p.IntVars))
		}
	})
}

// TestCheckCoreNamesCulprits pins small cores: the bystander atoms of
// each conjunction stay out.
func TestCheckCoreNamesCulprits(t *testing.T) {
	decls := map[string]ast.Sort{"x": ast.SortInt, "y": ast.SortInt, "r": ast.SortReal, "s": ast.SortReal}
	ints := map[string]bool{"x": true, "y": true}
	for _, tc := range []struct {
		atoms []string
		want  []int
	}{
		// Bound pair.
		{[]string{"(< r 5.0)", "(> x 0)", "(> r 7.0)"}, []int{0, 2}},
		// Infeasible row: its Farkas support.
		{[]string{"(>= r 1.0)", "(< s 10.0)", "(>= s 1.0)", "(<= (+ r s) 1.0)"}, []int{0, 2, 3}},
		// GCD cut.
		{[]string{"(> r 0.0)", "(= (* 2 x) (+ (* 2 y) 1))"}, []int{1}},
		// Branch and bound: 1 ≤ 2x ≤ 1 has only x = 1/2; both branches
		// fail.
		{[]string{"(>= (* 2 x) 1)", "(> r s)", "(<= y 9)", "(<= (* 2 x) 1)"}, []int{0, 3}},
		// Disequality split: x ≠ 3 with 3 ≤ x ≤ 3.
		{[]string{"(distinct x 3)", "(< r 0.0)", "(<= x 3)", "(>= x 3)"}, []int{0, 2, 3}},
	} {
		atoms := atomsOf(t, decls, tc.atoms...)
		st, _, core := CheckCore(&Problem{Atoms: atoms, IntVars: ints})
		if st != Unsat || !slices.Equal(core, tc.want) {
			t.Errorf("%v: CheckCore = %v %v, want unsat %v", tc.atoms, st, core, tc.want)
		}
	}
}
