package simplex

import (
	"math/rand"
	"testing"

	"repro/internal/solver/rat"
)

func TestMarkPopRestoresBounds(t *testing.T) {
	s := New()
	x := s.NewVar()
	if !s.AssertVarBound(x, Ge, rat.Int(0)) {
		t.Fatal("x >= 0 rejected")
	}
	m := s.Mark()
	if !s.AssertVarBound(x, Le, rat.Int(-1)) {
		// Conflict detected eagerly — still covered by the pop below.
		t.Log("x <= -1 rejected eagerly")
	}
	s.PopToMark(m)
	if ok, err := s.Check(); err != nil || !ok {
		t.Fatalf("Check after pop = %v, %v; want sat", ok, err)
	}
	vals := s.Values([]int{x})
	if vals[0].Sign() < 0 {
		t.Errorf("x = %v violates retained bound x >= 0", vals[0])
	}
}

func TestMarkPopReusesSlackRows(t *testing.T) {
	s := New()
	x, y := s.NewVar(), s.NewVar()
	combo := func() []Term {
		return []Term{{x, rat.Int(1)}, {y, rat.Int(1)}}
	}
	if !s.AssertAtom(combo(), Ge, rat.Int(2)) {
		t.Fatal("x+y >= 2 rejected")
	}
	nBefore := len(s.vars)
	m := s.Mark()
	if !s.AssertAtom(combo(), Le, rat.Int(10)) {
		t.Fatal("x+y <= 10 rejected")
	}
	if len(s.vars) != nBefore {
		t.Fatalf("re-asserting the same combination allocated a new slack (n %d -> %d)", nBefore, len(s.vars))
	}
	s.PopToMark(m)
	// The row survives the pop: asserting over it again is still warm.
	if !s.AssertAtom(combo(), Le, rat.Int(3)) {
		t.Fatal("x+y <= 3 rejected after pop")
	}
	if len(s.vars) != nBefore {
		t.Fatalf("slack row not reused after pop (n %d -> %d)", nBefore, len(s.vars))
	}
	if ok, err := s.Check(); err != nil || !ok {
		t.Fatalf("Check = %v, %v; want sat", ok, err)
	}
}

// randomAtom draws a small random atom over vars.
func randomAtom(rng *rand.Rand, vars []int) ([]Term, Op, rat.Rat) {
	var coeffs []Term
	for _, v := range vars {
		if rng.Intn(2) == 0 {
			coeffs = append(coeffs, Term{v, rat.Int(int64(rng.Intn(5) - 2))})
		}
	}
	ops := []Op{Le, Lt, Ge, Gt, Eq}
	return coeffs, ops[rng.Intn(len(ops))], rat.Int(int64(rng.Intn(9) - 4))
}

type atom struct {
	coeffs []Term
	op     Op
	c      rat.Rat
}

func checkAll(nVars int, groups ...[]atom) bool {
	s := New()
	vars := make([]int, nVars)
	for i := range vars {
		vars[i] = s.NewVar()
	}
	for _, g := range groups {
		for _, a := range g {
			if !s.AssertAtom(a.coeffs, a.op, a.c) {
				return false
			}
		}
	}
	ok, err := s.Check()
	return err == nil && ok
}

// TestMarkPopMatchesFresh drives random assert/mark/assert/pop rounds
// and compares every Check verdict against a fresh instance holding
// exactly the live atoms — the soundness test for bound retraction
// over a retained tableau.
func TestMarkPopMatchesFresh(t *testing.T) {
	for seed := int64(0); seed < 80; seed++ {
		rng := rand.New(rand.NewSource(seed))
		nVars := 2 + rng.Intn(3)
		s := New()
		vars := make([]int, nVars)
		for i := range vars {
			vars[i] = s.NewVar()
		}
		var base []atom
		baseOK := true
		for i := 0; i < 1+rng.Intn(4); i++ {
			co, op, c := randomAtom(rng, vars)
			base = append(base, atom{co, op, c})
			baseOK = baseOK && s.AssertAtom(co, op, c)
		}
		if baseOK {
			ok, err := s.Check()
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			if ok != checkAll(nVars, base) {
				t.Fatalf("seed %d: base verdict %v, fresh %v", seed, ok, !ok)
			}
			if !ok {
				continue // conflicting base: retraction rounds start elsewhere
			}
		} else {
			continue
		}
		for round := 0; round < 3; round++ {
			m := s.Mark()
			var extra []atom
			extraOK := true
			for i := 0; i < 1+rng.Intn(3); i++ {
				co, op, c := randomAtom(rng, vars)
				extra = append(extra, atom{co, op, c})
				extraOK = extraOK && s.AssertAtom(co, op, c)
			}
			if extraOK {
				ok, err := s.Check()
				if err != nil {
					t.Fatalf("seed %d round %d: %v", seed, round, err)
				}
				if want := checkAll(nVars, base, extra); ok != want {
					t.Fatalf("seed %d round %d: framed verdict %v, fresh %v", seed, round, ok, want)
				}
			}
			s.PopToMark(m)
			ok, err := s.Check()
			if err != nil {
				t.Fatalf("seed %d round %d: %v", seed, round, err)
			}
			if !ok {
				t.Fatalf("seed %d round %d: sat base became unsat after PopToMark", seed, round)
			}
		}
	}
}
