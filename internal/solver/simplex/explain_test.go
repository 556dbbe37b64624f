package simplex

import (
	"slices"
	"testing"
)

// explained returns the sorted owners Explain names.
func explained(s *Solver) []int {
	out := s.Explain(nil)
	slices.Sort(out)
	return out
}

func TestExplainBoundPair(t *testing.T) {
	s := New()
	x := s.NewVar()
	xs := []Term{{x, q(1, 1)}}
	if !s.AssertAtom(3, xs, Le, q(1, 1)) {
		t.Fatal("x ≤ 1 alone conflicts")
	}
	if s.AssertAtom(5, xs, Gt, q(1, 1)) {
		t.Fatal("x ≤ 1 ∧ x > 1 not detected at assertion")
	}
	if got := explained(s); !slices.Equal(got, []int{3, 5}) {
		t.Errorf("Explain = %v, want [3 5]", got)
	}

	// A false constant atom names itself.
	s = New()
	if s.AssertAtom(7, nil, Lt, q(0, 1)) {
		t.Fatal("0 < 0 accepted")
	}
	if got := explained(s); !slices.Equal(got, []int{7}) {
		t.Errorf("constant Explain = %v, want [7]", got)
	}
}

func TestExplainInfeasibleRow(t *testing.T) {
	// 0: x ≥ 1, 1: y ≥ 1, 2: x + y ≤ 1 are infeasible together; 3 and 4
	// are satisfiable bystanders on other slacks.
	s := New()
	x, y, z := s.NewVar(), s.NewVar(), s.NewVar()
	one := q(1, 1)
	for _, a := range []struct {
		owner int
		terms []Term
		op    Op
		c     int64
	}{
		{3, []Term{{x, one}, {y, q(-1, 1)}}, Le, 100},
		{4, []Term{{z, one}, {x, one}}, Ge, -50},
		{0, []Term{{x, one}}, Ge, 1},
		{1, []Term{{y, one}}, Ge, 1},
		{2, []Term{{x, one}, {y, one}}, Le, 1},
	} {
		if !s.AssertAtom(a.owner, a.terms, a.op, q(a.c, 1)) {
			t.Fatalf("atom %d conflicts at assertion", a.owner)
		}
	}
	ok, err := s.Check()
	if err != nil || ok {
		t.Fatalf("Check = %v, %v; want unsat", ok, err)
	}
	if got := explained(s); !slices.Equal(got, []int{0, 1, 2}) {
		t.Errorf("Explain = %v, want the Farkas support [0 1 2]", got)
	}
}

func TestExplainSharedSlackNamesTightener(t *testing.T) {
	// Atoms 0–2 bound the one slack of x + y from above; only 1 is the
	// tightest, so the conflict with atom 3's lower bound names 1.
	s := New()
	x, y := s.NewVar(), s.NewVar()
	sum := func() []Term { return []Term{{x, q(1, 1)}, {y, q(1, 1)}} }
	for i, c := range []int64{5, 3, 4} {
		if !s.AssertAtom(i, sum(), Le, q(c, 1)) {
			t.Fatalf("atom %d conflicts at assertion", i)
		}
	}
	if s.AssertAtom(3, sum(), Ge, q(4, 1)) {
		t.Fatal("x + y ≤ 3 ∧ x + y ≥ 4 not detected at assertion")
	}
	if got := explained(s); !slices.Equal(got, []int{1, 3}) {
		t.Errorf("Explain = %v, want [1 3]", got)
	}
}
