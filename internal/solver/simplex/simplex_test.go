package simplex

import (
	"math/rand"
	"testing"

	"repro/internal/solver/rat"
	"repro/internal/telemetry"
)

func q(n, d int64) rat.Rat { return rat.New(n, d) }

func TestNumOrdering(t *testing.T) {
	a := Rat(q(1, 1))
	b := RatDelta(q(1, 1), 1)  // 1 + δ
	c := RatDelta(q(1, 1), -1) // 1 - δ
	if !(c.Cmp(a) < 0 && a.Cmp(b) < 0) {
		t.Error("δ ordering broken")
	}
	if a.Add(b).Cmp(RatDelta(q(2, 1), 1)) != 0 {
		t.Error("Add broken")
	}
	if b.Sub(c).Cmp(RatDelta(q(0, 1), 2)) != 0 {
		t.Error("Sub broken")
	}
	if b.ScaleRat(q(3, 1)).Cmp(RatDelta(q(3, 1), 3)) != 0 {
		t.Error("ScaleRat broken")
	}
}

func TestFeasibleSystem(t *testing.T) {
	// x + y <= 10, x - y >= 2, x >= 0, y >= 0
	s := New()
	x, y := s.NewVar(), s.NewVar()
	one := q(1, 1)
	if !s.AssertAtom([]Term{{x, one}, {y, one}}, Le, q(10, 1)) {
		t.Fatal("assert 1")
	}
	if !s.AssertAtom([]Term{{x, one}, {y, q(-1, 1)}}, Ge, q(2, 1)) {
		t.Fatal("assert 2")
	}
	s.AssertVarBound(x, Ge, q(0, 1))
	s.AssertVarBound(y, Ge, q(0, 1))
	ok, err := s.Check()
	if err != nil || !ok {
		t.Fatalf("Check = %v, %v", ok, err)
	}
	vals := s.Values([]int{x, y})
	xv, yv := vals[0], vals[1]
	if xv.Add(yv).Cmp(q(10, 1)) > 0 {
		t.Errorf("x+y = %v violates <=10", xv.Add(yv))
	}
	if xv.Sub(yv).Cmp(q(2, 1)) < 0 {
		t.Errorf("x-y violates >=2")
	}
	if xv.Sign() < 0 || yv.Sign() < 0 {
		t.Error("nonnegativity violated")
	}
}

func TestInfeasibleSystem(t *testing.T) {
	// x > 0 ∧ x < 0
	s := New()
	x := s.NewVar()
	s.AssertVarBound(x, Gt, q(0, 1))
	if s.AssertVarBound(x, Lt, q(0, 1)) {
		// Immediate conflict is allowed to be detected at assert time
		// or at Check time.
		ok, err := s.Check()
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			t.Error("x>0 ∧ x<0 should be unsat")
		}
	}
}

func TestStrictBoundsSeparation(t *testing.T) {
	// x > 1 ∧ x < 2 is satisfiable with a concrete witness strictly
	// inside the interval.
	s := New()
	x := s.NewVar()
	s.AssertVarBound(x, Gt, q(1, 1))
	s.AssertVarBound(x, Lt, q(2, 1))
	ok, err := s.Check()
	if err != nil || !ok {
		t.Fatalf("Check = %v, %v", ok, err)
	}
	v := s.Values([]int{x})[0]
	if v.Cmp(q(1, 1)) <= 0 || v.Cmp(q(2, 1)) >= 0 {
		t.Errorf("witness %v not strictly inside (1,2)", v)
	}
}

func TestStrictInfeasible(t *testing.T) {
	// x > 1 ∧ x < 1
	s := New()
	x := s.NewVar()
	s.AssertVarBound(x, Gt, q(1, 1))
	conflict := !s.AssertVarBound(x, Lt, q(1, 1))
	if !conflict {
		ok, err := s.Check()
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			t.Error("x>1 ∧ x<1 should be unsat")
		}
	}
	// x >= 1 ∧ x <= 1 is satisfiable with x = 1.
	s2 := New()
	y := s2.NewVar()
	s2.AssertVarBound(y, Ge, q(1, 1))
	s2.AssertVarBound(y, Le, q(1, 1))
	ok, err := s2.Check()
	if err != nil || !ok {
		t.Fatalf("Check = %v, %v", ok, err)
	}
	if s2.Values([]int{y})[0].Cmp(q(1, 1)) != 0 {
		t.Error("y should be exactly 1")
	}
}

func TestEqualityChain(t *testing.T) {
	// x = y, y = z, x = 5 → z = 5.
	s := New()
	x, y, z := s.NewVar(), s.NewVar(), s.NewVar()
	one, mone := q(1, 1), q(-1, 1)
	s.AssertAtom([]Term{{x, one}, {y, mone}}, Eq, q(0, 1))
	s.AssertAtom([]Term{{y, one}, {z, mone}}, Eq, q(0, 1))
	s.AssertVarBound(x, Eq, q(5, 1))
	ok, err := s.Check()
	if err != nil || !ok {
		t.Fatalf("Check = %v %v", ok, err)
	}
	if s.Values([]int{z})[0].Cmp(q(5, 1)) != 0 {
		t.Errorf("z = %v want 5", s.Values([]int{z})[0])
	}
}

func TestConstantAtom(t *testing.T) {
	s := New()
	if s.AssertAtom(nil, Gt, q(1, 1)) {
		t.Error("0 > 1 should be false")
	}
	if !s.AssertAtom(nil, Le, q(0, 1)) {
		t.Error("0 <= 0 should be true")
	}
	// Zero-coefficient map is a constant too.
	if s.AssertAtom([]Term{{0, q(0, 1)}}, Eq, q(1, 1)) {
		t.Error("0 = 1 should be false")
	}
}

func TestSlackReuse(t *testing.T) {
	s := New()
	x, y := s.NewVar(), s.NewVar()
	one := q(1, 1)
	combo := []Term{{x, one}, {y, one}}
	s.AssertAtom(combo, Ge, q(3, 1))
	nBefore := len(s.vars)
	s.AssertAtom([]Term{{x, q(1, 1)}, {y, q(1, 1)}}, Le, q(7, 1))
	if len(s.vars) != nBefore {
		t.Error("identical combination should reuse its slack variable")
	}
	ok, err := s.Check()
	if err != nil || !ok {
		t.Fatalf("Check = %v %v", ok, err)
	}
}

// TestSlackRowReuse asserts two bounds over the same combination,
// built as separate slices: the second assertion must find the first
// one's slack row (no new variable, one warm hit, one miss).
func TestSlackRowReuse(t *testing.T) {
	tr := telemetry.NewTracker()
	s := New()
	s.Telem = tr
	x, y := s.NewVar(), s.NewVar()
	combo := func() []Term {
		return []Term{{x, rat.Int(1)}, {y, rat.Int(1)}}
	}
	if !s.AssertAtom(combo(), Ge, rat.Int(2)) {
		t.Fatal("x+y >= 2 rejected")
	}
	nBefore := len(s.vars)
	if !s.AssertAtom(combo(), Le, rat.Int(10)) {
		t.Fatal("x+y <= 10 rejected")
	}
	if len(s.vars) != nBefore {
		t.Fatalf("re-asserting the same combination allocated a new slack (n %d -> %d)", nBefore, len(s.vars))
	}
	snap := tr.Snapshot()
	if hits, misses := snap.Counter("yy_tableau_warm_hits_total"), snap.Counter("yy_tableau_warm_misses_total"); hits != 1 || misses != 1 {
		t.Fatalf("tableau warm hits/misses = %d/%d, want 1/1", hits, misses)
	}
	if ok, err := s.Check(); err != nil || !ok {
		t.Fatalf("Check = %v, %v; want sat", ok, err)
	}
}

// TestRandomSystemsAgainstWitness generates random satisfiable systems
// by construction (pick a witness point, emit only constraints it
// satisfies) and checks the solver agrees and returns a valid witness.
func TestRandomSystemsAgainstWitness(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for iter := 0; iter < 120; iter++ {
		nv := 2 + rng.Intn(4)
		s := New()
		vars := make([]int, nv)
		witness := make([]rat.Rat, nv)
		for i := range vars {
			vars[i] = s.NewVar()
			witness[i] = q(int64(rng.Intn(21)-10), int64(1+rng.Intn(4)))
		}
		nc := 1 + rng.Intn(8)
		for c := 0; c < nc; c++ {
			var coeffs []Term
			var lhs rat.Rat
			for i := range vars {
				if rng.Intn(2) == 0 {
					co := q(int64(rng.Intn(9)-4), 1)
					if co.Sign() == 0 {
						continue
					}
					coeffs = append(coeffs, Term{vars[i], co})
					lhs = lhs.Add(co.Mul(witness[i]))
				}
			}
			// Orient the constraint so the witness satisfies it.
			slack := q(int64(rng.Intn(5)), 1)
			switch rng.Intn(3) {
			case 0: // lhs <= lhs + slack
				if !s.AssertAtom(coeffs, Le, lhs.Add(slack)) {
					t.Fatalf("iter %d: satisfiable-by-construction assert failed", iter)
				}
			case 1: // lhs >= lhs - slack
				if !s.AssertAtom(coeffs, Ge, lhs.Sub(slack)) {
					t.Fatalf("iter %d: assert failed", iter)
				}
			case 2: // strict: lhs < lhs + slack + 1
				bound := lhs.Add(slack).Add(q(1, 1))
				if !s.AssertAtom(coeffs, Lt, bound) {
					t.Fatalf("iter %d: assert failed", iter)
				}
			}
		}
		ok, err := s.Check()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("iter %d: satisfiable system reported unsat", iter)
		}
	}
}

// TestRandomInfeasible embeds x ≤ c ∧ x ≥ c+1 among noise constraints.
func TestRandomInfeasible(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 60; iter++ {
		s := New()
		nv := 2 + rng.Intn(3)
		vars := make([]int, nv)
		for i := range vars {
			vars[i] = s.NewVar()
		}
		conflict := false
		add := func(ok bool) {
			if !ok {
				conflict = true
			}
		}
		// Noise.
		for c := 0; c < rng.Intn(5); c++ {
			coeffs := []Term{{vars[rng.Intn(nv)], q(int64(1+rng.Intn(3)), 1)}}
			add(s.AssertAtom(coeffs, Le, q(int64(rng.Intn(50)), 1)))
		}
		// Core contradiction on a random combination.
		coeffs := []Term{{vars[0], q(1, 1)}}
		if v := vars[rng.Intn(nv)]; v == vars[0] {
			coeffs[0].Coeff = q(2, 1) // the map literal kept the later key
		} else {
			coeffs = append(coeffs, Term{v, q(2, 1)})
		}
		c0 := q(int64(rng.Intn(10)), 1)
		add(s.AssertAtom(coeffs, Le, c0))
		add(s.AssertAtom(coeffs, Ge, c0.Add(q(1, 1))))
		if conflict {
			continue // detected at assert time
		}
		ok, err := s.Check()
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			t.Fatalf("iter %d: infeasible system reported sat", iter)
		}
	}
}
