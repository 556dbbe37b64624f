package simplex

import (
	"testing"
	"testing/quick"

	"repro/internal/rat"
)

// Property: δ-rational ordering is a total order consistent with the
// limit semantics — a + bδ < c + dδ iff a < c, or a = c and b < d.
func TestQuickNumOrdering(t *testing.T) {
	f := func(a, b, c, d int32) bool {
		x := Num{A: rat.Int(int64(a)), B: rat.Int(int64(b))}
		y := Num{A: rat.Int(int64(c)), B: rat.Int(int64(d))}
		want := 0
		switch {
		case a < c || (a == c && b < d):
			want = -1
		case a > c || (a == c && b > d):
			want = 1
		}
		return x.Cmp(y) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Num arithmetic is componentwise — (x+y)−y = x.
func TestQuickNumAddSubInverse(t *testing.T) {
	f := func(a, b, c, d int32) bool {
		x := Num{A: rat.Int(int64(a)), B: rat.Int(int64(b))}
		y := Num{A: rat.Int(int64(c)), B: rat.Int(int64(d))}
		return x.Add(y).Sub(y).Cmp(x) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: a single-variable box a ≤ x ≤ b is satisfiable iff a ≤ b,
// and the witness lies in the box.
func TestQuickBoxFeasibility(t *testing.T) {
	f := func(aRaw, bRaw int16) bool {
		a := rat.Int(int64(aRaw))
		b := rat.Int(int64(bRaw))
		s := New()
		x := s.NewVar()
		okLower := s.AssertVarBound(x, Ge, a)
		okUpper := s.AssertVarBound(x, Le, b)
		feasible := a.Cmp(b) <= 0
		if !okLower || !okUpper {
			// Conflict detected at assert time: must be infeasible.
			return !feasible
		}
		got, err := s.Check()
		if err != nil {
			return false
		}
		if got != feasible {
			return false
		}
		if got {
			v := s.Values([]int{x})[0]
			return v.Cmp(a) >= 0 && v.Cmp(b) <= 0
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: the witness returned after Check satisfies every asserted
// two-variable constraint (sum and difference bounds oriented to be
// jointly satisfiable by construction).
func TestQuickWitnessSatisfiesConstraints(t *testing.T) {
	f := func(p, q int16, slackRaw uint8) bool {
		slack := int64(slackRaw%16) + 1
		s := New()
		x, y := s.NewVar(), s.NewVar()
		one := rat.Int(1)
		sum := rat.Int(int64(p) + int64(q))
		diff := rat.Int(int64(p) - int64(q))
		upper := sum.Add(rat.Int(slack))
		lower := diff.Sub(rat.Int(slack))
		if !s.AssertAtom(-1, []Term{{x, one}, {y, one}}, Le, upper) {
			return false
		}
		if !s.AssertAtom(-1, []Term{{x, one}, {y, one.Neg()}}, Ge, lower) {
			return false
		}
		ok, err := s.Check()
		if err != nil || !ok {
			return false
		}
		vals := s.Values([]int{x, y})
		sumV := vals[0].Add(vals[1])
		diffV := vals[0].Sub(vals[1])
		return sumV.Cmp(upper) <= 0 && diffV.Cmp(lower) >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
