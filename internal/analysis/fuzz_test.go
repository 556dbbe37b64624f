package analysis

import (
	"testing"

	"repro/internal/smtlib"
)

// FuzzAnalyze drives every pass over arbitrary input: any script the
// parser accepts must flow through all of them without a panic or
// runtime termination. The passes walk attacker-shaped trees
// (arity-0 applications, deeply nested ites, quantifiers over reused
// names, degenerate literals such as (- 0) and (/ 1.0 0.0)), so this is
// where malformed-shape assumptions in a pass surface first — the gate
// in internal/core runs these same passes on every fused script.
func FuzzAnalyze(f *testing.F) {
	seeds := []string{
		"(set-logic QF_LIA)\n(declare-fun x () Int)\n(assert (> x 1))\n(check-sat)\n",
		"(set-logic QF_LIA)\n(declare-fun x () Int)\n(declare-fun y () Int)\n(assert (distinct y 0))\n(assert (> (div x y) (mod x y)))\n(check-sat)\n",
		"(set-logic QF_LIA)\n(declare-fun x () Int)\n(assert (and (> x 3) (< x 2)))\n(check-sat)\n",
		"(set-logic QF_LIA)\n(declare-fun x () Int)\n(assert (<= 0 (abs x)))\n(check-sat)\n",
		"(set-logic QF_LRA)\n(declare-fun a () Real)\n(declare-fun b () Real)\n(assert (> (/ a (ite (= b 0.0) 1.0 b)) 0.5))\n(check-sat)\n",
		"(set-logic QF_NIA)\n(declare-fun x () Int)\n(assert (< (* 0 x) (- 4)))\n(check-sat)\n",
		"(set-logic QF_S)\n(declare-fun s () String)\n(assert (> (str.len s) 2))\n(assert (str.in_re s (re.* (str.to_re \"ab\"))))\n(check-sat)\n",
		"(set-logic LIA)\n(declare-fun n () Int)\n(assert (forall ((h Int)) (<= (div h n) n)))\n(check-sat)\n",
		"(set-logic QF_LIA)\n(assert true)\n(check-sat)\n",
		"(set-logic QF_LRA)\n(declare-fun r () Real)\n(assert (= (to_int r) (- (/ 1.0 3.0))))\n(check-sat)\n",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		sc, err := smtlib.ParseScript(src)
		if err != nil {
			return // rejecting garbage is fine; panicking is not
		}
		diags := AnalyzeScript(sc, nil)
		for _, d := range diags {
			if d.Pass == "" {
				t.Fatalf("diagnostic with empty pass name: %v", d)
			}
			_ = d.String()
		}
		// The same passes must also hold on the printed round trip — the
		// gate sees scripts both fresh from fusion and after reduction
		// re-parses them.
		sc2, err := smtlib.ParseScript(smtlib.Print(sc))
		if err != nil {
			return
		}
		AnalyzeScript(sc2, nil)
	})
}
