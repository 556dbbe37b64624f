package solver

import (
	"testing"
)

// Tests for cross-theory behaviour: QF_SLIA formulas mixing string and
// integer reasoning, boolean structure over both, and the fixed
// division-by-zero interpretation interacting with theory dispatch.

func TestCombinedStringIntSat(t *testing.T) {
	out := wantResult(t, `
(set-logic QF_SLIA)
(declare-fun a () String)
(declare-fun b () String)
(declare-fun n () Int)
(assert (= a (str.++ b "xy")))
(assert (= n (+ (str.len b) 1)))
(assert (= (str.len a) 4))
(assert (> n 2))
`, ResSat)
	n := out.Model["n"]
	if n.String() != "3" {
		t.Errorf("n = %v want 3 (len b = 2)", n)
	}
}

func TestCombinedStringIntUnsat(t *testing.T) {
	wantResult(t, `
(set-logic QF_SLIA)
(declare-fun a () String)
(declare-fun b () String)
(assert (= a (str.++ b b)))
(assert (= (str.len a) 3))
`, ResUnsat) // |a| = 2|b| cannot be odd
}

func TestCombinedBooleanGuards(t *testing.T) {
	wantResult(t, `
(set-logic QF_SLIA)
(declare-fun a () String)
(declare-fun p () Bool)
(assert (= p (str.prefixof "ab" a)))
(assert (ite p (= (str.len a) 3) false))
`, ResSat)
	wantResult(t, `
(set-logic QF_SLIA)
(declare-fun a () String)
(declare-fun p () Bool)
(assert (= p (str.prefixof "ab" a)))
(assert p)
(assert (< (str.len a) 2))
`, ResUnsat)
}

func TestCombinedToIntArithmetic(t *testing.T) {
	out := wantResult(t, `
(set-logic QF_SLIA)
(declare-fun a () String)
(declare-fun n () Int)
(assert (= a "17"))
(assert (= n (+ (str.to_int a) 5)))
`, ResSat)
	n := out.Model["n"]
	if n.String() != "22" {
		t.Errorf("n = %v want 22", n)
	}
}

func TestDisjointTheoriesInOneFormula(t *testing.T) {
	// Arithmetic-only and string-only conjuncts in one script: the
	// string checker handles the combined conjunction.
	wantResult(t, `
(set-logic QF_SLIA)
(declare-fun x () Int)
(declare-fun s () String)
(assert (> (* 2 x) 7))
(assert (= s "ok"))
`, ResSat)
	wantResult(t, `
(set-logic QF_SLIA)
(declare-fun x () Int)
(declare-fun s () String)
(assert (> x 0))
(assert (< x 0))
(assert (= s "ok"))
`, ResUnsat)
}

func TestDivZeroAcrossTheories(t *testing.T) {
	// str.to_int feeding a division: (div 7 (str.to_int "")) =
	// (div 7 -1) = -7.
	out := wantResult(t, `
(set-logic QF_SLIA)
(declare-fun n () Int)
(assert (= n (div 7 (str.to_int ""))))
`, ResSat)
	n := out.Model["n"]
	if n.String() != "(- 7)" {
		t.Errorf("n = %v want -7", n)
	}
}

func TestIndexOfReasoning(t *testing.T) {
	wantResult(t, `
(set-logic QF_SLIA)
(declare-fun a () String)
(declare-fun i () Int)
(assert (= a "abcabc"))
(assert (= i (str.indexof a "bc" 2)))
(assert (= i 4))
`, ResSat)
	wantResult(t, `
(set-logic QF_SLIA)
(declare-fun a () String)
(assert (= a "abc"))
(assert (= (str.indexof a "zz" 0) 1))
`, ResUnsat)
}

func TestLargeConjunctionStaysDecided(t *testing.T) {
	// A wider formula with many independent facts must still be decided
	// within default budgets.
	src := `(set-logic QF_SLIA)
(declare-fun a () String)
(declare-fun b () String)
(declare-fun n () Int)
(declare-fun m () Int)
(assert (= a "hello"))
(assert (str.prefixof "he" a))
(assert (str.suffixof "lo" a))
(assert (str.contains a "ell"))
(assert (= b (str.substr a 1 3)))
(assert (= n (str.len b)))
(assert (= m (* n 2)))
(assert (> m 5))
(assert (= (str.at a 0) "h"))
(check-sat)
`
	out := wantResult(t, src, ResSat)
	if out.Model["b"].Str() != "ell" {
		t.Errorf("b = %v", out.Model["b"])
	}
}
