package solver

import (
	"slices"
	"testing"

	"repro/internal/ast"
	"repro/internal/coverage"
	"repro/internal/eval"
	"repro/internal/smtlib"
	"repro/internal/solver/rat"
)

func solveSrc(t *testing.T, s *Solver, src string) Outcome {
	t.Helper()
	sc, err := smtlib.ParseScript(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return s.SolveScript(sc)
}

func wantResult(t *testing.T, src string, want Result) Outcome {
	t.Helper()
	out := solveSrc(t, NewReference(), src)
	if out.Result != want {
		t.Fatalf("got %v (reason %q), want %v\nscript:\n%s", out.Result, out.Reason, want, src)
	}
	if out.Result == ResSat {
		certifyOriginal(t, src, out.Model)
	}
	return out
}

// certifyOriginal checks a model against the original (unrewritten)
// script — the reference solver must be model-sound end to end.
func certifyOriginal(t *testing.T, src string, m eval.Model) {
	t.Helper()
	sc, _ := smtlib.ParseScript(src)
	for _, a := range sc.Asserts() {
		if ast.HasQuantifier(a) {
			continue // not decidable by evaluation
		}
		ok, err := eval.Bool(a, m)
		if err != nil {
			t.Fatalf("certify: %v (assert %s)", err, ast.Print(a))
		}
		if !ok {
			t.Fatalf("model violates original assert %s\nmodel: %v", ast.Print(a), m)
		}
	}
}

func TestTrivial(t *testing.T) {
	wantResult(t, `(assert true)(check-sat)`, ResSat)
	wantResult(t, `(assert false)(check-sat)`, ResUnsat)
	wantResult(t, `(declare-fun p () Bool)(assert p)(assert (not p))`, ResUnsat)
	wantResult(t, `(declare-fun p () Bool)(declare-fun q () Bool)(assert (or p q))(assert (not p))`, ResSat)
}

func TestLIA(t *testing.T) {
	wantResult(t, `
(set-logic QF_LIA)
(declare-fun x () Int)(declare-fun y () Int)
(assert (> x 0))(assert (< x 3))(assert (= y (+ x x)))
`, ResSat)
	wantResult(t, `
(set-logic QF_LIA)
(declare-fun x () Int)
(assert (> x 0))(assert (< x 1))
`, ResUnsat)
	wantResult(t, `
(set-logic QF_LIA)
(declare-fun x () Int)(declare-fun y () Int)
(assert (= (* 2 x) (+ (* 2 y) 1)))
`, ResUnsat)
}

func TestLRA(t *testing.T) {
	wantResult(t, `
(set-logic QF_LRA)
(declare-fun a () Real)(declare-fun b () Real)
(assert (< a b))(assert (> a 0.0))(assert (< b 0.5))
`, ResSat)
	wantResult(t, `
(set-logic QF_LRA)
(declare-fun a () Real)
(assert (< a 1.0))(assert (> a 1.0))
`, ResUnsat)
	// Strict boundary: x ≥ 0 ∧ x ≤ 0 is sat (x = 0).
	wantResult(t, `
(set-logic QF_LRA)
(declare-fun a () Real)
(assert (>= a 0.0))(assert (<= a 0.0))
`, ResSat)
}

func TestBooleanStructure(t *testing.T) {
	wantResult(t, `
(declare-fun x () Int)(declare-fun w () Bool)
(assert (= x (- 1)))
(assert (= w (= x (- 1))))
(assert w)
`, ResSat)
	wantResult(t, `
(declare-fun y () Int)(declare-fun v () Bool)
(assert (= v (not (= y (- 1)))))
(assert (ite v false (= y (- 1))))
`, ResSat)
	wantResult(t, `
(declare-fun p () Bool)(declare-fun q () Bool)
(assert (xor p q))(assert (= p q))
`, ResUnsat)
	wantResult(t, `
(declare-fun p () Bool)(declare-fun q () Bool)(declare-fun r () Bool)
(assert (=> p q r))(assert p)(assert q)(assert (not r))
`, ResUnsat)
}

func TestPaperFigure3SatFusion(t *testing.T) {
	// The fused formula from the paper's Figure 3 (satisfiable; CVC4
	// wrongly answered unsat). Our reference solver must say sat.
	src := `
(declare-fun v () Bool)
(declare-fun w () Bool)
(declare-fun x () Int)
(declare-fun y () Int)
(declare-fun z () Int)
(assert (= (div z y) (- 1)))
(assert (= w (= x (- 1)))) (assert w)
(assert (= v (not (= y (- 1)))))
(assert (ite v false (= (div z x) (- 1))))
(check-sat)
`
	out := solveSrc(t, NewReference(), src)
	if out.Result == ResUnsat {
		t.Fatalf("reference solver is unsound on Figure 3: %v", out.Result)
	}
	if out.Result == ResSat {
		certifyOriginal(t, src, out.Model)
	}
}

func TestPaperFigure5UnsatFusion(t *testing.T) {
	// The fused formula from the paper's Figure 5 (unsatisfiable; Z3
	// wrongly answered sat). Unsat or unknown are acceptable; sat is a
	// soundness bug.
	src := `
(declare-fun v () Real)
(declare-fun w () Real)
(declare-fun x () Real)
(declare-fun y () Real)
(declare-fun z () Real)
(assert (or
  (not (= (+ (+ 1.0 (/ z y)) 6.0) (+ 7.0 x)))
  (and (< (/ z x) v) (>= w v)
       (< (/ w v) 0) (> (/ z x) 0))))
(assert (= z (* x y)))
(assert (= x (/ z y)))
(assert (= y (/ z x)))
(check-sat)
`
	out := solveSrc(t, NewReference(), src)
	if out.Result == ResSat {
		t.Fatalf("reference solver claims sat on the unsat Figure 5 formula")
	}
}

func TestNRASat(t *testing.T) {
	wantResult(t, `
(set-logic QF_NRA)
(declare-fun a () Real)(declare-fun b () Real)
(assert (= (* a b) 2.0))(assert (> a 0.0))
`, ResSat)
}

func TestNRAUnsatViaIntervals(t *testing.T) {
	src := `
(set-logic QF_NRA)
(declare-fun a () Real)(declare-fun b () Real)
(assert (> a 0.0))(assert (> b 0.0))(assert (< (* a b) 0.0))
`
	out := solveSrc(t, NewReference(), src)
	if out.Result == ResSat {
		t.Fatalf("sign conflict reported sat")
	}
	if out.Result != ResUnsat {
		t.Logf("interval refutation missed (got %v) — acceptable but weak", out.Result)
	}
}

func TestSquareSignRewrite(t *testing.T) {
	wantResult(t, `
(set-logic QF_NRA)
(declare-fun a () Real)
(assert (< (* a a) 0.0))
`, ResUnsat)
	wantResult(t, `
(set-logic QF_NRA)
(declare-fun a () Real)
(assert (>= (* a a) 0.0))
`, ResSat)
}

func TestStringsIntegration(t *testing.T) {
	wantResult(t, `
(set-logic QF_S)
(declare-fun a () String)(declare-fun b () String)
(assert (= a (str.++ b "x")))(assert (= (str.len a) 3))
`, ResSat)
	wantResult(t, `
(set-logic QF_S)
(declare-fun a () String)
(assert (= a (str.++ a "x")))
`, ResUnsat)
	wantResult(t, `
(set-logic QF_SLIA)
(declare-fun a () String)(declare-fun n () Int)
(assert (= n (str.len a)))(assert (< n 0))
`, ResUnsat)
}

func TestQuantifiers(t *testing.T) {
	// Positive existential: skolemized.
	wantResult(t, `
(set-logic LRA)
(declare-fun a () Real)
(assert (exists ((h Real)) (> h a)))
`, ResSat)
	// Negated universal becomes positive existential.
	wantResult(t, `
(set-logic LRA)
(declare-fun a () Real)
(assert (not (forall ((h Real)) (<= h a))))
`, ResSat)
	// Positive universal: honest unknown.
	out := solveSrc(t, NewReference(), `
(set-logic LRA)
(declare-fun a () Real)
(assert (forall ((h Real)) (> h a)))
`)
	if out.Result != ResUnknown {
		t.Fatalf("positive forall should be unknown, got %v", out.Result)
	}
}

func TestInliningCollapsesAdditiveFusion(t *testing.T) {
	// z := x + y introduced by fusion; occurrences of x replaced by
	// z - y. Inlining + linear normalization must recover x > 0 ∧ x < 3.
	wantResult(t, `
(set-logic QF_LIA)
(declare-fun x () Int)(declare-fun y () Int)(declare-fun z () Int)
(assert (= z (+ x y)))
(assert (> (- z y) 0))
(assert (< x 3))
(assert (< y 100))
`, ResSat)
}

func TestDivisionByZeroSemantics(t *testing.T) {
	// (/ 1.0 0.0) = 0 under the fixed interpretation.
	wantResult(t, `
(set-logic QF_NRA)
(declare-fun c () Real)
(assert (= c 0.0))
(assert (= (/ 1.0 c) 0.0))
`, ResSat)
}

// --- Defect behaviour ---

func defective(d Defect) *Solver {
	return New(Config{Defects: map[Defect]bool{d: true}})
}

// checkFires solves src with the reference solver and with only d
// enabled: the defective solve must name d in Outcome.DefectsFired and
// the reference solve must fire nothing.
func checkFires(t *testing.T, d Defect, src string) (ref, buggy Outcome) {
	t.Helper()
	ref = solveSrc(t, NewReference(), src)
	if len(ref.DefectsFired) != 0 {
		t.Errorf("reference fired %v", ref.DefectsFired)
	}
	buggy = solveSrc(t, defective(d), src)
	if !slices.Contains(buggy.DefectsFired, d) {
		t.Errorf("%s: DefectsFired = %v, want it named", d, buggy.DefectsFired)
	}
	return ref, buggy
}

func TestDefectStrToIntEmpty(t *testing.T) {
	// str.to_int "" = -1; the defect folds it to 0.
	src := `
(set-logic QF_SLIA)
(declare-fun n () Int)
(assert (= n (str.to_int "")))
(assert (= n 0))
`
	ref, out := checkFires(t, DefStrToIntEmpty, src)
	if ref.Result != ResUnsat {
		t.Fatalf("reference: got %v want unsat", ref.Result)
	}
	if out.Result != ResSat {
		t.Fatalf("defective solver should (wrongly) answer sat, got %v", out.Result)
	}
	if len(out.DefectsFired) != 1 {
		t.Errorf("DefectsFired = %v", out.DefectsFired)
	}
}

func TestDefectStrReplaceEmpty(t *testing.T) {
	// (str.replace "bc" "" "a") = "abc"; defect says "bc".
	src := `
(set-logic QF_S)
(declare-fun s () String)
(assert (= s (str.replace "bc" "" "a")))
(assert (= s "bc"))
`
	if ref, out := checkFires(t, DefStrReplaceEmptyPat, src); ref.Result != ResUnsat || out.Result != ResSat {
		t.Fatalf("reference %v, defective %v: want unsat, sat", ref.Result, out.Result)
	}
}

func TestDefectIntDivNegRound(t *testing.T) {
	// (div 7 -2) = -3 Euclidean; truncation gives -3 too... use -7/2:
	// Euclidean (div -7 2) = -4, truncated = -3.
	src := `
(set-logic QF_NIA)
(declare-fun q () Int)
(assert (= q (div (- 7) (- 2))))
(assert (= q 3))
`
	// Euclidean: -7 = -2·4 + 1 → div = 4. Truncated: 3.
	if ref, out := checkFires(t, DefIntDivNegRound, src); ref.Result != ResUnsat || out.Result != ResSat {
		t.Fatalf("reference %v, defective %v: want unsat, sat", ref.Result, out.Result)
	}
}

func TestDefectBoundConflict(t *testing.T) {
	src := `
(set-logic QF_LRA)
(declare-fun a () Real)
(assert (>= a 1.0))
(assert (<= a 1.0))
`
	if ref, out := checkFires(t, DefBoundConflictEq, src); ref.Result != ResSat || out.Result != ResUnsat {
		t.Fatalf("reference %v, defective %v: want sat, wrong unsat", ref.Result, out.Result)
	}
}

func TestDefectRegexMinLenStrict(t *testing.T) {
	src := `
(set-logic QF_S)
(declare-fun c () String)
(assert (str.in_re c (re.+ (str.to_re "ab"))))
(assert (= (str.len c) 2))
`
	if ref, out := checkFires(t, DefRegexMinLenStrict, src); ref.Result != ResSat || out.Result != ResUnsat {
		t.Fatalf("reference %v, defective %v: want sat, unsat", ref.Result, out.Result)
	}
}

func TestDefectLenAbsPrefixFlip(t *testing.T) {
	// |a| ≤ |b| holds for a prefix a of b; the flipped abstraction
	// demands |a| ≥ |b| and calls 1 ≥ 3 a conflict.
	src := `
(set-logic QF_S)
(declare-fun a () String)
(declare-fun b () String)
(assert (str.prefixof a b))
(assert (= (str.len a) 1))
(assert (= (str.len b) 3))
`
	if ref, out := checkFires(t, DefLenAbsPrefixFlip, src); ref.Result != ResSat || out.Result != ResUnsat {
		t.Fatalf("reference %v, defective %v: want sat, unsat", ref.Result, out.Result)
	}
}

// TestDefectModelCorruption runs each md- site on a sat script whose
// constraints bind the corrupted variable: the verdict stays sat, the
// site fires, and the reported model violates the script.
func TestDefectModelCorruption(t *testing.T) {
	cases := []struct {
		defect Defect
		src    string
	}{
		{DefModelStaleSimplex, "(declare-fun x () Int)(assert (> x 2))(assert (< x 5))"},
		{DefModelStrLenTruncate, "(declare-fun s () String)(assert (= (str.len s) 3))"},
		{DefModelRealFloor, "(declare-fun a () Real)(assert (> a 0.5))(assert (< a 0.75))"},
	}
	for _, c := range cases {
		ref, out := checkFires(t, c.defect, c.src)
		if ref.Result != ResSat || out.Result != ResSat {
			t.Errorf("%s: reference %v, defective %v: want sat, sat", c.defect, ref.Result, out.Result)
			continue
		}
		certifyOriginal(t, c.src, ref.Model)
		sc, _ := smtlib.ParseScript(c.src)
		valid := true
		for _, a := range sc.Asserts() {
			if ok, err := eval.Bool(a, out.Model); err != nil || !ok {
				valid = false
			}
		}
		if valid {
			t.Errorf("%s: model %v still satisfies the script", c.defect, out.Model)
		}
	}
}

func TestDefectCrash(t *testing.T) {
	src := `
(set-logic QF_NRA)
(declare-fun a () Real)
(assert (> (/ (+ a 1.0) (+ a 1.0)) 0.0))
`
	sc, err := smtlib.ParseScript(src)
	if err != nil {
		t.Fatal(err)
	}
	if ref := NewReference().SolveScript(sc); len(ref.DefectsFired) != 0 {
		t.Errorf("reference fired %v", ref.DefectsFired)
	}
	if _, p := defective(DefCrashSelfDivision).SolveRecovered(sc); p == nil || p.Crash == nil || p.Crash.Site != DefCrashSelfDivision {
		t.Fatalf("recovered panic %+v, want a crash at %s", p, DefCrashSelfDivision)
	}
}

func TestDefectQuantNegPush(t *testing.T) {
	// ¬∃h (h > a ∧ h < a) is valid (inner is unsat): reference
	// answers sat (as ∀-free after correct push it becomes a positive
	// forall... it becomes ∀h ¬(...) which is not eliminable) — the
	// reference gives unknown here; the defect turns it into an
	// existential and (wrongly) decides.
	src := `
(set-logic NRA)
(declare-fun a () Real)
(assert (not (exists ((h Real)) (and (> h a) (< h a)))))
`
	// Defect: ¬∃ pushed as ∃¬ → skolemized → (h>a ∧ h<a) negated →
	// or(h≤a, h≥a) → sat. The formula is actually valid (sat), so the
	// wrong path may coincidentally agree; what matters is the defect
	// fired and changed the pipeline.
	if ref, _ := checkFires(t, DefQuantNegPush, src); ref.Result == ResUnsat {
		t.Fatalf("reference must not be unsound: %v", ref.Result)
	}
}

func TestCoverageTracking(t *testing.T) {
	tr := coverage.NewTracker()
	s := New(Config{Coverage: tr})
	solveSrc(t, s, `
(set-logic QF_S)
(declare-fun a () String)
(assert (= (str.len a) 2))
(assert (str.in_re a (re.* (str.to_re "ab"))))
`)
	rep := tr.Report()
	if rep.Functions().Hit == 0 || rep.Lines().Hit == 0 || rep.Branches().Hit == 0 {
		t.Errorf("coverage empty: %+v", rep)
	}
	if rep.Functions().Total == 0 {
		t.Error("no registered probes")
	}
	// A second, richer run strictly increases (or keeps) coverage.
	solveSrc(t, s, `
(set-logic QF_NRA)
(declare-fun x () Real)
(assert (> (* x x) 1.0))
`)
	rep2 := tr.Report()
	if rep2.Branches().Hit < rep.Branches().Hit {
		t.Error("coverage decreased")
	}
}

func TestDefectsFiredOnlyWhenEnabled(t *testing.T) {
	src := `
(set-logic QF_SLIA)
(declare-fun n () Int)
(assert (= n (str.to_int "")))
`
	out := solveSrc(t, NewReference(), src)
	if len(out.DefectsFired) != 0 {
		t.Errorf("reference fired defects: %v", out.DefectsFired)
	}
}

func TestModelRecoversInlinedVars(t *testing.T) {
	src := `
(set-logic QF_LIA)
(declare-fun x () Int)(declare-fun z () Int)
(assert (= z (+ x 5)))
(assert (> x 0))
`
	out := wantResult(t, src, ResSat)
	zv, ok := out.Model["z"]
	if !ok {
		t.Fatalf("z missing from model: %v", out.Model)
	}
	xv := out.Model["x"]
	if zv.Rat() != xv.Rat().Add(rat.Int(5)) {
		t.Errorf("z = %v, x = %v", zv, xv)
	}
}
