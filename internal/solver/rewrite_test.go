package solver

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/ast"
	"repro/internal/smtlib"
)

// rw rewrites a parsed term with the given solver configuration.
func rw(t *testing.T, s *Solver, src string, decls map[string]ast.Sort) string {
	t.Helper()
	term, err := smtlib.ParseTerm(tb, src, decls)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	return ast.Print(s.rewrite(term))
}

var rwDecls = map[string]ast.Sort{
	"x": ast.SortInt, "y": ast.SortInt,
	"a": ast.SortReal, "b": ast.SortReal,
	"s": ast.SortString, "u": ast.SortString,
	"p": ast.SortBool,
}

func TestRewriteCorrectRules(t *testing.T) {
	ref := NewReference()
	cases := []struct{ in, want string }{
		// Boolean structure.
		{"(and p true)", "p"},
		{"(and p false)", "false"},
		{"(or p false p)", "(or p p)"},
		{"(not (not p))", "p"},
		{"(= p true)", "p"},
		{"(= false p)", "(not p)"},
		{"(ite true (+ x 1) x)", "(+ x 1)"},
		{"(ite p x x)", "x"},
		{"(ite (not p) x y)", "(ite p y x)"},
		// Arithmetic.
		{"(+ x 0)", "x"},
		{"(* x 1)", "x"},
		{"(* x 0)", "0"},
		{"(+ (+ x 1) 2)", "(+ x 1 2)"},
		{"(div x 1)", "x"},
		{"(mod x 1)", "0"},
		{"(div (- 7) (- 2))", "4"}, // Euclidean
		{"(abs (- 5))", "5"},
		{"(<= x x)", "true"},
		{"(< x x)", "false"},
		{"(= x x)", "true"},
		{"(/ a 1.0)", "a"},
		{"(< (* a a) 0.0)", "false"},
		{"(>= (* a a) 0.0)", "true"},
		{"(* (/ a 2.0) 2.0)", "a"},
		// Strings.
		{`(str.++ s "")`, "s"},
		{`(str.++ "ab" "cd")`, `"abcd"`},
		{`(str.++ (str.++ s "a") (str.++ "b" u))`, `(str.++ s "ab" u)`},
		{`(str.len (str.++ s u))`, "(+ (str.len s) (str.len u))"},
		{`(str.replace s "" u)`, "(str.++ u s)"},
		{`(str.replace s u u)`, "s"},
		{`(str.prefixof "" s)`, "true"},
		{`(str.suffixof "" s)`, "true"},
		{`(str.contains s s)`, "true"},
		{`(str.contains s "")`, "true"},
		{`(str.to_int "")`, "(- 1)"},
		{`(str.to_int "42")`, "42"},
		{`(str.at "abc" 3)`, `""`},
		{`(str.substr "abcdef" 1 (- 2))`, `""`},
		// n-ary chains.
		{"(= x y x)", "(and (= x y) (= y x))"},
		{"(distinct x y 0)", "(and (not (= x y)) (not (= x 0)) (not (= y 0)))"},
	}
	for _, c := range cases {
		if got := rw(t, ref, c.in, rwDecls); got != c.want {
			t.Errorf("rewrite(%s) = %s, want %s", c.in, got, c.want)
		}
	}
}

func TestRewriteDefectiveVariants(t *testing.T) {
	cases := []struct {
		defect     Defect
		in         string
		refWant    string
		defectWant string
	}{
		{DefStrToIntEmpty, `(str.to_int "")`, "(- 1)", "0"},
		{DefStrReplaceEmptyPat, `(str.replace s "" u)`, "(str.++ u s)", "s"},
		{DefStrAtOutOfRange, `(str.at "abc" 3)`, `""`, `"c"`},
		{DefStrSuffixEmpty, `(str.suffixof "" s)`, "true", "false"},
		{DefStrContainsSelf, "(str.contains s s)", "true", "false"},
		{DefIntDivNegRound, "(div (- 7) (- 2))", "4", "3"},
		{DefGeZeroStrengthen, "(>= (/ a b) 0.0)", "(>= (/ a b) 0.0)", "(> (/ a b) 0.0)"},
	}
	for _, c := range cases {
		ref := NewReference()
		if got := rw(t, ref, c.in, rwDecls); got != c.refWant {
			t.Errorf("reference rewrite(%s) = %s, want %s", c.in, got, c.refWant)
		}
		buggy := New(Config{Defects: map[Defect]bool{c.defect: true}})
		if got := rw(t, buggy, c.in, rwDecls); got != c.defectWant {
			t.Errorf("%s rewrite(%s) = %s, want %s", c.defect, c.in, got, c.defectWant)
		}
		// And a solve of the term must name the defect as fired.
		checkFires(t, c.defect, rwScript(t, c.in))
	}
}

// rwScript is a script over rwDecls asserting a rewrite-table term: the
// term itself when it is a formula, else its equality with a fresh
// variable of its sort.
func rwScript(t *testing.T, src string) string {
	t.Helper()
	term, err := smtlib.ParseTerm(tb, src, rwDecls)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	const decls = `(declare-fun x () Int)(declare-fun y () Int)
(declare-fun a () Real)(declare-fun b () Real)
(declare-fun s () String)(declare-fun u () String)
(declare-fun p () Bool)
`
	if term.Sort() == ast.SortBool {
		return decls + "(assert " + src + ")"
	}
	return decls + fmt.Sprintf("(declare-fun v () %s)(assert (= v %s))", term.Sort(), src)
}

func TestRewriteDivCancelGuard(t *testing.T) {
	ref := NewReference()
	// Non-literal divisor: the sound rewriter must NOT cancel.
	if got := rw(t, ref, "(* (/ a b) b)", rwDecls); got != "(* (/ a b) b)" {
		t.Errorf("unguarded cancellation in reference: %s", got)
	}
	buggy := New(Config{Defects: map[Defect]bool{DefRealDivCancel: true}})
	if got := rw(t, buggy, "(* (/ a b) b)", rwDecls); got != "a" {
		t.Errorf("defective cancellation missing: %s", got)
	}
	checkFires(t, DefRealDivCancel, rwScript(t, "(* (/ a b) b)"))
}

func TestRewriteMulSignDefect(t *testing.T) {
	// (< (* a b) 0.0) with distinct a, b must survive in the reference
	// and fold to false under the defect.
	ref := NewReference()
	if got := rw(t, ref, "(< (* a b) 0.0)", rwDecls); got != "(< (* a b) 0.0)" {
		t.Errorf("reference folded a general product: %s", got)
	}
	buggy := New(Config{Defects: map[Defect]bool{DefMulSignFold: true}})
	if got := rw(t, buggy, "(< (* a b) 0.0)", rwDecls); got != "false" {
		t.Errorf("defect did not fold: %s", got)
	}
	checkFires(t, DefMulSignFold, rwScript(t, "(< (* a b) 0.0)"))
	// A product comparison the sign of its bound does not settle is
	// left alone, so the site does not fire; nor does it on a square.
	for _, src := range []string{"(< (* a b) 1.0)", "(< (* a a) 0.0)"} {
		if out := solveSrc(t, defective(DefMulSignFold), rwScript(t, src)); len(out.DefectsFired) != 0 {
			t.Errorf("%s: DefectsFired = %v, want none", src, out.DefectsFired)
		}
	}
}

func TestRewriteConcatAssocDropDefect(t *testing.T) {
	buggy := New(Config{Defects: map[Defect]bool{DefConcatAssocDrop: true}})
	// Two nested concats: the defect drops the last operand of the
	// second nest during flattening.
	got := rw(t, buggy, `(str.++ (str.++ s "a") (str.++ u "b"))`, rwDecls)
	if got != `(str.++ s "a" u)` {
		t.Errorf("got %s", got)
	}
	checkFires(t, DefConcatAssocDrop, rwScript(t, `(str.++ (str.++ s "a") (str.++ u "b"))`))
	// Reference keeps everything.
	ref := NewReference()
	if got := rw(t, ref, `(str.++ (str.++ s "a") (str.++ u "b"))`, rwDecls); got != `(str.++ s "a" u "b")` {
		t.Errorf("reference got %s", got)
	}
}

func TestRewriteStrLenConcatDropDefect(t *testing.T) {
	buggy := New(Config{Defects: map[Defect]bool{DefStrLenConcatDrop: true}})
	got := rw(t, buggy, `(str.len (str.++ s u "tail"))`, rwDecls)
	if got != "(+ (str.len s) (str.len u))" {
		t.Errorf("got %s", got)
	}
	checkFires(t, DefStrLenConcatDrop, rwScript(t, `(str.len (str.++ s u "tail"))`))
}

func TestRewriteGroundFoldEverything(t *testing.T) {
	ref := NewReference()
	cases := []struct{ in, want string }{
		{"(+ 1 2 3)", "6"},
		{"(< 1.0 2.0)", "true"},
		{`(str.replace "foobar" "foo" "baz")`, `"bazbar"`},
		{`(str.in_re "aaaa" (re.* (str.to_re "aa")))`, "true"},
		{`(str.in_re "aaa" (re.* (str.to_re "aa")))`, "false"},
		{"(ite (< 1 2) (+ 1 1) 0)", "2"},
		{"(to_real 3)", "3.0"},
		{"(to_int 2.5)", "2"},
	}
	for _, c := range cases {
		if got := rw(t, ref, c.in, rwDecls); got != c.want {
			t.Errorf("fold(%s) = %s want %s", c.in, got, c.want)
		}
	}
}

func TestCrashDefectsPanicOnTrigger(t *testing.T) {
	cases := []struct {
		defect Defect
		src    string
	}{
		{DefCrashSelfDivision, "(assert (> (/ (+ a 1.0) (+ a 1.0)) 1.0))"},
		{DefCrashDeepNonlinear, "(assert (> (* a (+ a (* a (+ a (* a (+ a (* a (+ a (/ a 2.0))))))))) 0.0))"},
	}
	for _, c := range cases {
		src := `
(declare-fun a () Real)
(declare-fun s () String)
(declare-fun u () String)
` + c.src + "\n(check-sat)"
		sc, err := smtlib.ParseScript(src)
		if err != nil {
			t.Fatalf("%s: parse: %v", c.defect, err)
		}
		// Reference must neither panic nor fire anything.
		if out, p := NewReference().SolveRecovered(sc); p != nil || len(out.DefectsFired) != 0 {
			t.Errorf("reference on %s: panic %v, fired %v", c.defect, p, out.DefectsFired)
		}
		// Defective build panics with a CrashError carrying the site.
		if _, p := defective(c.defect).SolveRecovered(sc); p == nil || p.Crash == nil || p.Crash.Site != c.defect {
			t.Errorf("%s: recovered panic %+v, want a crash at the site", c.defect, p)
		}
	}
}

func TestPerfDefectsGoUnknown(t *testing.T) {
	// Regex blowup: deep regex term.
	src := `
(declare-fun s () String)
(assert (str.in_re s (re.++ (re.* (re.union (str.to_re "a") (str.to_re "bb"))) (re.opt (str.to_re "c")))))
(check-sat)
`
	sc, err := smtlib.ParseScript(src)
	if err != nil {
		t.Fatal(err)
	}
	buggy := New(Config{Defects: map[Defect]bool{DefPerfRegexBlowup: true}})
	out := buggy.SolveScript(sc)
	// Under the unified fuel deadline a performance defect drains the
	// meter, so its signature is a deterministic timeout.
	if out.Result != ResTimeout {
		t.Errorf("perf defect: got %v, want timeout", out.Result)
	}
	if !slices.Contains(out.DefectsFired, DefPerfRegexBlowup) {
		t.Errorf("DefectsFired = %v, want %s", out.DefectsFired, DefPerfRegexBlowup)
	}
	// Reference decides it, firing nothing.
	if ref := NewReference().SolveScript(sc); ref.Result != ResSat || len(ref.DefectsFired) != 0 {
		t.Errorf("reference: %v, fired %v", ref.Result, ref.DefectsFired)
	}
}
