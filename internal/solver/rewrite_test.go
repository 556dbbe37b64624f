package solver

import (
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
		{DefStrSubstrNegLen, `(str.substr "abcdef" 1 (- 2))`, `""`, `"bcdef"`},
		{DefStrSuffixEmpty, `(str.suffixof "" s)`, "true", "false"},
		{DefStrContainsSelf, "(str.contains s s)", "true", "false"},
		{DefIntDivNegRound, "(div (- 7) (- 2))", "4", "3"},
		{DefModZero, "(mod 5 0)", "5", "0"},
		{DefAbsNegFold, "(abs (- 5))", "5", "(- 5)"},
		{DefIndexOfEmptyNeedle, `(str.indexof "abc" "" 2)`, "2", "0"},
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
		// And the defect must be recorded as fired.
		if len(buggy.fired) == 0 {
			t.Errorf("%s did not record firing", c.defect)
		}
	}
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
}

func TestRewriteDistinctPairDropDefect(t *testing.T) {
	buggy := New(Config{Defects: map[Defect]bool{DefDistinctPairDrop: true}})
	got := rw(t, buggy, "(distinct x y 0)", rwDecls)
	want := "(and (not (= x y)) (not (= x 0)))"
	if got != want {
		t.Errorf("got %s want %s", got, want)
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
		{DefCrashRangeBounds, `(assert (str.in_re s (re.range "ab" "c")))`},
		{DefCrashBigSubstr, "(assert (= s (str.substr u 4294967296 2)))"},
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
		// Reference must not panic.
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("reference panicked on %s: %v", c.defect, r)
				}
			}()
			NewReference().SolveScript(sc)
		}()
		// Defective build panics with a CrashError carrying the site.
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Errorf("%s did not panic", c.defect)
					return
				}
				ce, ok := r.(*CrashError)
				if !ok || ce.Site != c.defect {
					t.Errorf("%s: bad panic value %v", c.defect, r)
				}
			}()
			New(Config{Defects: map[Defect]bool{c.defect: true}}).SolveScript(sc)
		}()
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
	fired := false
	for _, d := range out.DefectsFired {
		if d == DefPerfRegexBlowup {
			fired = true
		}
	}
	if !fired {
		t.Error("perf defect did not fire")
	}
	// Reference decides it.
	if ref := NewReference().SolveScript(sc); ref.Result != ResSat {
		t.Errorf("reference: %v", ref.Result)
	}
}
