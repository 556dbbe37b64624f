package solver

import (
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/smtlib"
)

func preprocessSrc(t *testing.T, s *Solver, src string) []ast.Term {
	t.Helper()
	sc, err := smtlib.ParseScript(src)
	if err != nil {
		t.Fatal(err)
	}
	pre, _, err := s.preprocessWithDefs(sc.Asserts())
	if err != nil {
		t.Fatalf("preprocess: %v", err)
	}
	return pre
}

func printAll(ts []ast.Term) string {
	var b strings.Builder
	for _, t := range ts {
		b.WriteString(ast.Print(t))
		b.WriteByte('\n')
	}
	return b.String()
}

func TestInlineSimpleDefinition(t *testing.T) {
	pre := preprocessSrc(t, NewReference(), `
(declare-fun x () Int)
(declare-fun z () Int)
(assert (= z (+ x 1)))
(assert (> z 5))
`)
	out := printAll(pre)
	if strings.Contains(out, "z") {
		t.Errorf("z not inlined:\n%s", out)
	}
	if !strings.Contains(out, "(> (+ x 1) 5)") {
		t.Errorf("definition not substituted:\n%s", out)
	}
}

func TestInlineChain(t *testing.T) {
	// z := x + y, w := z + 1: both inline; the final assert mentions
	// only x and y.
	pre := preprocessSrc(t, NewReference(), `
(declare-fun x () Int)
(declare-fun y () Int)
(declare-fun z () Int)
(declare-fun w () Int)
(assert (= z (+ x y)))
(assert (= w (+ z 1)))
(assert (> w 0))
`)
	out := printAll(pre)
	if strings.Contains(out, "w") || strings.Contains(out, "z") {
		t.Errorf("chain not fully inlined:\n%s", out)
	}
}

func TestInlineCycleKeptAsConstraint(t *testing.T) {
	// The UNSAT-fusion shape: z := x·y accepted, x = z div y rejected
	// (cycle through z) and kept as an assert with z substituted.
	pre := preprocessSrc(t, NewReference(), `
(declare-fun x () Int)
(declare-fun y () Int)
(declare-fun z () Int)
(assert (= z (* x y)))
(assert (= x (div z y)))
(assert (> y 3))
`)
	out := printAll(pre)
	if !strings.Contains(out, "(= x (div (* x y) y))") {
		t.Errorf("cyclic definition not kept as substituted constraint:\n%s", out)
	}
}

func TestInlineBooleanUnits(t *testing.T) {
	pre := preprocessSrc(t, NewReference(), `
(declare-fun p () Bool)
(declare-fun x () Int)
(assert p)
(assert (ite p (> x 0) (< x 0)))
`)
	out := printAll(pre)
	if strings.Contains(out, "p") && !strings.Contains(out, "(> x 0)") {
		t.Errorf("boolean unit not propagated:\n%s", out)
	}
}

func TestInlineModelRecovery(t *testing.T) {
	s := NewReference()
	sc, _ := smtlib.ParseScript(`
(declare-fun x () Int)
(declare-fun z () Int)
(declare-fun w () Int)
(assert (= z (+ x 2)))
(assert (= w (* z 3)))
(assert (= x 1))
`)
	out := s.SolveScript(sc)
	if out.Result != ResSat {
		t.Fatalf("result %v", out.Result)
	}
	zv := out.Model["z"]
	wv := out.Model["w"]
	if zv == nil || wv == nil {
		t.Fatalf("inlined variables missing from model: %v", out.Model)
	}
	if zv.String() != "3" || wv.String() != "9" {
		t.Errorf("z=%v w=%v want 3, 9", zv, wv)
	}
}

func TestIteLifting(t *testing.T) {
	pre := preprocessSrc(t, NewReference(), `
(declare-fun a () Real)
(declare-fun d () Real)
(assert (> d (ite (> a 0.0) (+ a 1.0) a)))
`)
	out := printAll(pre)
	if strings.Contains(out, "(> d (ite") {
		t.Errorf("term ite not lifted:\n%s", out)
	}
	// The lifted form introduces guarded equalities.
	if !strings.Contains(out, "(or (not (> a 0.0))") {
		t.Errorf("guard constraints missing:\n%s", out)
	}
}

func TestSkolemizePositiveExists(t *testing.T) {
	pre := preprocessSrc(t, NewReference(), `
(declare-fun a () Real)
(assert (exists ((h Real)) (> h a)))
`)
	out := printAll(pre)
	if strings.Contains(out, "exists") {
		t.Errorf("existential not skolemized:\n%s", out)
	}
	if !strings.Contains(out, "sk!h") {
		t.Errorf("skolem constant missing:\n%s", out)
	}
}

func TestNegatedForallSkolemizes(t *testing.T) {
	pre := preprocessSrc(t, NewReference(), `
(declare-fun a () Real)
(assert (not (forall ((h Real)) (<= h a))))
`)
	out := printAll(pre)
	if strings.Contains(out, "forall") || strings.Contains(out, "exists") {
		t.Errorf("negated universal not eliminated:\n%s", out)
	}
}

func TestResidualQuantifierErrors(t *testing.T) {
	s := NewReference()
	sc, _ := smtlib.ParseScript(`
(declare-fun a () Real)
(assert (forall ((h Real)) (> h a)))
`)
	_, _, err := s.preprocessWithDefs(sc.Asserts())
	if err == nil {
		t.Fatal("positive universal should not preprocess")
	}
}

func TestPushNegThroughConnectives(t *testing.T) {
	s := NewReference()
	term, _ := smtlib.ParseTerm(tb,
		"(not (and (<= x 1) (or (> x 5) (exists ((h Int)) (= h x)))))",
		map[string]ast.Sort{"x": ast.SortInt})
	out := s.pushNeg(term, false)
	txt := ast.Print(out)
	// ¬(a ∧ (b ∨ c)) = ¬a ∨ (¬b ∧ ¬c); comparisons flip; the ∃ becomes ∀.
	for _, want := range []string{"(> x 1)", "(<= x 5)", "forall"} {
		if !strings.Contains(txt, want) {
			t.Errorf("pushNeg missing %q in %s", want, txt)
		}
	}
	if strings.Contains(txt, "(not (and") {
		t.Errorf("negation not pushed: %s", txt)
	}
}

func TestPushNegDefectKeepsQuantifierKind(t *testing.T) {
	buggy := New(Config{Defects: map[Defect]bool{DefQuantNegPush: true}})
	term, _ := smtlib.ParseTerm(tb,
		"(not (exists ((h Int)) (= h x)))",
		map[string]ast.Sort{"x": ast.SortInt})
	out := buggy.pushNeg(term, false)
	txt := ast.Print(out)
	if !strings.Contains(txt, "exists") {
		t.Errorf("defect should keep the existential: %s", txt)
	}
	ref := NewReference()
	out = ref.pushNeg(term, false)
	if !strings.Contains(ast.Print(out), "forall") {
		t.Errorf("reference should flip to forall: %s", ast.Print(out))
	}
}

func TestTrivialAfterPreprocess(t *testing.T) {
	// Everything folds to true: solve must return sat with a default
	// model covering the declared variables.
	s := NewReference()
	sc, _ := smtlib.ParseScript(`
(declare-fun x () Int)
(assert (= x x))
(assert (or (> 2 1) (< x 0)))
`)
	out := s.SolveScript(sc)
	if out.Result != ResSat {
		t.Fatalf("result %v", out.Result)
	}
	if _, ok := out.Model["x"]; !ok {
		t.Error("default model missing declared variable")
	}
}

// tb is the term table the package's tests build in.
var tb = ast.NewTable(nil)
