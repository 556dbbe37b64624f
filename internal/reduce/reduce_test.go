package reduce

import (
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/eval"
	"repro/internal/smtlib"
	"repro/internal/solver"
	"repro/internal/solver/rat"
)

func parse(t *testing.T, src string) *smtlib.Script {
	t.Helper()
	s, err := smtlib.ParseScript(src)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestDropIrrelevantAsserts(t *testing.T) {
	s := parse(t, `
(declare-fun x () Int)
(declare-fun y () Int)
(declare-fun z () Int)
(assert (> x 0))
(assert (< y 10))
(assert (= z (div x 0)))
(assert (> (+ x y) (- 5)))
(check-sat)
`)
	// Interesting: some assert still mentions div.
	interesting := func(c *smtlib.Script) bool {
		for _, a := range c.Asserts() {
			if ast.Ops(a)[ast.OpIntDiv] {
				return true
			}
		}
		return false
	}
	out := Reduce(s, interesting, Options{})
	if n := len(out.Asserts()); n != 1 {
		t.Fatalf("asserts after reduce = %d, want 1:\n%s", n, smtlib.Print(out))
	}
	// Unused declarations dropped too (y is gone; x or z may survive
	// inside the shrunken div term).
	for _, d := range out.Declarations() {
		if d.Name == "y" {
			t.Errorf("unused declaration y survived:\n%s", smtlib.Print(out))
		}
	}
}

func TestTermShrinking(t *testing.T) {
	s := parse(t, `
(declare-fun a () String)
(declare-fun b () String)
(assert (= (str.replace (str.++ a b "suffix") "" "pre") a))
(check-sat)
`)
	interesting := func(c *smtlib.Script) bool {
		for _, a := range c.Asserts() {
			found := false
			ast.Walk(a, func(tm ast.Term) bool {
				if app, ok := tm.(*ast.App); ok && app.Op == ast.OpStrReplace {
					if lit, ok := app.Args[1].(*ast.StrLit); ok && lit.V == "" {
						found = true
					}
				}
				return true
			})
			if found {
				return true
			}
		}
		return false
	}
	out := Reduce(s, interesting, Options{})
	if !interesting(out) {
		t.Fatal("reduction lost the property")
	}
	if ast.Size(out.Asserts()[0]) >= ast.Size(s.Asserts()[0]) {
		t.Errorf("no shrink achieved:\n%s", smtlib.Print(out))
	}
}

func TestReduceKeepsDefectTrigger(t *testing.T) {
	// End-to-end: reduce a formula that makes a defective solver give a
	// wrong sat answer, requiring the wrong answer to persist.
	src := `
(set-logic QF_SLIA)
(declare-fun n () Int)
(declare-fun m () Int)
(assert (= n (str.to_int "")))
(assert (= n 0))
(assert (< m 100))
(assert (> (+ m n) (- 50)))
(check-sat)
`
	s := parse(t, src)
	buggy := func() *solver.Solver {
		return solver.New(solver.Config{Defects: map[solver.Defect]bool{solver.DefStrToIntEmpty: true}})
	}
	interesting := func(c *smtlib.Script) bool {
		out := buggy().SolveScript(c)
		return out.Result == solver.ResSat && firedStrToInt(out)
	}
	if !interesting(s) {
		t.Fatal("seed script not interesting")
	}
	out := Reduce(s, interesting, Options{})
	if got := len(out.Asserts()); got > 2 {
		t.Errorf("reduced to %d asserts, expected ≤ 2:\n%s", got, smtlib.Print(out))
	}
	if !interesting(out) {
		t.Fatal("reduced script no longer triggers the defect")
	}
}

func firedStrToInt(out solver.Outcome) bool {
	for _, d := range out.DefectsFired {
		if d == solver.DefStrToIntEmpty {
			return true
		}
	}
	return false
}

func TestPrettify(t *testing.T) {
	s := parse(t, `
(declare-fun x () Int)
(assert (and (and (> (+ x 0) 0) true) (< (* 1 x) 10)))
(check-sat)
`)
	out := Prettify(tb, s)
	txt := smtlib.Print(out)
	if strings.Contains(txt, "(and (and") {
		t.Errorf("nested and not flattened:\n%s", txt)
	}
	if strings.Contains(txt, "(+ x 0)") {
		t.Errorf("+0 not dropped:\n%s", txt)
	}
	if strings.Contains(txt, "(* 1 x)") {
		t.Errorf("*1 not dropped:\n%s", txt)
	}
}

func TestPrettifyPreservesSemantics(t *testing.T) {
	src := `
(declare-fun x () Int)
(assert (and (> (+ x 0 2) 0) (or false (< x 10))))
(check-sat)
`
	s := parse(t, src)
	out := Prettify(tb, s)
	// Same satisfying assignments on a small grid.
	for v := int64(-3); v <= 12; v++ {
		model := evalModel(v)
		b1 := evalAll(t, s, model)
		b2 := evalAll(t, out, model)
		if b1 != b2 {
			t.Fatalf("semantics changed at x=%d", v)
		}
	}
}

func evalModel(v int64) eval.Model { return eval.Model{"x": eval.IntVal(rat.Int(v))} }

func evalAll(t *testing.T, s *smtlib.Script, model eval.Model) bool {
	t.Helper()
	for _, a := range s.Asserts() {
		ok, err := eval.Bool(a, model)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return false
		}
	}
	return true
}

// TestReduceResultSatisfiesPredicate: Reduce used to prettify the
// final shrink without re-checking it, so a predicate sensitive to the
// exact syntactic shape (here: the neutral-element pattern the pretty
// printer rewrites away) got back a script that no longer satisfied
// it. The contract is that every returned script passes the predicate.
func TestReduceResultSatisfiesPredicate(t *testing.T) {
	s := parse(t, `
(declare-fun x () Int)
(assert (> (+ x 0) 5))
(check-sat)
`)
	interesting := func(c *smtlib.Script) bool {
		return strings.Contains(smtlib.Print(c), "(+ x 0)")
	}
	if !interesting(s) {
		t.Fatal("seed script not interesting")
	}
	out := Reduce(s, interesting, Options{})
	if !interesting(out) {
		t.Fatalf("Reduce returned a script that fails the predicate:\n%s", smtlib.Print(out))
	}
}

// TestSmallBudgetStillDropsDecls: term shrinking used to re-enumerate
// every candidate after each accepted shrink with no per-pass bound,
// burning the whole MaxChecks budget before dropUnusedDecls ever ran —
// small-budget reductions kept dead declarations. Shrinking must leave
// room for the later strategies.
func TestSmallBudgetStillDropsDecls(t *testing.T) {
	s := parse(t, `
(declare-fun x () Int)
(declare-fun y () Int)
(assert (= (div x 2) (+ x x x x x x x x)))
(assert (> y 0))
(check-sat)
`)
	interesting := func(c *smtlib.Script) bool {
		for _, a := range c.Asserts() {
			if ast.Ops(a)[ast.OpIntDiv] {
				return true
			}
		}
		return false
	}
	out := Reduce(s, interesting, Options{MaxChecks: 10})
	for _, d := range out.Declarations() {
		if d.Name == "y" {
			t.Fatalf("term shrinking starved the declaration pass; unused y survived:\n%s", smtlib.Print(out))
		}
	}
}

func TestBudgetExhaustion(t *testing.T) {
	s := parse(t, `
(declare-fun x () Int)
(assert (> x 0))
(assert (< x 10))
(check-sat)
`)
	calls := 0
	interesting := func(c *smtlib.Script) bool {
		calls++
		return len(c.Asserts()) >= 1
	}
	out := Reduce(s, interesting, Options{MaxChecks: 3})
	if calls > 3 {
		t.Errorf("budget exceeded: %d calls", calls)
	}
	if out == nil {
		t.Fatal("nil result")
	}
}

// tb is the term table the package's tests build in.
var tb = ast.NewTable(nil)
