package arith

import (
	"testing"

	"repro/internal/ast"
	"repro/internal/rat"
	"repro/internal/smtlib"
)

// value returns the model's value of v, failing the test when the
// model does not value it.
func value(t *testing.T, m Model, v string) rat.Rat {
	t.Helper()
	x, ok := m.Value(v)
	if !ok {
		t.Fatalf("model %v does not value %s", m, v)
	}
	return x
}

func linearizeStr(t *testing.T, src string, decls map[string]ast.Sort) *LinExpr {
	t.Helper()
	term, err := smtlib.ParseTerm(tb, src, decls)
	if err != nil {
		t.Fatal(err)
	}
	e, err := Linearize(term, nil)
	if err != nil {
		t.Fatalf("Linearize(%q): %v", src, err)
	}
	return e
}

func TestLinearizeBasics(t *testing.T) {
	decls := map[string]ast.Sort{"x": ast.SortInt, "y": ast.SortInt}
	e := linearizeStr(t, "(+ (* 2 x) y 3)", decls)
	if e.Const.Cmp(rat.Int(3)) != 0 || e.Coeff("x").Cmp(rat.Int(2)) != 0 || e.Coeff("y").Cmp(rat.Int(1)) != 0 {
		t.Errorf("got %v", e)
	}
	// (x + y) - y normalizes to x: the property that makes additive
	// fusion solvable.
	e = linearizeStr(t, "(- (+ x y) y)", decls)
	if len(e.Coeffs) != 1 || e.Coeff("x").Cmp(rat.Int(1)) != 0 || e.Const.Sign() != 0 {
		t.Errorf("cancellation failed: %v", e)
	}
	// Constant folding through multiplication and negation.
	e = linearizeStr(t, "(* 2 (- x) 3)", decls)
	if e.Coeff("x").Cmp(rat.Int(-6)) != 0 {
		t.Errorf("got %v", e)
	}
}

func TestLinearizeRealDivision(t *testing.T) {
	decls := map[string]ast.Sort{"a": ast.SortReal}
	e := linearizeStr(t, "(/ a 4.0)", decls)
	if e.Coeff("a").Cmp(rat.New(1, 4)) != 0 {
		t.Errorf("got %v", e)
	}
	// Division by zero constant is not linear (fixed interpretation 0).
	term, _ := smtlib.ParseTerm(tb, "(/ a 0.0)", decls)
	if _, err := Linearize(term, nil); err == nil {
		t.Error("division by zero constant should not linearize")
	}
}

func TestLinearizeNonlinearRejected(t *testing.T) {
	decls := map[string]ast.Sort{"x": ast.SortInt, "y": ast.SortInt}
	for _, src := range []string{"(* x y)", "(div x y)", "(mod x 2)", "(abs x)"} {
		term, err := smtlib.ParseTerm(tb, src, decls)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Linearize(term, nil); err == nil {
			t.Errorf("%q should be rejected without an abstractor", src)
		}
	}
}

func TestLinearizeAbstraction(t *testing.T) {
	decls := map[string]ast.Sort{"x": ast.SortInt, "y": ast.SortInt}
	term, _ := smtlib.ParseTerm(tb, "(+ (* x y) (* x y) (div x y))", decls)
	abs := NewAbstractor("$n")
	e, err := Linearize(term, abs)
	if err != nil {
		t.Fatal(err)
	}
	// (* x y) occurs twice and must share one abstraction variable.
	if abs.Len() != 2 {
		t.Errorf("abstraction count = %d, want 2", abs.Len())
	}
	if len(e.Coeffs) != 2 {
		t.Errorf("expr = %v", e)
	}
	var prodVar string
	for _, c := range e.Coeffs {
		if c.Coeff.Cmp(rat.Int(2)) == 0 {
			prodVar = c.Var
		}
	}
	if prodVar == "" {
		t.Errorf("no coefficient-2 abstraction var in %v", e)
	}
	if s, ok := abs.Sort(prodVar); !ok || s != ast.SortInt {
		t.Error("abstraction sort lost")
	}
}

func atomsOf(t *testing.T, decls map[string]ast.Sort, srcs ...string) []Atom {
	t.Helper()
	var out []Atom
	for _, src := range srcs {
		term, err := smtlib.ParseTerm(tb, src, decls)
		if err != nil {
			t.Fatal(err)
		}
		app := term.(*ast.App)
		rel, ok := RelOf(app.Op)
		if !ok {
			t.Fatalf("not a relation: %s", src)
		}
		lhs, err := Linearize(app.Args[0], nil)
		if err != nil {
			t.Fatal(err)
		}
		rhs, err := Linearize(app.Args[1], nil)
		if err != nil {
			t.Fatal(err)
		}
		lhs.AddExpr(rhs, rat.Int(-1))
		out = append(out, Atom{Expr: lhs, Rel: rel})
	}
	return out
}

func TestCheckLRA(t *testing.T) {
	decls := map[string]ast.Sort{"a": ast.SortReal, "b": ast.SortReal}
	st, m := Check(&Problem{Atoms: atomsOf(t, decls, "(< a b)", "(> a 0.0)", "(< b 1.0)")})
	if st != Sat {
		t.Fatalf("status %v", st)
	}
	a, b := value(t, m, "a"), value(t, m, "b")
	if !(a.Sign() > 0 && a.Cmp(b) < 0 && b.Cmp(rat.Int(1)) < 0) {
		t.Errorf("bad model %v", m)
	}
	st, _ = Check(&Problem{Atoms: atomsOf(t, decls, "(< a b)", "(< b a)")})
	if st != Unsat {
		t.Fatalf("status %v", st)
	}
}

func TestCheckLIA(t *testing.T) {
	decls := map[string]ast.Sort{"x": ast.SortInt, "y": ast.SortInt}
	ints := map[string]bool{"x": true, "y": true}
	// 2x = 2y + 1 has no integer solutions.
	st, _ := Check(&Problem{
		Atoms:   atomsOf(t, decls, "(= (* 2 x) (+ (* 2 y) 1))"),
		IntVars: ints,
	})
	if st != Unsat {
		t.Fatalf("parity: %v", st)
	}
	// 0 < x < 2 forces x = 1 over the integers.
	st, m := Check(&Problem{
		Atoms:   atomsOf(t, decls, "(> x 0)", "(< x 2)"),
		IntVars: ints,
	})
	if st != Sat {
		t.Fatalf("status %v", st)
	}
	if x := value(t, m, "x"); x.Cmp(rat.Int(1)) != 0 {
		t.Errorf("x = %v, want 1", x)
	}
	// 0 < x < 1 is unsat over integers, sat over reals.
	st, _ = Check(&Problem{
		Atoms:   atomsOf(t, decls, "(> x 0)", "(< x 1)"),
		IntVars: ints,
	})
	if st != Unsat {
		t.Fatalf("status %v", st)
	}
	st, _ = Check(&Problem{Atoms: atomsOf(t, decls, "(> x 0)", "(< x 1)")})
	if st != Sat {
		t.Fatalf("relaxation should be sat: %v", st)
	}
}

func TestCheckDisequalities(t *testing.T) {
	decls := map[string]ast.Sort{"x": ast.SortInt}
	ints := map[string]bool{"x": true}
	// 0 ≤ x ≤ 2 ∧ x ≠ 0 ∧ x ≠ 1 ∧ x ≠ 2 is unsat over integers.
	st, _ := Check(&Problem{
		Atoms: atomsOf(t, decls,
			"(>= x 0)", "(<= x 2)",
			"(distinct x 0)", "(distinct x 1)", "(distinct x 2)"),
		IntVars: ints,
	})
	if st != Unsat {
		t.Fatalf("status %v", st)
	}
	// Same without the x ≠ 1: sat with x = 1.
	st, m := Check(&Problem{
		Atoms: atomsOf(t, decls,
			"(>= x 0)", "(<= x 2)",
			"(distinct x 0)", "(distinct x 2)"),
		IntVars: ints,
	})
	if st != Sat || value(t, m, "x").Cmp(rat.Int(1)) != 0 {
		t.Fatalf("status %v model %v", st, m)
	}
}

func TestCheckModelSatisfiesAtoms(t *testing.T) {
	decls := map[string]ast.Sort{"x": ast.SortInt, "y": ast.SortInt, "z": ast.SortInt}
	ints := map[string]bool{"x": true, "y": true, "z": true}
	atoms := atomsOf(t, decls,
		"(= z (+ x y))", "(> x 2)", "(< y (- 3))", "(distinct z 0)")
	st, m := Check(&Problem{Atoms: atoms, IntVars: ints})
	if st != Sat {
		t.Fatalf("status %v", st)
	}
	for _, a := range atoms {
		for _, c := range a.Expr.Coeffs {
			value(t, m, c.Var)
		}
		v := m.eval(a.Expr)
		s := v.Sign()
		holds := [...]bool{RelLe: s <= 0, RelLt: s < 0, RelGe: s >= 0, RelGt: s > 0, RelEq: s == 0, RelNe: s != 0}
		if !holds[a.Rel] {
			t.Errorf("model violates atom %v (value %v)", a.Expr, v)
		}
	}
}

func TestCheckBudget(t *testing.T) {
	decls := map[string]ast.Sort{"x": ast.SortReal}
	p := &Problem{Atoms: atomsOf(t, decls, "(> x 0.0)"), NodeBudget: -1}
	// Budget forced negative: must give Unknown, not hang or lie.
	p.NodeBudget = 0 // 0 selects default; set explicit tiny budget below
	c := &checker{intVars: nil, budget: 0}
	st, _ := c.solve(p.Atoms, nil)
	if st != Unknown {
		t.Fatalf("exhausted budget should be Unknown, got %v", st)
	}
}

func TestIntervalArithmetic(t *testing.T) {
	i12 := Interval{Lo: finite(rat.New(1, 1), false), Hi: finite(rat.New(2, 1), false)}
	i34 := Interval{Lo: finite(rat.New(3, 1), false), Hi: finite(rat.New(4, 1), false)}
	sum := i12.Add(i34)
	if sum.Lo.V.Cmp(rat.New(4, 1)) != 0 || sum.Hi.V.Cmp(rat.New(6, 1)) != 0 {
		t.Errorf("sum = %v", sum)
	}
	prod := i12.Mul(i34)
	if prod.Lo.V.Cmp(rat.New(3, 1)) != 0 || prod.Hi.V.Cmp(rat.New(8, 1)) != 0 {
		t.Errorf("prod = %v", prod)
	}
	negProd := i12.Neg().Mul(i34)
	if negProd.Lo.V.Cmp(rat.New(-8, 1)) != 0 || negProd.Hi.V.Cmp(rat.New(-3, 1)) != 0 {
		t.Errorf("negProd = %v", negProd)
	}
	q := i34.Div(i12)
	if q.Lo.V.Cmp(rat.New(3, 2)) != 0 || q.Hi.V.Cmp(rat.New(4, 1)) != 0 {
		t.Errorf("quot = %v", q)
	}
	// Division by an interval containing zero is the whole line.
	z := Interval{Lo: finite(rat.New(-1, 1), false), Hi: finite(rat.New(1, 1), false)}
	if w := i12.Div(z); !w.Lo.Inf || !w.Hi.Inf {
		t.Errorf("div by zero-containing: %v", w)
	}
	// Openness: (0, 2] × [1, 1] keeps the open lower bound.
	op := Interval{Lo: Endpoint{V: rat.New(0, 1), Open: true}, Hi: finite(rat.New(2, 1), false)}
	one := Point(rat.New(1, 1))
	res := op.Mul(one)
	if !res.Lo.Open || res.Lo.V.Sign() != 0 {
		t.Errorf("openness lost: %v", res)
	}
	// Abs.
	ab := Interval{Lo: finite(rat.New(-3, 1), false), Hi: finite(rat.New(2, 1), false)}.Abs()
	if ab.Lo.V.Sign() != 0 || ab.Hi.V.Cmp(rat.New(3, 1)) != 0 {
		t.Errorf("abs = %v", ab)
	}
}

func TestIntervalEmptyAndTightenInt(t *testing.T) {
	e := Interval{Lo: Endpoint{V: rat.New(1, 1), Open: true}, Hi: Endpoint{V: rat.New(1, 1)}}
	if !e.IsEmpty() {
		t.Error("(1,1] should be empty")
	}
	i := Interval{Lo: Endpoint{V: rat.New(1, 2)}, Hi: Endpoint{V: rat.New(5, 2)}}.TightenInt()
	if i.Lo.V.Cmp(rat.New(1, 1)) != 0 || i.Hi.V.Cmp(rat.New(2, 1)) != 0 {
		t.Errorf("tightened = %v", i)
	}
	j := Interval{Lo: Endpoint{V: rat.New(1, 1), Open: true}, Hi: Endpoint{V: rat.New(2, 1), Open: true}}.TightenInt()
	if j.Lo.V.Cmp(rat.New(2, 1)) != 0 || j.Hi.V.Cmp(rat.New(1, 1)) != 0 || !j.IsEmpty() {
		t.Errorf("open (1,2) over ints should tighten to empty, got %v", j)
	}
}

func refuteStrs(t *testing.T, decls map[string]ast.Sort, intVars map[string]bool, srcs ...string) bool {
	t.Helper()
	var lits []ast.Term
	for _, src := range srcs {
		term, err := smtlib.ParseTerm(tb, src, decls)
		if err != nil {
			t.Fatal(err)
		}
		lits = append(lits, term)
	}
	return RefuteIntervals(lits, intVars, 8, nil, nil)
}

func TestRefuteIntervals(t *testing.T) {
	declsR := map[string]ast.Sort{
		"x": ast.SortReal, "y": ast.SortReal, "v": ast.SortReal, "w": ast.SortReal,
	}
	// x > 0 ∧ y > 0 ∧ x·y < 0 : refutable.
	if !refuteStrs(t, declsR, nil, "(> x 0.0)", "(> y 0.0)", "(< (* x y) 0.0)") {
		t.Error("product sign conflict not refuted")
	}
	// The paper's φ4 core: 0 < y < v ≤ w ∧ w/v < 0.
	if !refuteStrs(t, declsR, nil,
		"(> y 0.0)", "(< y v)", "(>= w v)", "(< (/ w v) 0.0)") {
		t.Error("φ4 (division sign conflict) not refuted")
	}
	// Satisfiable variant must NOT be refuted.
	if refuteStrs(t, declsR, nil, "(> x 0.0)", "(> y 0.0)", "(> (* x y) 0.0)") {
		t.Error("satisfiable conjunction wrongly refuted")
	}
	// Unsatisfiable only over integers.
	declsI := map[string]ast.Sort{"n": ast.SortInt}
	ints := map[string]bool{"n": true}
	if !refuteStrs(t, declsI, ints, "(> n 0)", "(< n 1)") {
		t.Error("integer gap not refuted")
	}
	if refuteStrs(t, declsI, nil, "(> n 0)", "(< n 1)") {
		t.Error("real-relaxed gap wrongly refuted")
	}
}

// TestRefuteIntervalsZeroBounds pins two satisfiable conjunctions the
// refuter once called unsatisfiable: an attained zero factor (x = 0
// makes x·y = 0 for every y) and a divisor approaching zero (x/y is
// unbounded below as y rises to 0).
func TestRefuteIntervalsZeroBounds(t *testing.T) {
	decls := map[string]ast.Sort{"x": ast.SortReal, "y": ast.SortReal}
	if refuteStrs(t, decls, nil, "(>= x 0.0)", "(> y 5.0)", "(<= (* x y) 0.0)") {
		t.Error("x = 0 satisfies x·y ≤ 0, refuted anyway")
	}
	if refuteStrs(t, decls, nil, "(= x 1.0)", "(> y (- 1.0))", "(< y 0.0)", "(< (/ x y) (- 2.0))") {
		t.Error("y = -1/4 satisfies x/y < -2, refuted anyway")
	}
}

// TestRefuteIntervalsNegatedLiterals pins that a literal under not is
// read with its relation flipped, the way the solver's nonlinear rounds
// pass their false atoms: x ∈ [-1/2, 1/2] bounds x·x by 1/4, so x·x > 1
// is refuted and x·x > 1/10 is not.
func TestRefuteIntervalsNegatedLiterals(t *testing.T) {
	decls := map[string]ast.Sort{"x": ast.SortReal}
	if !refuteStrs(t, decls, nil, "(not (<= (* x x) 1.0))", "(<= x 0.5)", "(>= x (- 0.5))") {
		t.Error("x·x > 1 with |x| ≤ 1/2 not refuted")
	}
	if refuteStrs(t, decls, nil, "(not (<= (* x x) 0.1))", "(<= x 0.5)", "(>= x (- 0.5))") {
		t.Error("x = 1/2 satisfies x·x > 1/10, refuted anyway")
	}
}

func TestRefuteEqualityChains(t *testing.T) {
	decls := map[string]ast.Sort{"a": ast.SortReal, "b": ast.SortReal}
	// a = 1 ∧ b = a·a ∧ b < 0.
	if !refuteStrs(t, decls, nil, "(= a 1.0)", "(= b (* a a))", "(< b 0.0)") {
		t.Error("squared-value conflict not refuted")
	}
	// a = 1 ∧ b = a·a ∧ b > 0 is satisfiable.
	if refuteStrs(t, decls, nil, "(= a 1.0)", "(= b (* a a))", "(> b 0.0)") {
		t.Error("satisfiable wrongly refuted")
	}
}

func TestEvalIntervalForeign(t *testing.T) {
	decls := map[string]ast.Sort{"s": ast.SortString}
	term, err := smtlib.ParseTerm(tb, "(str.len s)", decls)
	if err != nil {
		t.Fatal(err)
	}
	iv := EvalInterval(term, Env{}, nil)
	if iv.Lo.Inf || iv.Lo.V.Sign() != 0 || !iv.Hi.Inf {
		t.Errorf("str.len enclosure = %v", iv)
	}
	term, _ = smtlib.ParseTerm(tb, "(str.to_int s)", decls)
	iv = EvalInterval(term, Env{}, nil)
	if iv.Lo.Inf || iv.Lo.V.Cmp(rat.New(-1, 1)) != 0 {
		t.Errorf("str.to_int enclosure = %v", iv)
	}
}

func TestRelHelpers(t *testing.T) {
	if RelLe.Negate() != RelGt || RelEq.Negate() != RelNe || RelNe.Negate() != RelEq {
		t.Error("Negate broken")
	}
	if flipRel(RelLt) != RelGt || flipRel(RelEq) != RelEq {
		t.Error("flipRel broken")
	}
}

// tb is the term table the package's tests build in.
var tb = ast.NewTable(nil)
