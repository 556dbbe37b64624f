package ast

import (
	"math/big"
	"strings"
	"testing"
)

func TestSortByName(t *testing.T) {
	cases := map[string]Sort{
		"Bool": SortBool, "Int": SortInt, "Real": SortReal,
		"String": SortString, "RegLan": SortRegLan,
	}
	for name, want := range cases {
		got, ok := SortByName(name)
		if !ok || got != want {
			t.Errorf("SortByName(%q) = %v,%v want %v", name, got, ok, want)
		}
	}
	if _, ok := SortByName("Array"); ok {
		t.Error("SortByName(Array) should fail")
	}
}

func TestOpByNameArity(t *testing.T) {
	// "-" resolves to unary or binary minus by arity.
	op, ok := OpByName("-", 1)
	if !ok || op != OpNeg {
		t.Fatalf("OpByName(-,1) = %v,%v want OpNeg", op, ok)
	}
	op, ok = OpByName("-", 2)
	if !ok || op != OpSub {
		t.Fatalf("OpByName(-,2) = %v,%v want OpSub", op, ok)
	}
	// Legacy aliases resolve.
	op, ok = OpByName("str.to.int", 1)
	if !ok || op != OpStrToInt {
		t.Fatalf("OpByName(str.to.int,1) = %v,%v want OpStrToInt", op, ok)
	}
	op, ok = OpByName("str.in.re", 2)
	if !ok || op != OpStrInRe {
		t.Fatalf("OpByName(str.in.re,2) = %v,%v", op, ok)
	}
	if _, ok = OpByName("nonsense", 2); ok {
		t.Error("OpByName(nonsense) should fail")
	}
	if _, ok = OpByName("not", 3); ok {
		t.Error("OpByName(not,3) should fail (arity)")
	}
}

func TestNewAppTyping(t *testing.T) {
	x := tb.Var("x", SortInt)
	y := tb.Var("y", SortReal)
	if _, err := tb.NewApp(OpAdd, x, y); err == nil {
		t.Error("mixed Int+Real addition should be rejected")
	}
	sum, err := tb.NewApp(OpAdd, x, tb.Int(1))
	if err != nil {
		t.Fatal(err)
	}
	if sum.Sort() != SortInt {
		t.Errorf("Int sum has sort %v", sum.Sort())
	}
	cmp, err := tb.NewApp(OpLe, y, tb.Real(1, 2))
	if err != nil {
		t.Fatal(err)
	}
	if cmp.Sort() != SortBool {
		t.Errorf("comparison has sort %v", cmp.Sort())
	}
	if _, err := tb.NewApp(OpStrLen, x); err == nil {
		t.Error("str.len of Int should be rejected")
	}
	if _, err := tb.NewApp(OpIte, True, x, y); err == nil {
		t.Error("ite with mismatched branches should be rejected")
	}
	ite, err := tb.NewApp(OpIte, True, x, tb.Int(0))
	if err != nil {
		t.Fatal(err)
	}
	if ite.Sort() != SortInt {
		t.Errorf("ite sort %v", ite.Sort())
	}
	if _, err := tb.NewApp(OpEq, x, tb.Str("a")); err == nil {
		t.Error("equality across sorts should be rejected")
	}
}

func TestPrintRoundTripForms(t *testing.T) {
	x := tb.Var("x", SortInt)
	cases := []struct {
		t    Term
		want string
	}{
		{tb.Int(5), "5"},
		{tb.Int(-5), "(- 5)"},
		{tb.Real(1, 1), "1.0"},
		{tb.Real(-3, 2), "(- 1.5)"},
		{tb.Real(1, 3), "(/ 1.0 3.0)"},
		{tb.Real(1, 4), "0.25"},
		{tb.Str(`a"b`), `"a""b"`},
		{True, "true"},
		{tb.MustApp(OpAdd, x, tb.Int(1)), "(+ x 1)"},
		{tb.MustApp(OpStrConcat, tb.Str("a"), tb.Str("b")), `(str.++ "a" "b")`},
		{tb.MustApp(OpReAllChar), "re.allchar"},
	}
	for _, c := range cases {
		if got := Print(c.t); got != c.want {
			t.Errorf("Print = %q, want %q", got, c.want)
		}
	}
}

func TestPrintQuant(t *testing.T) {
	h := tb.Var("h", SortReal)
	body := tb.MustApp(OpLt, tb.Real(0, 1), h)
	q, err := tb.NewQuant(false, []SortedVar{{"h", SortReal}}, body)
	if err != nil {
		t.Fatal(err)
	}
	want := "(exists ((h Real)) (< 0.0 h))"
	if got := Print(q); got != want {
		t.Errorf("Print = %q want %q", got, want)
	}
}

func TestFreeVarsShadowing(t *testing.T) {
	x := tb.Var("x", SortInt)
	y := tb.Var("y", SortInt)
	inner := tb.MustApp(OpLt, x, y)
	q, _ := tb.NewQuant(true, []SortedVar{{"x", SortInt}}, inner)
	f := tb.And(tb.MustApp(OpGt, x, tb.Int(0)), q)
	fv := FreeVars(f)
	names := map[string]bool{}
	for _, v := range fv {
		names[v.Name] = true
	}
	if !names["x"] || !names["y"] || len(fv) != 2 {
		t.Errorf("FreeVars = %v", names)
	}
	// x occurs free once (the occurrence under the quantifier is bound).
	if n := CountFreeOccurrences(f, "x"); n != 1 {
		t.Errorf("CountFreeOccurrences(x) = %d want 1", n)
	}
	if n := CountFreeOccurrences(f, "y"); n != 1 {
		t.Errorf("CountFreeOccurrences(y) = %d want 1", n)
	}
}

func TestSubstitute(t *testing.T) {
	x := tb.Var("x", SortInt)
	y := tb.Var("y", SortInt)
	f := tb.And(tb.MustApp(OpGt, x, tb.Int(0)), tb.MustApp(OpLt, x, y))
	g, err := tb.Substitute(f, map[string]Term{"x": tb.MustApp(OpAdd, y, tb.Int(1))})
	if err != nil {
		t.Fatal(err)
	}
	want := "(and (> (+ y 1) 0) (< (+ y 1) y))"
	if got := Print(g); got != want {
		t.Errorf("Substitute = %q want %q", got, want)
	}
	// Original is unchanged (immutability).
	if got := Print(f); got != "(and (> x 0) (< x y))" {
		t.Errorf("original mutated: %q", got)
	}
}

func TestSubstituteSortMismatch(t *testing.T) {
	x := tb.Var("x", SortInt)
	f := tb.MustApp(OpGt, x, tb.Int(0))
	if _, err := tb.Substitute(f, map[string]Term{"x": tb.Str("s")}); err == nil {
		t.Error("sort-mismatched substitution should fail")
	}
}

func TestSubstituteRespectsBinding(t *testing.T) {
	x := tb.Var("x", SortInt)
	q, _ := tb.NewQuant(true, []SortedVar{{"x", SortInt}}, tb.MustApp(OpGt, x, tb.Int(0)))
	f := tb.And(tb.MustApp(OpLt, x, tb.Int(5)), q)
	g, err := tb.Substitute(f, map[string]Term{"x": tb.Int(7)})
	if err != nil {
		t.Fatal(err)
	}
	want := "(and (< 7 5) (forall ((x Int)) (> x 0)))"
	if got := Print(g); got != want {
		t.Errorf("got %q want %q", got, want)
	}
}

func TestSubstituteCaptureDetected(t *testing.T) {
	// Replacing free y under a binder of x with a term containing x
	// would capture; must be reported.
	x := tb.Var("x", SortInt)
	y := tb.Var("y", SortInt)
	q, _ := tb.NewQuant(true, []SortedVar{{"x", SortInt}}, tb.MustApp(OpLt, x, y))
	if _, err := tb.Substitute(q, map[string]Term{"y": tb.MustApp(OpAdd, x, tb.Int(1))}); err == nil {
		t.Error("capturing substitution should fail")
	}
}

func TestSubstituteOccurrences(t *testing.T) {
	x := tb.Var("x", SortInt)
	f := tb.And(tb.MustApp(OpGt, x, tb.Int(0)), tb.MustApp(OpLt, x, tb.Int(10)), tb.Eq(x, x))
	repl := tb.Int(3)
	// Replace occurrences 1 and 3 only.
	g, n, err := tb.SubstituteOccurrences(f, "x", repl, func(i int) bool { return i == 1 || i == 3 })
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 {
		t.Errorf("visited %d occurrences, want 4", n)
	}
	want := "(and (> x 0) (< 3 10) (= x 3))"
	if got := Print(g); got != want {
		t.Errorf("got %q want %q", got, want)
	}
}

func TestSubstituteOccurrencesNone(t *testing.T) {
	x := tb.Var("x", SortInt)
	f := tb.MustApp(OpGt, x, tb.Int(0))
	g, n, err := tb.SubstituteOccurrences(f, "x", tb.Int(1), func(int) bool { return false })
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 || g != f {
		t.Errorf("no-op substitution should share the tree; n=%d", n)
	}
}

func TestRenameFreeVars(t *testing.T) {
	x := tb.Var("x", SortInt)
	f := tb.MustApp(OpGt, x, tb.Int(0))
	g := tb.RenameFreeVars(f, map[string]string{"x": "x_1"})
	if got := Print(g); got != "(> x_1 0)" {
		t.Errorf("got %q", got)
	}
}

func TestTransformSharing(t *testing.T) {
	x := tb.Var("x", SortInt)
	left := tb.MustApp(OpGt, x, tb.Int(0))
	right := tb.MustApp(OpLt, x, tb.Int(5))
	f := tb.And(left, right)
	g := tb.Transform(f, func(t Term) Term {
		if il, ok := t.(*IntLit); ok && il.V.Sign() == 0 {
			return tb.Int(1)
		}
		return t
	})
	if got := Print(g); got != "(and (> x 1) (< x 5))" {
		t.Errorf("got %q", got)
	}
	// Unchanged branch is shared.
	ga := g.(*App)
	if ga.Args[1] != right {
		t.Error("unchanged subtree was copied")
	}
}

func TestSizeDepthOps(t *testing.T) {
	x := tb.Var("x", SortInt)
	f := tb.And(tb.MustApp(OpGt, tb.MustApp(OpAdd, x, tb.Int(1)), tb.Int(0)), tb.Eq(x, tb.Int(2)))
	if got := Size(f); got != 9 {
		t.Errorf("Size = %d want 9", got)
	}
	if got := Depth(f); got != 4 {
		t.Errorf("Depth = %d want 4", got)
	}
	ops := Ops(f)
	for _, op := range []Op{OpAnd, OpGt, OpAdd, OpEq} {
		if !ops[op] {
			t.Errorf("Ops missing %v", op)
		}
	}
	if HasQuantifier(f) {
		t.Error("HasQuantifier false positive")
	}
	q, _ := tb.NewQuant(false, []SortedVar{{"h", SortInt}}, tb.Eq(tb.Var("h", SortInt), x))
	if !HasQuantifier(tb.And(f, q)) {
		t.Error("HasQuantifier false negative")
	}
}

func TestEqual(t *testing.T) {
	x1 := tb.Var("x", SortInt)
	x2 := tb.Var("x", SortInt)
	if !Equal(tb.MustApp(OpAdd, x1, tb.Int(1)), tb.MustApp(OpAdd, x2, tb.Int(1))) {
		t.Error("structurally equal terms compare unequal")
	}
	if Equal(tb.Int(1), tb.Real(1, 1)) {
		t.Error("Int 1 and Real 1.0 must differ")
	}
	big1 := tb.IntBig(new(big.Int).SetInt64(1))
	if !Equal(big1, tb.Int(1)) {
		t.Error("value-equal int literals must be Equal")
	}
	if Equal(tb.MustApp(OpAdd, x1, tb.Int(1)), tb.MustApp(OpAdd, tb.Int(1), x1)) {
		t.Error("argument order matters")
	}
}

func TestExactDecimal(t *testing.T) {
	cases := []struct {
		num, den int64
		want     string
	}{
		{1, 2, "0.5"}, {3, 4, "0.75"}, {1, 8, "0.125"},
		{7, 10, "0.7"}, {123, 100, "1.23"},
	}
	for _, c := range cases {
		got, ok := exactDecimal(big.NewRat(c.num, c.den))
		if !ok || got != c.want {
			t.Errorf("exactDecimal(%d/%d) = %q,%v want %q", c.num, c.den, got, ok, c.want)
		}
	}
	if _, ok := exactDecimal(big.NewRat(1, 3)); ok {
		t.Error("1/3 has no finite decimal")
	}
}

func TestPrintNonASCIIEscapes(t *testing.T) {
	got := Print(tb.Str("a\nb"))
	if !strings.Contains(got, `\u{a}`) {
		t.Errorf("newline not escaped: %q", got)
	}
}

func TestSmartConstructorsSingleton(t *testing.T) {
	x := tb.Var("p", SortBool)
	if tb.And(x) != Term(x) || tb.Or(x) != Term(x) {
		t.Error("And/Or of one term should return the term")
	}
}

// tb is the table the package's tests build their terms in.
var tb = NewTable(nil)
