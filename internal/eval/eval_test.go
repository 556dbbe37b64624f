package eval

import (
	"errors"
	"math/big"
	"testing"

	"repro/internal/ast"
	"repro/internal/smtlib"
)

// evalStr parses src as a term over decls and evaluates it under m.
func evalStr(t *testing.T, src string, decls map[string]ast.Sort, m Model) Value {
	t.Helper()
	term, err := smtlib.ParseTerm(tb, src, decls)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	v, err := Term(term, m)
	if err != nil {
		t.Fatalf("eval %q: %v", src, err)
	}
	return v
}

func wantBool(t *testing.T, src string, decls map[string]ast.Sort, m Model, want bool) {
	t.Helper()
	v := evalStr(t, src, decls, m)
	if b, ok := v.(BoolV); !ok || bool(b) != want {
		t.Errorf("eval(%q) = %v, want %v", src, v, want)
	}
}

func wantInt(t *testing.T, src string, decls map[string]ast.Sort, m Model, want int64) {
	t.Helper()
	v := evalStr(t, src, decls, m)
	if iv, ok := v.(IntV); !ok || iv.V.Cmp(big.NewInt(want)) != 0 {
		t.Errorf("eval(%q) = %v, want %d", src, v, want)
	}
}

func wantStr(t *testing.T, src string, decls map[string]ast.Sort, m Model, want string) {
	t.Helper()
	v := evalStr(t, src, decls, m)
	if sv, ok := v.(StrV); !ok || string(sv) != want {
		t.Errorf("eval(%q) = %v, want %q", src, v, want)
	}
}

var noDecls = map[string]ast.Sort{}

func TestBooleanOps(t *testing.T) {
	wantBool(t, "(and true true false)", noDecls, nil, false)
	wantBool(t, "(or false false true)", noDecls, nil, true)
	wantBool(t, "(xor true true true)", noDecls, nil, true)
	wantBool(t, "(=> false true)", noDecls, nil, true)
	wantBool(t, "(=> true false)", noDecls, nil, false)
	wantBool(t, "(=> true true false)", noDecls, nil, false)
	wantBool(t, "(=> false true false)", noDecls, nil, true)
	wantBool(t, "(not false)", noDecls, nil, true)
	wantBool(t, "(distinct 1 2 3)", noDecls, nil, true)
	wantBool(t, "(distinct 1 2 1)", noDecls, nil, false)
	wantBool(t, "(ite true true false)", noDecls, nil, true)
}

func TestShortCircuit(t *testing.T) {
	// x is unbound; short-circuiting must not evaluate it.
	decls := map[string]ast.Sort{"x": ast.SortInt}
	wantBool(t, "(and false (= x 1))", decls, Model{}, false)
	wantBool(t, "(or true (= x 1))", decls, Model{}, true)
	wantBool(t, "(=> false (= x 1))", decls, Model{}, true)
	wantBool(t, "(ite false (= x 1) true)", decls, Model{}, true)
}

func TestIntArith(t *testing.T) {
	wantInt(t, "(+ 1 2 3)", noDecls, nil, 6)
	wantInt(t, "(- 10 3 2)", noDecls, nil, 5)
	wantInt(t, "(- 7)", noDecls, nil, -7)
	wantInt(t, "(* 2 3 4)", noDecls, nil, 24)
	wantInt(t, "(abs (- 5))", noDecls, nil, 5)
	wantBool(t, "(< 1 2 3)", noDecls, nil, true)
	wantBool(t, "(< 1 3 2)", noDecls, nil, false)
	wantBool(t, "(<= 2 2)", noDecls, nil, true)
	wantBool(t, "(> 3 2 1)", noDecls, nil, true)
	wantBool(t, "(>= 3 3 1)", noDecls, nil, true)
}

func TestEuclideanDivMod(t *testing.T) {
	// SMT-LIB div/mod: remainder non-negative.
	cases := []struct{ m, n, q, r int64 }{
		{7, 2, 3, 1},
		{-7, 2, -4, 1},
		{7, -2, -3, 1},
		{-7, -2, 4, 1},
		{6, 3, 2, 0},
		{-6, 3, -2, 0},
	}
	for _, c := range cases {
		q := euclideanDiv(big.NewInt(c.m), big.NewInt(c.n))
		r := euclideanMod(big.NewInt(c.m), big.NewInt(c.n))
		if q.Int64() != c.q || r.Int64() != c.r {
			t.Errorf("div/mod(%d,%d) = %v,%v want %d,%d", c.m, c.n, q, r, c.q, c.r)
		}
		// Defining identity: m = n*q + r, 0 <= r < |n|.
		check := c.n*q.Int64() + r.Int64()
		if check != c.m {
			t.Errorf("identity broken for (%d,%d)", c.m, c.n)
		}
	}
}

func TestDivisionByZeroInterpretation(t *testing.T) {
	wantInt(t, "(div 5 0)", noDecls, nil, 0)
	wantInt(t, "(mod 5 0)", noDecls, nil, 5)
	v := evalStr(t, "(/ 5.0 0.0)", noDecls, nil)
	if rv := v.(RealV); rv.V.Sign() != 0 {
		t.Errorf("(/ 5.0 0.0) = %v want 0", rv)
	}
}

func TestRealArith(t *testing.T) {
	v := evalStr(t, "(+ 0.5 0.25)", noDecls, nil)
	if rv := v.(RealV); rv.V.Cmp(big.NewRat(3, 4)) != 0 {
		t.Errorf("got %v", rv)
	}
	v = evalStr(t, "(/ 1.0 3.0)", noDecls, nil)
	if rv := v.(RealV); rv.V.Cmp(big.NewRat(1, 3)) != 0 {
		t.Errorf("got %v", rv)
	}
	wantBool(t, "(< 0.333 (/ 1.0 3.0) 0.334)", noDecls, nil, true)
	wantInt(t, "(to_int 2.7)", noDecls, nil, 2)
	wantInt(t, "(to_int (- 2.7))", noDecls, nil, -3)
	wantBool(t, "(is_int 2.0)", noDecls, nil, true)
	wantBool(t, "(is_int 2.5)", noDecls, nil, false)
	v = evalStr(t, "(to_real 3)", noDecls, nil)
	if rv := v.(RealV); rv.V.Cmp(big.NewRat(3, 1)) != 0 {
		t.Errorf("to_real: %v", rv)
	}
}

func TestStringOps(t *testing.T) {
	wantStr(t, `(str.++ "foo" "bar")`, noDecls, nil, "foobar")
	wantInt(t, `(str.len "hello")`, noDecls, nil, 5)
	wantStr(t, `(str.at "abc" 1)`, noDecls, nil, "b")
	wantStr(t, `(str.at "abc" 3)`, noDecls, nil, "")
	wantStr(t, `(str.at "abc" (- 1))`, noDecls, nil, "")
	wantStr(t, `(str.substr "abcdef" 1 3)`, noDecls, nil, "bcd")
	wantStr(t, `(str.substr "abcdef" 4 10)`, noDecls, nil, "ef")
	wantStr(t, `(str.substr "abcdef" 9 2)`, noDecls, nil, "")
	wantStr(t, `(str.substr "abcdef" 1 0)`, noDecls, nil, "")
	wantInt(t, `(str.indexof "abcabc" "bc" 0)`, noDecls, nil, 1)
	wantInt(t, `(str.indexof "abcabc" "bc" 2)`, noDecls, nil, 4)
	wantInt(t, `(str.indexof "abc" "x" 0)`, noDecls, nil, -1)
	wantInt(t, `(str.indexof "" "" 0)`, noDecls, nil, 0)
	wantStr(t, `(str.replace "foobar" "foo" "baz")`, noDecls, nil, "bazbar")
	wantStr(t, `(str.replace "aaa" "a" "b")`, noDecls, nil, "baa")
	wantStr(t, `(str.replace "abc" "x" "y")`, noDecls, nil, "abc")
	// SMT-LIB: replacing "" prepends.
	wantStr(t, `(str.replace "abc" "" "Z")`, noDecls, nil, "Zabc")
	wantStr(t, `(str.replace_all "aaa" "a" "b")`, noDecls, nil, "bbb")
	wantBool(t, `(str.prefixof "ab" "abc")`, noDecls, nil, true)
	wantBool(t, `(str.prefixof "bc" "abc")`, noDecls, nil, false)
	wantBool(t, `(str.suffixof "bc" "abc")`, noDecls, nil, true)
	wantBool(t, `(str.contains "abc" "b")`, noDecls, nil, true)
	wantBool(t, `(str.contains "b" "abc")`, noDecls, nil, false)
	wantBool(t, `(str.< "a" "b")`, noDecls, nil, true)
	wantBool(t, `(str.<= "a" "a")`, noDecls, nil, true)
}

func TestStrIntConversions(t *testing.T) {
	wantInt(t, `(str.to_int "42")`, noDecls, nil, 42)
	wantInt(t, `(str.to_int "007")`, noDecls, nil, 7)
	// Paper bug 13b root cause: str.to_int of the empty string is -1.
	wantInt(t, `(str.to_int "")`, noDecls, nil, -1)
	wantInt(t, `(str.to_int "-5")`, noDecls, nil, -1)
	wantInt(t, `(str.to_int "1a")`, noDecls, nil, -1)
	wantStr(t, `(str.from_int 42)`, noDecls, nil, "42")
	wantStr(t, `(str.from_int (- 3))`, noDecls, nil, "")
	wantStr(t, `(str.from_int 0)`, noDecls, nil, "0")
}

func TestRegexMembership(t *testing.T) {
	decls := map[string]ast.Sort{"c": ast.SortString}
	m := Model{"c": StrV("aaaa")}
	wantBool(t, `(str.in_re c (re.* (str.to_re "aa")))`, decls, m, true)
	m["c"] = StrV("aaa")
	wantBool(t, `(str.in_re c (re.* (str.to_re "aa")))`, decls, m, false)
	// Regex with a variable inside str.to_re.
	m2 := Model{"c": StrV("xyxy")}
	wantBool(t, `(str.in_re (str.++ c "!") (re.++ (re.* (str.to_re c)) (str.to_re "!")))`, decls, m2, true)
	wantBool(t, `(str.in_re "q" re.allchar)`, noDecls, nil, true)
	wantBool(t, `(str.in_re "qq" re.allchar)`, noDecls, nil, false)
	wantBool(t, `(str.in_re "anything" re.all)`, noDecls, nil, true)
	wantBool(t, `(str.in_re "" re.none)`, noDecls, nil, false)
	wantBool(t, `(str.in_re "m" (re.range "a" "z"))`, noDecls, nil, true)
}

func TestVariablesAndErrors(t *testing.T) {
	decls := map[string]ast.Sort{"x": ast.SortInt}
	wantInt(t, "(+ x 1)", decls, Model{"x": Int(41)}, 42)

	term, _ := smtlib.ParseTerm(tb, "(+ x 1)", decls)
	if _, err := Term(term, Model{}); !errors.Is(err, ErrUnbound) {
		t.Errorf("unbound variable error missing, got %v", err)
	}
	if _, err := Term(term, Model{"x": StrV("no")}); err == nil {
		t.Error("sort-mismatched model value should error")
	}

	q, _ := smtlib.ParseTerm(tb, "(exists ((h Int)) (> h x))", decls)
	if _, err := Term(q, Model{"x": Int(0)}); !errors.Is(err, ErrQuantifier) {
		t.Errorf("quantifier error missing, got %v", err)
	}
}

func TestModelHelpers(t *testing.T) {
	m1 := Model{"x": Int(1)}
	m2 := Model{"y": StrV("s")}
	u, err := m1.Union(m2)
	if err != nil || len(u) != 2 {
		t.Fatalf("union: %v %v", u, err)
	}
	m3 := Model{"x": Int(2)}
	if _, err := m1.Union(m3); err == nil {
		t.Error("conflicting union should fail")
	}
	m4 := Model{"x": Int(1)}
	if _, err := m1.Union(m4); err != nil {
		t.Errorf("agreeing union should succeed: %v", err)
	}
	if !Equal(DefaultValue(ast.SortInt), Int(0)) {
		t.Error("default Int should be 0")
	}
	if !Equal(DefaultValue(ast.SortString), StrV("")) {
		t.Error("default String should be empty")
	}
}

func TestValueToTermRoundTrip(t *testing.T) {
	vals := []Value{BoolV(true), Int(-7), Real(3, 4), StrV(`a"b`)}
	for _, v := range vals {
		term := ToTerm(tb, v)
		back, err := Term(term, nil)
		if err != nil {
			t.Fatalf("eval(ToTerm(tb, %v)): %v", v, err)
		}
		if !Equal(v, back) {
			t.Errorf("round trip: %v != %v", v, back)
		}
	}
}

func TestPaperFigure13cDivisionSemantics(t *testing.T) {
	// The constraint pattern from the paper's Figure 13c: with c = 0,
	// (/ a c) is the fixed zero interpretation, so (>= (/ a c) f) is
	// (>= 0 f).
	decls := map[string]ast.Sort{
		"a": ast.SortReal, "c": ast.SortReal, "f": ast.SortReal,
	}
	m := Model{"a": Real(1, 1), "c": Real(0, 1), "f": Real(2, 1)}
	wantBool(t, "(>= (/ a c) f)", decls, m, false)
	m["f"] = Real(-1, 1)
	wantBool(t, "(>= (/ a c) f)", decls, m, true)
}
