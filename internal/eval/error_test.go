package eval

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/ast"
)

// TestStructuredErrors drives every error branch of the evaluator and
// checks three properties per case: the sentinel cause matches under
// errors.Is, the reported path addresses the offending subterm, and the
// *Error carries the subterm itself. Ill-sorted applications are forged
// with ast.UncheckedApp — the checked constructors reject them — and
// ill-sorted models are built directly.
func TestStructuredErrors(t *testing.T) {
	x := tb.Var("x", ast.SortInt)
	b := tb.Var("b", ast.SortBool)
	s := tb.Var("s", ast.SortString)
	r := tb.Var("r", ast.SortReal)
	okModel := Model{
		"x": intV(1), "b": BoolVal(true), "s": StrVal("ab"), "r": realV(1, 2),
	}
	boolAsInt := tb.UncheckedApp(ast.OpAdd, ast.SortInt, b, x) // (+ b x) forged

	cases := []struct {
		name     string
		term     ast.Term
		model    Model
		sentinel error
		path     string
	}{
		{"unbound variable", tb.Gt(x, tb.Int(0)), Model{}, ErrUnbound, "arg[0]"},
		{"model sort mismatch", x, Model{"x": BoolVal(true)}, ErrSortMismatch, ""},
		{"quantifier", tb.MustQuant(true, []ast.SortedVar{{Name: "q", Sort: ast.SortInt}}, ast.Bool(true)), okModel, ErrQuantifier, ""},
		{"bool wanted by Not", tb.UncheckedApp(ast.OpNot, ast.SortBool, x), okModel, ErrSortMismatch, "arg[0]"},
		{"bool wanted by Xor", tb.UncheckedApp(ast.OpXor, ast.SortBool, b, x), okModel, ErrSortMismatch, "arg[1]"},
		{"arith on Bool", tb.UncheckedApp(ast.OpAdd, ast.SortInt, b, b), okModel, ErrSortMismatch, "arg[0]"},
		{"int arith mixed with Real", tb.UncheckedApp(ast.OpAdd, ast.SortInt, x, r), okModel, ErrSortMismatch, "arg[1]"},
		{"real arith mixed with Str", tb.UncheckedApp(ast.OpMul, ast.SortReal, r, s), okModel, ErrSortMismatch, "arg[1]"},
		{"compare on Strings", tb.UncheckedApp(ast.OpLt, ast.SortBool, s, s), okModel, ErrSortMismatch, "arg[0]"},
		{"compare mixed sorts", tb.UncheckedApp(ast.OpLe, ast.SortBool, x, r), okModel, ErrSortMismatch, "arg[1]"},
		{"to_real of Real", tb.UncheckedApp(ast.OpToReal, ast.SortReal, r), okModel, ErrSortMismatch, "arg[0]"},
		{"to_int of Int", tb.UncheckedApp(ast.OpToInt, ast.SortInt, x), okModel, ErrSortMismatch, "arg[0]"},
		{"is_int of Int", tb.UncheckedApp(ast.OpIsInt, ast.SortBool, x), okModel, ErrSortMismatch, "arg[0]"},
		{"string op on Int", tb.UncheckedApp(ast.OpStrLen, ast.SortInt, x), okModel, ErrSortMismatch, "arg[0]"},
		{"str.at with Str index", tb.UncheckedApp(ast.OpStrAt, ast.SortString, s, s), okModel, ErrSortMismatch, "arg[1]"},
		{"str.in_re non-string subject", tb.UncheckedApp(ast.OpStrInRe, ast.SortBool, x, tb.MustApp(ast.OpReAllChar)), okModel, ErrSortMismatch, "arg[0]"},
		{"str.to_re of Int", tb.MustApp(ast.OpStrInRe, s, tb.UncheckedApp(ast.OpStrToRe, ast.SortRegLan, x)), okModel, ErrSortMismatch, "arg[1].arg[0]"},
		{"re.union non-RegLan arg", tb.MustApp(ast.OpStrInRe, s, tb.UncheckedApp(ast.OpReUnion, ast.SortRegLan, s, tb.MustApp(ast.OpReAllChar))), okModel, ErrSortMismatch, "arg[1].arg[0]"},
		{"regex unsupported op", tb.MustApp(ast.OpStrInRe, s, tb.UncheckedApp(ast.OpAdd, ast.SortRegLan, tb.MustApp(ast.OpReAllChar), tb.MustApp(ast.OpReAllChar))), okModel, ErrUnsupported, "arg[1]"},
		{"non-application RegLan term", tb.MustApp(ast.OpStrInRe, s, tb.Var("L", ast.SortRegLan)), okModel, ErrUnsupported, "arg[1]"},
		{"nested path through And", tb.And(b, tb.Gt(boolAsInt, tb.Int(0))), okModel, ErrSortMismatch, "arg[1].arg[0].arg[0]"},
		{"nested path through Ite branch", tb.Ite(b, boolAsInt, x), okModel, ErrSortMismatch, "arg[1].arg[0]"},
		{"implies final arg", tb.MustApp(ast.OpImplies, b, tb.Gt(tb.Var("missing", ast.SortInt), x)), okModel, ErrUnbound, "arg[1].arg[0]"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Term(tc.term, tc.model)
			if err == nil {
				t.Fatal("no error")
			}
			if !errors.Is(err, tc.sentinel) {
				t.Fatalf("cause = %v, want %v", err, tc.sentinel)
			}
			var ee *Error
			if !errors.As(err, &ee) {
				t.Fatalf("error %T is not a *eval.Error", err)
			}
			if ee.Path != tc.path {
				t.Errorf("path = %q, want %q (err: %v)", ee.Path, tc.path, err)
			}
			if ee.Term == nil {
				t.Error("error carries no offending term")
			}
		})
	}
}

// TestArityErrors forges every operator at one argument too few and one
// too many, alone and as a regex operand, and checks that Term and a
// compiled program both report ErrArity at the forged node instead of
// indexing past its arguments.
func TestArityErrors(t *testing.T) {
	b := tb.Var("b", ast.SortBool)
	s := tb.Var("s", ast.SortString)
	m := Model{"b": BoolVal(true), "s": StrVal("ab")}
	type forged struct {
		name string
		term ast.Term
		path string
	}
	var cases []forged
	for op := ast.OpNot; op <= ast.OpReNone; op++ {
		lo, hi := op.Arity()
		var counts []int
		if lo > 0 {
			counts = append(counts, lo-1)
		}
		if hi >= 0 {
			counts = append(counts, hi+1)
		}
		for _, n := range counts {
			args := make([]ast.Term, n)
			for i := range args {
				args[i] = b
			}
			app := tb.UncheckedApp(op, ast.SortBool, args...)
			name := fmt.Sprintf("%v/%d", op, n)
			cases = append(cases, forged{name, app, ""})
			cases = append(cases, forged{name + "/in_re", tb.MustApp(ast.OpStrInRe, s, tb.UncheckedApp(op, ast.SortRegLan, args...)), "arg[1]"})
		}
	}
	for _, tc := range cases {
		vars := ast.FreeVars(tc.term)
		frame := make([]Val, len(vars))
		slots := make([]int, len(vars))
		for j, v := range vars {
			frame[j], slots[j] = m[v.Name], j
		}
		_, termErr := Term(tc.term, m)
		_, progErr := Compile(tc.term).Eval(frame, slots)
		for _, err := range []error{termErr, progErr} {
			var ee *Error
			if !errors.As(err, &ee) || ee.Err != ErrArity || ee.Path != tc.path {
				t.Errorf("%s: %v, want %v at %q", tc.name, err, ErrArity, tc.path)
			}
		}
	}
}

// TestBoolSortError pins the Bool() wrapper's own mismatch branch: a
// well-sorted non-boolean term is a caller error, reported at the root.
func TestBoolSortError(t *testing.T) {
	_, err := Bool(tb.Int(3), Model{})
	if !errors.Is(err, ErrSortMismatch) {
		t.Fatalf("Bool on Int: %v, want sort mismatch", err)
	}
	var ee *Error
	if !errors.As(err, &ee) || ee.Path != "" {
		t.Errorf("Bool mismatch not at root: %+v", err)
	}
}

// TestErrorPathNotShared checks the copy-on-unwind contract of path
// construction: evaluating the same failing (interned) subterm from two
// positions must report two distinct paths.
func TestErrorPathNotShared(t *testing.T) {
	bad := tb.Gt(tb.Var("nope", ast.SortInt), tb.Int(0))
	tt := tb.And(ast.Bool(true), bad, bad)
	_, err := Term(tt, Model{})
	var ee *Error
	if !errors.As(err, &ee) {
		t.Fatal("no structured error")
	}
	if ee.Path != "arg[1].arg[0]" {
		t.Errorf("first failing position = %q, want arg[1].arg[0]", ee.Path)
	}
	// The same leaf from the other position.
	_, err2 := Term(tb.Or(ast.Bool(false), tb.Not(bad)), Model{})
	var ee2 *Error
	if !errors.As(err2, &ee2) {
		t.Fatal("no structured error")
	}
	if ee2.Path != "arg[1].arg[0].arg[0]" {
		t.Errorf("second position = %q, want arg[1].arg[0].arg[0]", ee2.Path)
	}
}

// tb is the term table the package's tests build in.
var tb = ast.NewTable(nil)
