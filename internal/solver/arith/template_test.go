package arith

import (
	"fmt"
	"testing"

	"repro/internal/ast"
	"repro/internal/smtlib"
)

// TestTemplateMatchesLinearizeDiff replays templates and fresh
// linearizations of the same atom sequence on two abstractors: every
// expression, error and the abstractors' final state must agree, in
// both sequence orders. The sequence covers abstraction that cancels,
// subterms abstracted inside a product or quotient that is then
// abstracted whole, and a linearization that fails after abstracting.
func TestTemplateMatchesLinearizeDiff(t *testing.T) {
	decls := map[string]ast.Sort{"x": ast.SortReal, "y": ast.SortReal, "z": ast.SortReal, "n": ast.SortInt, "m": ast.SortInt}
	parse := func(src string) ast.Term {
		term, err := smtlib.ParseTerm(tb, src, decls)
		if err != nil {
			t.Fatal(err)
		}
		return term
	}
	type pair struct{ l, r ast.Term }
	var pairs []pair
	for _, src := range []string{
		"(<= (+ (* 2 x) y) 3.0)",
		"(< (* x y) z)",
		"(= (- (* x y) (* x y)) (+ z 1.0))",
		"(>= (/ (* x y) z) (* x (* y z)))",
		"(> (* (div n m) (+ n 1) (mod n 2)) (abs m))",
		"(<= (* 3 (/ x 2.0) y) (* y x))",
		"(distinct (to_real (div n m)) (* y y))",
	} {
		app := parse(src).(*ast.App)
		pairs = append(pairs, pair{app.Args[0], app.Args[1]})
	}
	// Built unchecked: a Bool operand that no well-sorted input has, so
	// the linearization fails after abstracting the product before it.
	bad := &ast.App{Op: ast.OpAdd, Args: []ast.Term{parse("(* z z)"), ast.True, parse("(* x z)")}}
	pairs = append(pairs, pair{bad, nil}, pair{parse("(* x z)"), parse("(* z z)")})

	for _, reverse := range []bool{false, true} {
		fresh, replay := NewAbstractor("\x00nl!"), NewAbstractor("\x00nl!")
		for k := range pairs {
			i := k
			if reverse {
				i = len(pairs) - 1 - k
			}
			p := pairs[i]
			want, wantErr := LinearizeDiff(p.l, p.r, fresh)
			tp := MakeTemplate(p.l, p.r)
			for round := 0; round < 2; round++ {
				got, gotErr := tp.Instantiate(replay)
				if (wantErr != nil) != (gotErr != nil) {
					t.Fatalf("pair %d: error %v, template error %v", i, wantErr, gotErr)
				}
				if wantErr == nil && got.String() != want.String() {
					t.Fatalf("pair %d: template gives %s, LinearizeDiff %s", i, got, want)
				}
			}
			if i == len(pairs)-2 && (wantErr == nil || fresh.Len() == 0) {
				t.Fatal("the failing pair no longer fails after abstracting")
			}
		}
		if fresh.Len() != replay.Len() {
			t.Fatalf("abstractors hold %d and %d variables", fresh.Len(), replay.Len())
		}
		for v, term := range fresh.Terms() {
			if replay.Terms()[v] != term {
				t.Errorf("variable %q: %s vs %v", v, ast.Print(term), replay.Terms()[v])
			}
		}
	}
}

// TestTemplateSharesLinearExpression pins that a template with no
// abstracted subterm hands out its own expression, the saving that
// makes replaying linear atoms free.
func TestTemplateSharesLinearExpression(t *testing.T) {
	x, y := tb.Var("x", ast.SortReal), tb.Var("y", ast.SortReal)
	tp := MakeTemplate(tb.Add(x, y), tb.Real(1, 2))
	a, _ := tp.Instantiate(NewAbstractor("a"))
	b, _ := tp.Instantiate(NewAbstractor("b"))
	if a != b || fmt.Sprint(a) != "1·x + 1·y + -1/2" {
		t.Fatalf("instantiations %p %v and %p %v", a, a, b, b)
	}
}
