package eval

import (
	"errors"
	"testing"

	"repro/internal/ast"
	"repro/internal/regex"
)

// TestRegexGround reads ground RegLan terms with a nil model, the way
// the strings theory reads its memberships.
func TestRegexGround(t *testing.T) {
	// (re.* (str.to_re "aa"))
	star := tb.MustApp(ast.OpReStar, tb.MustApp(ast.OpStrToRe, tb.Str("aa")))
	r, err := Regex(star, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !regex.Match(r, "aaaa") || regex.Match(r, "aaa") {
		t.Error("converted regex misbehaves")
	}
	r, err = Regex(tb.MustApp(ast.OpReRange, tb.Str("a"), tb.Str("c")), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !regex.Match(r, "b") || regex.Match(r, "d") {
		t.Error("range misbehaves")
	}
	// A multi-character range bound is the empty language per SMT-LIB.
	r, err = Regex(tb.MustApp(ast.OpReRange, tb.Str("ab"), tb.Str("c")), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !regex.IsEmpty(r) {
		t.Error("malformed range should be empty")
	}
	// A ground compound leaf is evaluated.
	r, err = Regex(tb.MustApp(ast.OpStrToRe, tb.MustApp(ast.OpStrConcat, tb.Str("a"), tb.Str("b"))), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !regex.Match(r, "ab") || regex.Match(r, "a") {
		t.Error("compound str.to_re misbehaves")
	}
	// A non-ground leaf is rejected under a nil model.
	ng := tb.MustApp(ast.OpStrToRe, tb.Var("x", ast.SortString))
	if _, err := Regex(ng, nil); !errors.Is(err, ErrUnbound) {
		t.Errorf("non-ground str.to_re: got %v, want ErrUnbound", err)
	}
}

func TestRegexComposite(t *testing.T) {
	// (re.++ (re.opt (str.to_re "x")) (re.union (str.to_re "y") re.allchar))
	term := tb.MustApp(ast.OpReConcat,
		tb.MustApp(ast.OpReOpt, tb.MustApp(ast.OpStrToRe, tb.Str("x"))),
		tb.MustApp(ast.OpReUnion, tb.MustApp(ast.OpStrToRe, tb.Str("y")), tb.MustApp(ast.OpReAllChar)))
	r, err := Regex(term, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, yes := range []string{"y", "xy", "a", "xz"} {
		if !regex.Match(r, yes) {
			t.Errorf("%q should match", yes)
		}
	}
	for _, no := range []string{"", "xyz", "yy"} {
		if regex.Match(r, no) {
			t.Errorf("%q should not match", no)
		}
	}
}
