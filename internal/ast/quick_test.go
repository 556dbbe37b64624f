package ast

import (
	"math/big"
	"testing"
	"testing/quick"
)

// Property: integer literal printing is value-faithful — Print of
// tb.IntBig(v) round-trips through the printed decimal (with the (- n)
// form for negatives).
func TestQuickIntLitPrint(t *testing.T) {
	f := func(v int64) bool {
		s := Print(tb.Int(v))
		if v >= 0 {
			parsed, ok := new(big.Int).SetString(s, 10)
			return ok && parsed.Int64() == v
		}
		// (- n)
		if len(s) < 4 || s[:3] != "(- " || s[len(s)-1] != ')' {
			return false
		}
		parsed, ok := new(big.Int).SetString(s[3:len(s)-1], 10)
		return ok && -parsed.Int64() == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: substitution then counting — after substituting every free
// occurrence of x by a constant, x no longer occurs free.
func TestQuickSubstituteEliminates(t *testing.T) {
	f := func(a, b int64) bool {
		x := tb.Var("x", SortInt)
		term := tb.And(
			tb.Gt(tb.Add(x, tb.Int(a)), tb.Int(b)),
			tb.Eq(tb.Mul(tb.Int(2), x), tb.Sub(x, tb.Int(a))),
		)
		out, err := tb.Substitute(term, map[string]Term{"x": tb.Int(7)})
		if err != nil {
			return false
		}
		return CountFreeOccurrences(out, "x") == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: SubstituteOccurrences with an always-false picker is the
// identity (pointer-equal tree), and with always-true equals full
// substitution.
func TestQuickSubstituteOccurrencesExtremes(t *testing.T) {
	f := func(a int64) bool {
		x := tb.Var("x", SortInt)
		term := tb.Or(tb.Gt(x, tb.Int(a)), tb.Lt(tb.Add(x, x), tb.Int(a)))
		same, n, err := tb.SubstituteOccurrences(term, "x", tb.Int(a), func(int) bool { return false })
		if err != nil || same != term || n != 3 {
			return false
		}
		all, _, err := tb.SubstituteOccurrences(term, "x", tb.Int(a), func(int) bool { return true })
		if err != nil {
			return false
		}
		full, err := tb.Substitute(term, map[string]Term{"x": tb.Int(a)})
		if err != nil {
			return false
		}
		return Equal(all, full)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Equal is reflexive and Print-injective on generated
// arithmetic terms (equal prints imply Equal).
func TestQuickPrintEqualCoherence(t *testing.T) {
	f := func(a, b int64, pickMul bool) bool {
		x := tb.Var("x", SortInt)
		var t1, t2 Term
		if pickMul {
			t1 = tb.Mul(tb.Int(a), x)
			t2 = tb.Mul(tb.Int(b), x)
		} else {
			t1 = tb.Add(tb.Int(a), x)
			t2 = tb.Add(tb.Int(b), x)
		}
		if !Equal(t1, t1) || !Equal(t2, t2) {
			return false
		}
		if (Print(t1) == Print(t2)) != Equal(t1, t2) {
			return false
		}
		return (a == b) == Equal(t1, t2)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Transform with the identity function returns the identical
// tree (full sharing, no copies).
func TestQuickTransformIdentity(t *testing.T) {
	f := func(a, b int64) bool {
		x := tb.Var("x", SortInt)
		term := tb.And(tb.Gt(x, tb.Int(a)), tb.Eq(tb.Add(x, tb.Int(b)), tb.Int(a)))
		return tb.Transform(term, func(t Term) Term { return t }) == term
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
