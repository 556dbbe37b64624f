package ast

import (
	"math"
	"math/big"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/rat"
)

// Property: integer literal printing is value-faithful — Print of
// tb.Int(v) round-trips through the printed decimal (with the (- n)
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

// bigRealPrint is the math/big rendering of a Real literal: (- |v|)
// for a negative value, "n.0" for an integer, the finite decimal when
// the denominator is 2^a·5^b with a+b ≤ 64, else (/ p.0 q.0).
func bigRealPrint(v *big.Rat) string {
	if v.Sign() < 0 {
		return "(- " + bigRealPrint(new(big.Rat).Neg(v)) + ")"
	}
	if v.IsInt() {
		return v.Num().String() + ".0"
	}
	den := new(big.Int).Set(v.Denom())
	digits, ten := 0, big.NewInt(10)
	for twos, fives := 0, 0; den.Cmp(big.NewInt(1)) != 0; {
		switch {
		case twos+fives == 64:
			return "(/ " + v.Num().String() + ".0 " + v.Denom().String() + ".0)"
		case den.Bit(0) == 0:
			den.Rsh(den, 1)
			twos++
		case new(big.Int).Mod(den, big.NewInt(5)).Sign() == 0:
			den.Quo(den, big.NewInt(5))
			fives++
		default:
			return "(/ " + v.Num().String() + ".0 " + v.Denom().String() + ".0)"
		}
		digits = max(twos, fives)
	}
	s := new(big.Int).Quo(new(big.Int).Mul(v.Num(), new(big.Int).Exp(ten, big.NewInt(int64(digits)), nil)), v.Denom()).String()
	s = strings.Repeat("0", max(0, digits+1-len(s))) + s
	return s[:len(s)-digits] + "." + s[len(s)-digits:]
}

// Property: a Real literal prints as its math/big rendering, inline
// values (expanded by long division) and fallback ones alike.
// Denominators of the form 2^a·5^b·k reach the decimal form.
func TestQuickRealLitPrint(t *testing.T) {
	f := func(n int64, a, b uint8, k uint16, scale uint8) bool {
		d := new(big.Int).Lsh(big.NewInt(int64(k%7)+1), uint(a%80))
		d.Mul(d, new(big.Int).Exp(big.NewInt(5), big.NewInt(int64(b%30)), nil))
		num := new(big.Int).Mul(big.NewInt(n), new(big.Int).Lsh(big.NewInt(1), uint(scale%3)*40))
		v := new(big.Rat).SetFrac(num, d)
		return Print(tb.RealRat(rat.FromBig(v))) == bigRealPrint(v)
	}
	cfg := &quick.Config{MaxCount: 3000, Rand: rand.New(rand.NewSource(1))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Inline numerals render without allocating: the only allocation of
// a Print is the builder's buffer.
func TestPrintInlineNumeralsDoNotAllocate(t *testing.T) {
	vals := []rat.Rat{
		rat.Int(math.MaxInt64), rat.Int(-math.MaxInt64), rat.Int(0), rat.New(-5, 8),
		rat.New(1, 3), rat.New(math.MaxInt64, 1<<62), rat.New(-1, 7450580596923828125),
	}
	var b strings.Builder
	b.Grow(1 << 16)
	for _, v := range vals {
		for _, real := range []bool{false, true} {
			if !real && !v.IsInt() {
				continue
			}
			if n := testing.AllocsPerRun(20, func() { printNum(&b, v, real) }); n != 0 {
				t.Errorf("printNum(%s, real=%v) allocates %.0f times", v, real, n)
			}
		}
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
