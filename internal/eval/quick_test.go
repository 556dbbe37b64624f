package eval

import (
	"testing"
	"testing/quick"

	"repro/internal/ast"
	"repro/internal/rat"
)

// Property: the SMT-LIB division identity m = n·(div m n) + (mod m n)
// with 0 ≤ mod < |n| holds for all integers with n ≠ 0.
func TestQuickEuclideanIdentity(t *testing.T) {
	f := func(m, n int64) bool {
		if n == 0 {
			return true
		}
		bm, bn := rat.Int(m), rat.Int(n)
		q := intDiv(bm, bn)
		r := intMod(bm, bn)
		if r.Sign() < 0 {
			return false
		}
		if r.Cmp(ratAbs(bn)) >= 0 {
			return false
		}
		return bn.Mul(q).Add(r).Cmp(bm) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// Property: str.to_int inverts str.from_int on non-negative integers.
func TestQuickStrIntInverse(t *testing.T) {
	f := func(n int64) bool {
		if n < 0 {
			n = -n
		}
		s := strFromInt(rat.Int(n))
		return strToInt(s) == rat.Int(n)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: string term printing and evaluation agree — a StrLit's
// printed form re-evaluates to the same value (escaping round trip at
// the semantic level).
func TestQuickStringLiteralRoundTrip(t *testing.T) {
	f := func(s string) bool {
		v, err := Term(tb.Str(s), nil)
		if err != nil {
			return false
		}
		return v.Equal(StrVal(s))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: concatenation length homomorphism — len(a ++ b) evaluates
// to len(a) + len(b) for arbitrary strings.
func TestQuickConcatLength(t *testing.T) {
	f := func(a, b string) bool {
		cc := tb.MustApp(ast.OpStrConcat, tb.Str(a), tb.Str(b))
		ln := tb.MustApp(ast.OpStrLen, cc)
		v, err := Term(ln, nil)
		if err != nil {
			return false
		}
		return v.Equal(intV(int64(len(a) + len(b))))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: substr is a prefix-suffix decomposition — for any split
// point, substr(s,0,i) ++ substr(s,i,len-i) == s.
func TestQuickSubstrSplit(t *testing.T) {
	f := func(s string, iRaw uint8) bool {
		if len(s) == 0 {
			return true
		}
		i := int64(iRaw) % int64(len(s))
		left := substr(s, rat.Int(0), rat.Int(i))
		right := substr(s, rat.Int(i), rat.Int(int64(len(s))-i))
		return left+right == s
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
