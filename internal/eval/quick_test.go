package eval

import (
	"math/big"
	"testing"
	"testing/quick"

	"repro/internal/ast"
)

// Property: the SMT-LIB division identity m = n·(div m n) + (mod m n)
// with 0 ≤ mod < |n| holds for all integers with n ≠ 0.
func TestQuickEuclideanIdentity(t *testing.T) {
	f := func(m, n int64) bool {
		if n == 0 {
			return true
		}
		bm, bn := big.NewInt(m), big.NewInt(n)
		q := euclideanDiv(bm, bn)
		r := euclideanMod(bm, bn)
		if r.Sign() < 0 {
			return false
		}
		absN := new(big.Int).Abs(bn)
		if r.Cmp(absN) >= 0 {
			return false
		}
		check := new(big.Int).Mul(bn, q)
		check.Add(check, r)
		return check.Cmp(bm) == 0
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
		s := StrFromInt(big.NewInt(n))
		return StrToInt(s).Int64() == n
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
		return string(v.(StrV)) == s
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
		return v.(IntV).V.Int64() == int64(len(a)+len(b))
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
		left := strSubstr(s, big.NewInt(0), big.NewInt(i))
		right := strSubstr(s, big.NewInt(i), big.NewInt(int64(len(s))-i))
		return left+right == s
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: model Union is commutative on disjoint models.
func TestQuickModelUnion(t *testing.T) {
	f := func(a, b int64, s string) bool {
		m1 := Model{"x": Int(a)}
		m2 := Model{"y": Int(b), "s": StrV(s)}
		u1, err1 := m1.Union(m2)
		u2, err2 := m2.Union(m1)
		if err1 != nil || err2 != nil {
			return false
		}
		return Equal(u1["x"], u2["x"]) && Equal(u1["y"], u2["y"]) && Equal(u1["s"], u2["s"])
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
