package eval

import (
	"math"
	"math/big"
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/rat"
)

// wide returns v·2^k with k < 80: v itself at k = 0, values beyond the
// int64 range otherwise.
func wide(v int64, k uint8) *big.Int {
	return new(big.Int).Lsh(big.NewInt(v), uint(k%80))
}

// floorDiv returns ⌊a/b⌋ for b > 0, from truncated division.
func floorDiv(a, b *big.Int) *big.Int {
	q, r := new(big.Int).QuoRem(a, b, new(big.Int))
	if r.Sign() < 0 {
		q.Sub(q, big.NewInt(1))
	}
	return q
}

// FuzzOpsMatchBig checks the operator helpers that Term and compiled
// programs share against math/big formulas written here: Euclidean div
// and mod, /, to_int, str.at, str.substr, str.indexof, str.to_int and
// str.from_int, on int64 edges and on values beyond them, with the
// fixed interpretation of division by zero. Each result must also be
// the canonical rat.Rat of its value.
func FuzzOpsMatchBig(f *testing.F) {
	edges := []int64{0, 1, -1, 7, -7, 2, math.MaxInt64, math.MinInt64, math.MaxInt64 - 1, math.MinInt64 + 1}
	for i, a := range edges {
		b := edges[(i*3+1)%len(edges)]
		f.Add(a, uint8(0), b, uint8(0), "abcabc", "bc", "123")
		f.Add(a, uint8(1), b, uint8(0), "", "", "99999999999999999999")
		f.Add(b, uint8(0), a, uint8(70), "x", "", "9223372036854775808")
		f.Add(a, uint8(64), int64(0), uint8(0), "ab", "b", "007")
		f.Add(a, uint8(0), int64(0), uint8(0), "1a", "a", "")
	}
	f.Fuzz(func(t *testing.T, a int64, ak uint8, b int64, bk uint8, s, u, digits string) {
		A, B := wide(a, ak), wide(b, bk)
		ra, rb := rat.FromBigInt(A), rat.FromBigInt(B)

		// div and mod: a = b·q + r with 0 ≤ r < |b|; (div a 0) = 0 and
		// (mod a 0) = a.
		q, r := new(big.Int), new(big.Int).Set(A)
		if B.Sign() != 0 {
			absB := new(big.Int).Abs(B)
			r.Sub(A, new(big.Int).Mul(absB, floorDiv(A, absB)))
			q.Quo(new(big.Int).Sub(A, r), B)
		}
		div, _, _ := arithOn(ast.OpIntDiv, ast.SortInt)
		mod, _, _ := arithOn(ast.OpMod, ast.SortInt)
		checkRat(t, "div", div(ra, rb), new(big.Rat).SetInt(q))
		checkRat(t, "mod", mod(ra, rb), new(big.Rat).SetInt(r))

		// / on the rationals A/(|b|+1) and B/(|a|+1); (/ x 0) = 0.
		x := new(big.Rat).SetFrac(A, new(big.Int).Add(new(big.Int).Abs(big.NewInt(b)), big.NewInt(1)))
		y := new(big.Rat).SetFrac(B, new(big.Int).Add(new(big.Int).Abs(big.NewInt(a)), big.NewInt(1)))
		quo := new(big.Rat)
		if y.Sign() != 0 {
			quo.Quo(x, y)
		}
		realDiv, _, _ := arithOn(ast.OpRealDiv, ast.SortReal)
		checkRat(t, "/", realDiv(rat.FromBig(x), rat.FromBig(y)), quo)

		// to_int is the floor.
		fl := floorDiv(x.Num(), x.Denom())
		checkRat(t, "to_int", stricts[ast.OpToInt].f(RealVal(rat.FromBig(x)), Val{}, Val{}).r, new(big.Rat).SetInt(fl))

		// str.substr s i n: from 0 ≤ i < |s|, at most n > 0 bytes, else "".
		ln := big.NewInt(int64(len(s)))
		wantSub := func(i, n *big.Int) string {
			if i.Sign() < 0 || i.Cmp(ln) >= 0 || n.Sign() <= 0 {
				return ""
			}
			end := new(big.Int).Add(i, n)
			if end.Cmp(ln) > 0 {
				end = ln
			}
			return s[i.Int64():end.Int64()]
		}
		str := func(op ast.Op, args ...Val) Val {
			var in [3]Val
			copy(in[:], args)
			return stricts[op].f(in[0], in[1], in[2])
		}
		S, U := StrVal(s), StrVal(u)
		if got, want := str(ast.OpStrSubstr, S, IntVal(ra), IntVal(rb)).s, wantSub(A, B); got != want {
			t.Errorf("str.substr %q %v %v = %q, want %q", s, A, B, got, want)
		}
		// str.at s i is the one-byte substring at i.
		if got, want := str(ast.OpStrAt, S, IntVal(ra)).s, wantSub(A, big.NewInt(1)); got != want {
			t.Errorf("str.at %q %v = %q, want %q", s, A, got, want)
		}

		// str.indexof s u i: the first match at or after 0 ≤ i ≤ |s|, else -1.
		wantIdx := big.NewInt(-1)
		if A.Sign() >= 0 && A.Cmp(ln) <= 0 {
			if k := strings.Index(s[A.Int64():], u); k >= 0 {
				wantIdx.Add(A, big.NewInt(int64(k)))
			}
		}
		checkRat(t, "str.indexof", str(ast.OpStrIndexOf, S, U, IntVal(ra)).r, new(big.Rat).SetInt(wantIdx))

		// str.to_int: a non-empty digit string denotes its numeral, any
		// other string -1.
		for _, d := range []string{digits, s, digits + digits + digits} {
			want := big.NewInt(-1)
			if d != "" && strings.Trim(d, "0123456789") == "" {
				want.SetString(d, 10)
			}
			checkRat(t, "str.to_int "+d, str(ast.OpStrToInt, StrVal(d)).r, new(big.Rat).SetInt(want))
		}

		// str.from_int: the decimal numeral of a non-negative integer, "" otherwise.
		wantFrom := ""
		if A.Sign() >= 0 {
			wantFrom = A.String()
		}
		if got := str(ast.OpStrFromInt, IntVal(ra)).s; got != wantFrom {
			t.Errorf("str.from_int %v = %q, want %q", A, got, wantFrom)
		}
	})
}

// checkRat fails unless got is want in rat's canonical form.
func checkRat(t *testing.T, what string, got rat.Rat, want *big.Rat) {
	t.Helper()
	if got.Big().Cmp(want) != 0 {
		t.Errorf("%s = %v, want %v", what, got, want.RatString())
	}
	if isInline(got) != isInline(rat.FromBig(want)) {
		t.Errorf("%s = %v is not in canonical form", what, got)
	}
}

func isInline(r rat.Rat) bool {
	_, _, ok := r.Inline()
	return ok
}
