package eval

import (
	"math/big"
	"strconv"
	"strings"

	"repro/internal/ast"
	"repro/internal/solver/rat"
)

// The operator helpers below are the one definition of what each
// SMT-LIB operator computes. Term and compiled programs both call them;
// they differ only in how they reach the argument values and in what
// they do when a sort is wrong. Numbers are rat.Rats: the helpers work
// on inline int64 words and fall back to math/big only for values
// outside them.

// arithOn returns what the arithmetic operator op computes on
// arguments of sort s: fold is applied left to right over the
// arguments, unary (neg, abs) to the first one alone. ok is false when
// op is not an arithmetic operator defined on s.
func arithOn(op ast.Op, s ast.Sort) (fold func(a, b rat.Rat) rat.Rat, unary func(rat.Rat) rat.Rat, ok bool) {
	switch op {
	case ast.OpAdd:
		fold, ok = rat.Rat.Add, s.IsArith()
	case ast.OpSub:
		fold, ok = rat.Rat.Sub, s.IsArith()
	case ast.OpMul:
		fold, ok = rat.Rat.Mul, s.IsArith()
	case ast.OpNeg:
		unary, ok = rat.Rat.Neg, s.IsArith()
	case ast.OpRealDiv:
		fold, ok = realQuo, s == ast.SortReal
	case ast.OpIntDiv:
		fold, ok = intDiv, s == ast.SortInt
	case ast.OpMod:
		fold, ok = intMod, s == ast.SortInt
	case ast.OpAbs:
		unary, ok = ratAbs, s == ast.SortInt
	}
	return fold, unary, ok
}

// holds reports whether the comparison op holds between a and b, given
// c = a.Cmp(b).
func holds(op ast.Op, c int) bool {
	switch op {
	case ast.OpLe:
		return c <= 0
	case ast.OpLt:
		return c < 0
	case ast.OpGe:
		return c >= 0
	}
	return c > 0
}

func ratAbs(a rat.Rat) rat.Rat {
	if a.Sign() < 0 {
		return a.Neg()
	}
	return a
}

// realQuo is (/ a b) with the fixed interpretation a/0 = 0.
func realQuo(a, b rat.Rat) rat.Rat {
	if b.IsZero() {
		return rat.Rat{}
	}
	return a.Quo(b)
}

// intDiv is SMT-LIB (div a b) on rationals holding integers: the
// unique q with a = b·q + r and 0 ≤ r < |b|, and the fixed
// interpretation (div a 0) = 0.
func intDiv(a, b rat.Rat) rat.Rat {
	if b.IsZero() {
		return rat.Rat{}
	}
	x, xok := int64Of(a)
	y, yok := int64Of(b)
	if !xok || !yok {
		// Euclidean division from truncated: Mod is Euclidean already.
		m, n := a.Big().Num(), b.Big().Num()
		r := new(big.Int).Mod(m, new(big.Int).Abs(n))
		q := new(big.Int).Sub(m, r)
		return rat.FromBigInt(q.Quo(q, n))
	}
	// Inline integers exclude MinInt64, so x/y cannot overflow.
	q := x / y
	if x%y < 0 {
		if y > 0 {
			q--
		} else {
			q++
		}
	}
	return rat.Int(q)
}

// intMod is SMT-LIB (mod a b) on rationals holding integers, with
// 0 ≤ r < |b| and the fixed interpretation (mod a 0) = a.
func intMod(a, b rat.Rat) rat.Rat {
	if b.IsZero() {
		return a
	}
	x, xok := int64Of(a)
	y, yok := int64Of(b)
	if !xok || !yok {
		n := b.Big().Num()
		return rat.FromBigInt(new(big.Int).Mod(a.Big().Num(), n.Abs(n)))
	}
	if y < 0 {
		y = -y
	}
	r := x % y
	if r < 0 {
		r += y
	}
	return rat.Int(r)
}

// int64Of returns an integer-valued r as an int64 when it is inline.
func int64Of(r rat.Rat) (int64, bool) {
	n, d, ok := r.Inline()
	return n, ok && d == 1
}

// strict is an operator of fixed arity that evaluates every argument:
// the sorts its arguments must have, its result sort, and what it
// computes. f receives the zero Val for arguments beyond the arity.
type strict struct {
	args []ast.Sort
	out  ast.Sort
	f    func(a, b, c Val) Val
}

const sB, sI, sR, sS = ast.SortBool, ast.SortInt, ast.SortReal, ast.SortString

// stricts holds every strict operator. The lazy boolean operators, the
// variadic ones, the arithmetic ones (arithOn) and str.in_re are
// evaluated by their own code.
var stricts = map[ast.Op]strict{
	ast.OpNot:    {[]ast.Sort{sB}, sB, func(a, _, _ Val) Val { return BoolVal(!a.b) }},
	ast.OpToReal: {[]ast.Sort{sI}, sR, func(a, _, _ Val) Val { return RealVal(a.r) }},
	ast.OpToInt:  {[]ast.Sort{sR}, sI, func(a, _, _ Val) Val { return IntVal(a.r.Floor()) }},
	ast.OpIsInt:  {[]ast.Sort{sR}, sB, func(a, _, _ Val) Val { return BoolVal(a.r.IsInt()) }},

	ast.OpStrLen:      {[]ast.Sort{sS}, sI, func(a, _, _ Val) Val { return IntVal(rat.Int(int64(len(a.s)))) }},
	ast.OpStrToInt:    {[]ast.Sort{sS}, sI, func(a, _, _ Val) Val { return IntVal(strToInt(a.s)) }},
	ast.OpStrFromInt:  {[]ast.Sort{sI}, sS, func(a, _, _ Val) Val { return StrVal(strFromInt(a.r)) }},
	ast.OpStrAt:       {[]ast.Sort{sS, sI}, sS, func(a, b, _ Val) Val { return StrVal(substr(a.s, b.r, rat.Int(1))) }},
	ast.OpStrSubstr:   {[]ast.Sort{sS, sI, sI}, sS, func(a, b, c Val) Val { return StrVal(substr(a.s, b.r, c.r)) }},
	ast.OpStrIndexOf:  {[]ast.Sort{sS, sS, sI}, sI, func(a, b, c Val) Val { return IntVal(indexOf(a.s, b.s, c.r)) }},
	ast.OpStrReplace:  {[]ast.Sort{sS, sS, sS}, sS, func(a, b, c Val) Val { return StrVal(strReplace(a.s, b.s, c.s)) }},
	ast.OpStrPrefixOf: {[]ast.Sort{sS, sS}, sB, func(a, b, _ Val) Val { return BoolVal(strings.HasPrefix(b.s, a.s)) }},
	ast.OpStrSuffixOf: {[]ast.Sort{sS, sS}, sB, func(a, b, _ Val) Val { return BoolVal(strings.HasSuffix(b.s, a.s)) }},
	ast.OpStrContains: {[]ast.Sort{sS, sS}, sB, func(a, b, _ Val) Val { return BoolVal(strings.Contains(a.s, b.s)) }},
	ast.OpStrLtOp:     {[]ast.Sort{sS, sS}, sB, func(a, b, _ Val) Val { return BoolVal(a.s < b.s) }},
	ast.OpStrLeOp:     {[]ast.Sort{sS, sS}, sB, func(a, b, _ Val) Val { return BoolVal(a.s <= b.s) }},
	ast.OpStrReplaceAll: {[]ast.Sort{sS, sS, sS}, sS, func(a, b, c Val) Val {
		if b.s == "" {
			return StrVal(c.s + a.s)
		}
		return StrVal(strings.ReplaceAll(a.s, b.s, c.s))
	}},
}

// substr is (str.substr s i n): the longest substring of s that starts
// at i and has at most n bytes, or "" when i is outside s or n ≤ 0.
// (str.at s i) is (str.substr s i 1).
func substr(s string, i, n rat.Rat) string {
	start, ok := int64Of(i)
	if !ok || start < 0 || start >= int64(len(s)) || n.Sign() <= 0 {
		return ""
	}
	length := int64(len(s)) - start
	if m, ok := int64Of(n); ok && m < length {
		length = m
	}
	return s[start : start+length]
}

// indexOf is (str.indexof s t from): the first position at or after
// from where t occurs in s, or -1.
func indexOf(s, t string, from rat.Rat) rat.Rat {
	i, ok := int64Of(from)
	if !ok || i < 0 || i > int64(len(s)) {
		return rat.Int(-1)
	}
	idx := strings.Index(s[i:], t)
	if idx < 0 {
		return rat.Int(-1)
	}
	return rat.Int(i + int64(idx))
}

// strReplace is (str.replace s t u): s with its first occurrence of t
// replaced by u; replacing the empty string prepends u.
func strReplace(s, t, u string) string {
	if t == "" {
		return u + s
	}
	idx := strings.Index(s, t)
	if idx < 0 {
		return s
	}
	return s[:idx] + u + s[idx+len(t):]
}

// strToInt is (str.to_int s): the denoted non-negative decimal numeral,
// or -1 if s is not a (non-empty) digit sequence. It allocates only
// for numerals longer than 18 digits.
func strToInt(s string) rat.Rat {
	if s == "" {
		return rat.Int(-1)
	}
	var n int64
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c < '0' || c > '9' {
			return rat.Int(-1)
		}
		n = n*10 + int64(c-'0')
	}
	if len(s) > 18 {
		v, _ := new(big.Int).SetString(s, 10)
		return rat.FromBigInt(v)
	}
	return rat.Int(n)
}

// strFromInt is (str.from_int n): the decimal numeral for non-negative
// n, "" otherwise.
func strFromInt(n rat.Rat) string {
	if n.Sign() < 0 {
		return ""
	}
	if x, ok := int64Of(n); ok {
		return strconv.FormatInt(x, 10)
	}
	return n.String()
}
