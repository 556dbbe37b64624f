// Package rat implements the repository's one exact number type, used
// by literals, evaluated values and the arithmetic solver alike. A Rat
// is a value: it holds n/d inline as two int64 words when both fit, and
// falls back to an immutable *big.Rat only when a result overflows.
// Nearly every number a campaign sees is small, so the common
// operations run on machine words without allocating.
//
// Canonical form: a value that fits the inline form — numerator in
// [−MaxInt64, MaxInt64] and denominator in [1, MaxInt64], in lowest
// terms — is always stored inline, and only values outside that range
// use the fallback. Equal values therefore have equal representations
// in the inline range, which keeps map keys built from Rats exact, and
// == on two Rats is value equality whenever one of them is inline.
package rat

import (
	"math"
	"math/big"
	"math/bits"
	"strconv"
)

// Rat is an exact rational number. The zero value is 0. Rats are
// immutable: every operation returns a fresh value and never writes
// through the fallback pointer, so copies may share it.
type Rat struct {
	n  int64    // numerator, inline form
	dm int64    // denominator minus one, inline form (zero value: 0/1)
	b  *big.Rat // the value when it does not fit inline; nil otherwise
}

// Int returns the integer n.
func Int(n int64) Rat {
	if n == math.MinInt64 {
		return Rat{b: new(big.Rat).SetInt64(n)}
	}
	return Rat{n: n}
}

// New returns n/d in lowest terms. d must not be zero.
func New(n, d int64) Rat {
	if d == 0 {
		panic("rat: zero denominator")
	}
	if n == math.MinInt64 || d == math.MinInt64 {
		return norm(big.NewRat(n, d))
	}
	neg := (n < 0) != (d < 0)
	return make64(neg, abs(n), abs(d))
}

// Parse returns the value of a decimal numeral: digits, optionally
// followed by '.' and more digits. It reports false for any other
// string. Numerals of up to 18 digits are read on machine words; only
// longer ones go through math/big.
func Parse(s string) (Rat, bool) {
	var n, d int64 = 0, 1
	digits, dot := 0, false
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c == '.' && !dot && i > 0:
			dot = true
		case c >= '0' && c <= '9':
			// Past 18 digits n and d wrap, and are discarded below.
			n, digits = n*10+int64(c-'0'), digits+1
			if dot {
				d *= 10
			}
		default:
			return Rat{}, false
		}
	}
	if digits <= 18 {
		return New(n, d), digits > 0
	}
	r, _ := new(big.Rat).SetString(s)
	return norm(r), true
}

// FromBig returns the value of x. x is not retained.
func FromBig(x *big.Rat) Rat {
	n, d := x.Num(), x.Denom()
	if n.IsInt64() && d.IsInt64() && n.Int64() != math.MinInt64 {
		return Rat{n: n.Int64(), dm: d.Int64() - 1}
	}
	return Rat{b: new(big.Rat).Set(x)}
}

// FromBigInt returns the integer value of x. x is not retained.
func FromBigInt(x *big.Int) Rat {
	if x.IsInt64() {
		return Int(x.Int64())
	}
	return Rat{b: new(big.Rat).SetInt(x)}
}

// Big returns the value as a freshly allocated *big.Rat the caller
// owns.
func (x Rat) Big() *big.Rat {
	if x.b != nil {
		return new(big.Rat).Set(x.b)
	}
	return big.NewRat(x.n, x.dm+1)
}

// Inline returns the numerator and denominator of x and true when x is
// stored inline, and false when it uses the fallback.
func (x Rat) Inline() (n, d int64, ok bool) {
	if x.b != nil {
		return 0, 0, false
	}
	return x.n, x.dm + 1, true
}

// norm stores r, which the caller owns and never mutates afterwards,
// in canonical form.
func norm(r *big.Rat) Rat {
	n, d := r.Num(), r.Denom()
	if n.IsInt64() && d.IsInt64() {
		if nn := n.Int64(); nn != math.MinInt64 {
			return Rat{n: nn, dm: d.Int64() - 1}
		}
	}
	return Rat{b: r}
}

// make64 builds ±n/d from magnitudes in lowest terms, d > 0.
func make64(neg bool, n, d uint64) Rat {
	if n == 0 {
		return Rat{}
	}
	if g := gcd(n, d); g != 1 {
		n, d = n/g, d/g
	}
	if n > math.MaxInt64 || d > math.MaxInt64 {
		r := new(big.Rat).SetFrac(new(big.Int).SetUint64(n), new(big.Int).SetUint64(d))
		if neg {
			r.Neg(r)
		}
		return Rat{b: r}
	}
	if neg {
		return Rat{n: -int64(n), dm: int64(d) - 1}
	}
	return Rat{n: int64(n), dm: int64(d) - 1}
}

// gcd returns the greatest common divisor of a and b (gcd(0, b) = b).
func gcd(a, b uint64) uint64 {
	if a == 0 {
		return b
	}
	if b == 0 {
		return a
	}
	shift := bits.TrailingZeros64(a | b)
	a >>= bits.TrailingZeros64(a)
	//golint:allow fuel-charge — binary GCD: every iteration clears at least one bit of b, so at most 64 iterations
	for b != 0 {
		b >>= bits.TrailingZeros64(b)
		if a > b {
			a, b = b, a
		}
		b -= a
	}
	return a << shift
}

func abs(n int64) uint64 {
	if n < 0 {
		return uint64(-n)
	}
	return uint64(n)
}

// mul returns a·b and whether it fits the inline numerator range.
func mul(a, b int64) (int64, bool) {
	hi, lo := bits.Mul64(abs(a), abs(b))
	if hi != 0 || lo > math.MaxInt64 {
		return 0, false
	}
	if (a < 0) != (b < 0) {
		return -int64(lo), true
	}
	return int64(lo), true
}

// umul returns a·b and whether it fits the inline denominator range.
func umul(a, b uint64) (uint64, bool) {
	hi, lo := bits.Mul64(a, b)
	return lo, hi == 0 && lo <= math.MaxInt64
}

// add returns a+b and whether it fits the inline numerator range.
func add(a, b int64) (int64, bool) {
	s := a + b
	if (a >= 0) == (b >= 0) && (s >= 0) != (a >= 0) {
		return 0, false
	}
	return s, s != math.MinInt64
}

// bigOf returns x as a *big.Rat that must not be mutated: the fallback
// itself, or a fresh conversion of the inline value.
func (x Rat) bigOf() *big.Rat {
	if x.b != nil {
		return x.b
	}
	return big.NewRat(x.n, x.dm+1)
}

// Add returns x + y.
func (x Rat) Add(y Rat) Rat {
	if x.b == nil && y.b == nil {
		if r, ok := addInline(x, y); ok {
			return r
		}
	}
	return norm(new(big.Rat).Add(x.bigOf(), y.bigOf()))
}

// Sub returns x − y.
func (x Rat) Sub(y Rat) Rat { return x.Add(y.Neg()) }

// addInline adds two inline values (Knuth 4.5.1), reporting false when
// an intermediate leaves the int64 range.
func addInline(x, y Rat) (Rat, bool) {
	if x.dm == 0 && y.dm == 0 {
		s, ok := add(x.n, y.n)
		return Rat{n: s}, ok
	}
	b, d := uint64(x.dm)+1, uint64(y.dm)+1
	g := gcd(b, d)
	bg, dg := int64(b/g), int64(d/g)
	ad, ok1 := mul(x.n, dg)
	cb, ok2 := mul(y.n, bg)
	if !ok1 || !ok2 {
		return Rat{}, false
	}
	t, ok := add(ad, cb)
	if !ok {
		return Rat{}, false
	}
	if t == 0 {
		return Rat{}, true
	}
	g2 := gcd(abs(t), g)
	den, ok := umul(uint64(bg), d/g2)
	if !ok {
		return Rat{}, false
	}
	return Rat{n: t / int64(g2), dm: int64(den) - 1}, true
}

// Neg returns −x.
func (x Rat) Neg() Rat {
	if x.b != nil {
		return norm(new(big.Rat).Neg(x.b))
	}
	return Rat{n: -x.n, dm: x.dm}
}

// Mul returns x · y.
func (x Rat) Mul(y Rat) Rat {
	if x.b == nil && y.b == nil {
		if x.dm == 0 && y.dm == 0 {
			if p, ok := mul(x.n, y.n); ok {
				return Rat{n: p}
			}
		} else if x.n == 0 || y.n == 0 {
			return Rat{}
		} else {
			// Cross-reduce first: the product is then in lowest terms.
			b, d := uint64(x.dm)+1, uint64(y.dm)+1
			g1, g2 := gcd(abs(x.n), d), gcd(abs(y.n), b)
			n, ok1 := mul(x.n/int64(g1), y.n/int64(g2))
			den, ok2 := umul(b/g2, d/g1)
			if ok1 && ok2 {
				return Rat{n: n, dm: int64(den) - 1}
			}
		}
	}
	return norm(new(big.Rat).Mul(x.bigOf(), y.bigOf()))
}

// Inv returns 1/x. x must not be zero.
func (x Rat) Inv() Rat {
	if x.b != nil {
		return norm(new(big.Rat).Inv(x.b))
	}
	if x.n == 0 {
		panic("rat: division by zero")
	}
	if x.n < 0 {
		return Rat{n: -(x.dm + 1), dm: -x.n - 1}
	}
	return Rat{n: x.dm + 1, dm: x.n - 1}
}

// Quo returns x / y. y must not be zero.
func (x Rat) Quo(y Rat) Rat { return x.Mul(y.Inv()) }

// Sign returns −1, 0 or +1 as x is negative, zero or positive.
func (x Rat) Sign() int {
	if x.b != nil {
		return x.b.Sign()
	}
	switch {
	case x.n < 0:
		return -1
	case x.n > 0:
		return 1
	}
	return 0
}

// IsZero reports whether x = 0.
func (x Rat) IsZero() bool { return x.b == nil && x.n == 0 }

// IsInt reports whether x is an integer.
func (x Rat) IsInt() bool {
	if x.b != nil {
		return x.b.IsInt()
	}
	return x.dm == 0
}

// Cmp returns −1, 0 or +1 as x < y, x = y or x > y.
func (x Rat) Cmp(y Rat) int {
	if x.b != nil || y.b != nil {
		return x.bigOf().Cmp(y.bigOf())
	}
	if x.dm == y.dm {
		switch {
		case x.n < y.n:
			return -1
		case x.n > y.n:
			return 1
		}
		return 0
	}
	sx, sy := x.Sign(), y.Sign()
	if sx != sy {
		if sx < sy {
			return -1
		}
		return 1
	}
	if sx == 0 {
		return 0
	}
	// Same nonzero sign: compare |x.n|·d_y with |y.n|·d_x in 128 bits.
	h1, l1 := bits.Mul64(abs(x.n), uint64(y.dm)+1)
	h2, l2 := bits.Mul64(abs(y.n), uint64(x.dm)+1)
	c := 0
	switch {
	case h1 < h2 || (h1 == h2 && l1 < l2):
		c = -1
	case h1 > h2 || (h1 == h2 && l1 > l2):
		c = 1
	}
	return c * sx
}

// Floor returns the greatest integer ≤ x.
func (x Rat) Floor() Rat {
	if x.b != nil {
		q, r := new(big.Int).QuoRem(x.b.Num(), x.b.Denom(), new(big.Int))
		if r.Sign() < 0 {
			q.Sub(q, big.NewInt(1))
		}
		return FromBigInt(q)
	}
	d := x.dm + 1
	q := x.n / d
	if x.n%d < 0 {
		q--
	}
	return Rat{n: q}
}

// Trunc returns x rounded toward zero.
func (x Rat) Trunc() Rat {
	if x.b != nil {
		return FromBigInt(new(big.Int).Quo(x.b.Num(), x.b.Denom()))
	}
	return Rat{n: x.n / (x.dm + 1)}
}

// GCD returns the greatest rational g > 0 such that x/g and y/g are
// both integers: the gcd of the numerators over the lcm of the
// denominators. GCD(0, 0) is 0.
func GCD(x, y Rat) Rat {
	if x.b == nil && y.b == nil {
		b, d := uint64(x.dm)+1, uint64(y.dm)+1
		if l, ok := umul(b/gcd(b, d), d); ok {
			return make64(false, gcd(abs(x.n), abs(y.n)), l)
		}
	}
	xb, yb := x.bigOf(), y.bigOf()
	num := new(big.Int).GCD(nil, nil, new(big.Int).Abs(xb.Num()), new(big.Int).Abs(yb.Num()))
	g := new(big.Int).GCD(nil, nil, xb.Denom(), yb.Denom())
	den := new(big.Int).Mul(xb.Denom(), yb.Denom())
	den.Quo(den, g)
	return norm(new(big.Rat).SetFrac(num, den))
}

// String renders x as "n" or "n/d", like (*big.Rat).RatString.
func (x Rat) String() string {
	if x.b != nil {
		return x.b.RatString()
	}
	return string(x.Append(nil))
}

// Append appends String's rendering of x to buf.
func (x Rat) Append(buf []byte) []byte {
	if x.b != nil {
		buf = x.b.Num().Append(buf, 10)
		if !x.b.IsInt() {
			buf = append(buf, '/')
			buf = x.b.Denom().Append(buf, 10)
		}
		return buf
	}
	buf = strconv.AppendInt(buf, x.n, 10)
	if x.dm != 0 {
		buf = append(buf, '/')
		buf = strconv.AppendInt(buf, x.dm+1, 10)
	}
	return buf
}
