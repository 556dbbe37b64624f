package arith

import "repro/internal/rat"

// Endpoint is one side of an interval: a rational value or ±∞, with an
// openness flag (Open means the value itself is excluded). Values are
// rat.Rats, so the refuter's arithmetic runs on machine words unless an
// endpoint leaves the 64-bit range.
type Endpoint struct {
	V    rat.Rat
	Inf  bool // true: this endpoint is infinite (sign given by side)
	Open bool
}

func finite(v rat.Rat, open bool) Endpoint { return Endpoint{V: v, Open: open} }

// Interval is a (possibly unbounded, possibly open) rational interval.
type Interval struct {
	Lo, Hi Endpoint
}

// Whole returns (−∞, ∞).
func Whole() Interval {
	return Interval{Lo: Endpoint{Inf: true}, Hi: Endpoint{Inf: true}}
}

// Point returns the degenerate interval [v, v].
func Point(v rat.Rat) Interval {
	return Interval{Lo: finite(v, false), Hi: finite(v, false)}
}

// IsEmpty reports whether the interval contains no rational.
func (i Interval) IsEmpty() bool {
	if i.Lo.Inf || i.Hi.Inf {
		return false
	}
	c := i.Lo.V.Cmp(i.Hi.V)
	if c > 0 {
		return true
	}
	return c == 0 && (i.Lo.Open || i.Hi.Open)
}

// Contains reports whether v lies in the interval.
func (i Interval) Contains(v rat.Rat) bool {
	if !i.Lo.Inf {
		c := v.Cmp(i.Lo.V)
		if c < 0 || (c == 0 && i.Lo.Open) {
			return false
		}
	}
	if !i.Hi.Inf {
		c := v.Cmp(i.Hi.V)
		if c > 0 || (c == 0 && i.Hi.Open) {
			return false
		}
	}
	return true
}

// ContainsZero reports whether 0 lies in the interval.
func (i Interval) ContainsZero() bool { return i.Contains(rat.Rat{}) }

// Intersect returns the intersection of two intervals.
func (i Interval) Intersect(o Interval) Interval {
	lo := i.Lo
	if !o.Lo.Inf {
		if lo.Inf {
			lo = o.Lo
		} else {
			c := o.Lo.V.Cmp(lo.V)
			if c > 0 || (c == 0 && o.Lo.Open) {
				lo = o.Lo
			}
		}
	}
	hi := i.Hi
	if !o.Hi.Inf {
		if hi.Inf {
			hi = o.Hi
		} else {
			c := o.Hi.V.Cmp(hi.V)
			if c < 0 || (c == 0 && o.Hi.Open) {
				hi = o.Hi
			}
		}
	}
	return Interval{Lo: lo, Hi: hi}
}

// Hull returns the smallest interval containing both (interval union
// hull).
func (i Interval) Hull(o Interval) Interval {
	lo := i.Lo
	if lo.Inf || o.Lo.Inf {
		lo = Endpoint{Inf: true}
	} else {
		c := o.Lo.V.Cmp(lo.V)
		if c < 0 || (c == 0 && !o.Lo.Open) {
			lo = o.Lo
		}
	}
	hi := i.Hi
	if hi.Inf || o.Hi.Inf {
		hi = Endpoint{Inf: true}
	} else {
		c := o.Hi.V.Cmp(hi.V)
		if c > 0 || (c == 0 && !o.Hi.Open) {
			hi = o.Hi
		}
	}
	return Interval{Lo: lo, Hi: hi}
}

// Neg returns −i.
func (i Interval) Neg() Interval {
	lo, hi := i.Hi, i.Lo
	if !lo.Inf {
		lo = Endpoint{V: lo.V.Neg(), Open: lo.Open}
	}
	if !hi.Inf {
		hi = Endpoint{V: hi.V.Neg(), Open: hi.Open}
	}
	return Interval{Lo: lo, Hi: hi}
}

// Add returns i + o.
func (i Interval) Add(o Interval) Interval {
	var lo, hi Endpoint
	if i.Lo.Inf || o.Lo.Inf {
		lo = Endpoint{Inf: true}
	} else {
		lo = finite(i.Lo.V.Add(o.Lo.V), i.Lo.Open || o.Lo.Open)
	}
	if i.Hi.Inf || o.Hi.Inf {
		hi = Endpoint{Inf: true}
	} else {
		hi = finite(i.Hi.V.Add(o.Hi.V), i.Hi.Open || o.Hi.Open)
	}
	return Interval{Lo: lo, Hi: hi}
}

// Sub returns i − o.
func (i Interval) Sub(o Interval) Interval { return i.Add(o.Neg()) }

// corner is a signed extended rational used in product bounds.
type corner struct {
	v    rat.Rat
	inf  int8 // -1, 0, +1
	open bool
}

func (i Interval) loCorner() corner {
	if i.Lo.Inf {
		return corner{inf: -1}
	}
	return corner{v: i.Lo.V, open: i.Lo.Open}
}

func (i Interval) hiCorner() corner {
	if i.Hi.Inf {
		return corner{inf: 1}
	}
	return corner{v: i.Hi.V, open: i.Hi.Open}
}

func (c corner) sign() int {
	if c.inf != 0 {
		return int(c.inf)
	}
	return c.v.Sign()
}

// attainedZero reports whether c is a finite, closed zero: a factor
// the interval attains, which makes every product with it attain 0
// too.
func (c corner) attainedZero() bool { return c.inf == 0 && !c.open && c.v.IsZero() }

func mulCorner(a, b corner) corner {
	if a.attainedZero() || b.attainedZero() {
		return corner{}
	}
	open := a.open || b.open
	if a.inf != 0 || b.inf != 0 {
		// 0 × ∞ = 0 (corner rule: an attained zero annihilates).
		if a.sign() == 0 || b.sign() == 0 {
			return corner{open: open}
		}
		s := int8(a.sign() * b.sign())
		return corner{inf: s, open: open}
	}
	return corner{v: a.v.Mul(b.v), open: open}
}

func cornerLess(a, b corner) bool {
	if a.inf != b.inf {
		return a.inf < b.inf
	}
	if a.inf != 0 {
		return false
	}
	return a.v.Cmp(b.v) < 0
}

func cornerEq(a, b corner) bool { return !cornerLess(a, b) && !cornerLess(b, a) }

func cornersToInterval(cs []corner) Interval {
	lo, hi := cs[0], cs[0]
	for _, c := range cs[1:] {
		switch {
		case cornerLess(c, lo):
			lo = c
		case cornerEq(c, lo) && !c.open:
			lo.open = false
		}
		switch {
		case cornerLess(hi, c):
			hi = c
		case cornerEq(c, hi) && !c.open:
			hi.open = false
		}
	}
	out := Interval{}
	if lo.inf < 0 {
		out.Lo = Endpoint{Inf: true}
	} else if lo.inf > 0 {
		// Degenerate (+∞ lower bound): treat as whole for safety.
		return Whole()
	} else {
		out.Lo = finite(lo.v, lo.open)
	}
	if hi.inf > 0 {
		out.Hi = Endpoint{Inf: true}
	} else if hi.inf < 0 {
		return Whole()
	} else {
		out.Hi = finite(hi.v, hi.open)
	}
	return out
}

// Mul returns an enclosure of i × o.
func (i Interval) Mul(o Interval) Interval {
	cs := [...]corner{
		mulCorner(i.loCorner(), o.loCorner()),
		mulCorner(i.loCorner(), o.hiCorner()),
		mulCorner(i.hiCorner(), o.loCorner()),
		mulCorner(i.hiCorner(), o.hiCorner()),
	}
	return cornersToInterval(cs[:])
}

// Div returns an enclosure of i ÷ o under this system's fixed
// interpretation x/0 = 0. If the divisor interval contains zero the
// result is the whole line (conservative); otherwise it is i times the
// reciprocal interval of o.
func (i Interval) Div(o Interval) Interval {
	if o.ContainsZero() {
		return Whole()
	}
	return i.Mul(o.recip())
}

// recip returns an enclosure of {1/x : x ∈ o} for an o that excludes
// zero. 1/x falls on either side of zero, so o's high endpoint gives
// the low one: 1/±∞ is an unattained 0, and an open zero endpoint,
// which o approaches without reaching, gives an infinite side.
func (o Interval) recip() Interval {
	inv := func(e Endpoint) Endpoint {
		switch {
		case e.Inf:
			return Endpoint{Open: true}
		case e.V.IsZero():
			return Endpoint{Inf: true}
		}
		return Endpoint{V: e.V.Inv(), Open: e.Open}
	}
	return Interval{Lo: inv(o.Hi), Hi: inv(o.Lo)}
}

// Abs returns an enclosure of |i|.
func (i Interval) Abs() Interval {
	neg := i.Neg()
	nonneg := Interval{Lo: finite(rat.Rat{}, false), Hi: Endpoint{Inf: true}}
	return i.Hull(neg).Intersect(nonneg)
}

// TightenInt shrinks the interval to integer-attainable bounds for an
// integer-sorted variable.
func (i Interval) TightenInt() Interval {
	out := i
	if !out.Lo.Inf {
		v := out.Lo.V
		if v.IsInt() {
			if out.Lo.Open {
				out.Lo = finite(v.Add(rat.Int(1)), false)
			}
		} else {
			out.Lo = finite(v.Floor().Add(rat.Int(1)), false)
		}
	}
	if !out.Hi.Inf {
		v := out.Hi.V
		if v.IsInt() {
			if out.Hi.Open {
				out.Hi = finite(v.Sub(rat.Int(1)), false)
			}
		} else {
			out.Hi = finite(v.Floor(), false)
		}
	}
	return out
}
