package arith

import (
	"math"
	"math/big"
	"testing"

	"repro/internal/rat"
)

// FuzzIntervalEnclosure checks the interval operations' enclosure
// property against math/big: for points p of i and q of o, p+q, p−q,
// p·q, p/q (x/0 = 0), −p and |p| lie in the corresponding interval
// result, both points lie in the hull, a common point lies in the
// intersection, and an integer point survives TightenInt. Endpoints
// near the int64 limits push the rat.Rat arithmetic onto its big
// fallback.
func FuzzIntervalEnclosure(f *testing.F) {
	f.Add(int64(1), int64(1), int64(2), int64(1), int64(3), int64(1), int64(4), int64(1), uint16(0))
	f.Add(int64(-3), int64(2), int64(5), int64(3), int64(-1), int64(1), int64(1), int64(1), uint16(0x0a0a))
	f.Add(int64(math.MinInt64+1), int64(1), int64(math.MaxInt64), int64(1), int64(math.MaxInt64-1), int64(3), int64(math.MaxInt64), int64(1), uint16(0x0102))
	f.Add(int64(math.MinInt64), int64(7), int64(-1), int64(math.MaxInt64), int64(1), int64(math.MaxInt64), int64(math.MaxInt64), int64(2), uint16(0x00f0))
	f.Add(int64(0), int64(1), int64(0), int64(1), int64(-(1 << 40)), int64(3), int64(1<<62), int64(5), uint16(0x5505))
	// Two refuter soundness bugs this target found: a closed zero
	// factor made a product's, or a dividend's, zero bound open, and a
	// divisor with an open zero endpoint gave a bounded quotient.
	f.Add(int64(0), int64(67), int64(-185), int64(268), int64(-1099511627856), int64(-203), int64(4611686018427387480), int64(28), uint16(22108))
	f.Add(int64(-58), int64(-1), int64(94), int64(3), int64(23), int64(-92), int64(0), int64(-49), uint16(2713))
	f.Fuzz(func(t *testing.T, a, ad, b, bd, c, cd, d, dd int64, shape uint16) {
		i := fuzzInterval(a, ad, b, bd, uint8(shape))
		o := fuzzInterval(c, cd, d, dd, uint8(shape>>8))
		ps, qs := pointsIn(i), pointsIn(o)
		hull := i.Hull(o)
		for _, p := range ps {
			pb := p.Big()
			mustEnclose(t, "neg", i.Neg(), new(big.Rat).Neg(pb))
			mustEnclose(t, "abs", i.Abs(), new(big.Rat).Abs(pb))
			mustEnclose(t, "hull", hull, pb)
			if p.IsInt() {
				mustEnclose(t, "tighten", i.TightenInt(), pb)
			}
			for _, q := range qs {
				qb := q.Big()
				mustEnclose(t, "add", i.Add(o), new(big.Rat).Add(pb, qb))
				mustEnclose(t, "sub", i.Sub(o), new(big.Rat).Sub(pb, qb))
				mustEnclose(t, "mul", i.Mul(o), new(big.Rat).Mul(pb, qb))
				quo := new(big.Rat)
				if qb.Sign() != 0 {
					quo.Quo(pb, qb)
				}
				mustEnclose(t, "div", i.Div(o), quo)
				mustEnclose(t, "hull", hull, qb)
			}
			if o.Contains(p) {
				mustEnclose(t, "intersect", i.Intersect(o), pb)
			}
		}
	})
}

// fuzzInterval builds [n1/d1, n2/d2] with each side made infinite or
// open by a bit of shape.
func fuzzInterval(n1, d1, n2, d2 int64, shape uint8) Interval {
	side := func(n, d int64, inf, open bool) Endpoint {
		if inf {
			return Endpoint{Inf: true}
		}
		if d == 0 {
			d = 1
		}
		return Endpoint{V: rat.New(n, d), Open: open}
	}
	return Interval{
		Lo: side(n1, d1, shape&1 != 0, shape&2 != 0),
		Hi: side(n2, d2, shape&4 != 0, shape&8 != 0),
	}
}

// pointsIn returns rationals of i: its closed endpoints, the midpoint,
// points just inside each finite side and far out along infinite ones.
func pointsIn(i Interval) []rat.Rat {
	far := rat.FromBigInt(new(big.Int).Lsh(big.NewInt(1), 70))
	cands := []rat.Rat{rat.Int(0), rat.Int(1), rat.Int(-1), far, far.Neg()}
	if !i.Lo.Inf {
		cands = append(cands, i.Lo.V, i.Lo.V.Add(rat.New(1, 3)), i.Lo.V.Add(rat.Int(1)), i.Lo.V.Add(far))
	}
	if !i.Hi.Inf {
		cands = append(cands, i.Hi.V, i.Hi.V.Sub(rat.New(1, 7)), i.Hi.V.Sub(rat.Int(1)), i.Hi.V.Sub(far))
	}
	if !i.Lo.Inf && !i.Hi.Inf {
		mid := i.Lo.V.Add(i.Hi.V).Mul(rat.New(1, 2))
		cands = append(cands, mid, i.Lo.V.Add(mid).Mul(rat.New(1, 2)))
	}
	var out []rat.Rat
	for _, c := range cands {
		if inside(i, c.Big()) {
			out = append(out, c)
		}
	}
	return out
}

// inside is Interval.Contains on math/big.
func inside(i Interval, x *big.Rat) bool {
	if !i.Lo.Inf {
		c := x.Cmp(i.Lo.V.Big())
		if c < 0 || c == 0 && i.Lo.Open {
			return false
		}
	}
	if !i.Hi.Inf {
		c := x.Cmp(i.Hi.V.Big())
		if c > 0 || c == 0 && i.Hi.Open {
			return false
		}
	}
	return true
}

func mustEnclose(t *testing.T, op string, iv Interval, x *big.Rat) {
	t.Helper()
	if !inside(iv, x) {
		t.Fatalf("%s: %s not in %+v", op, x.RatString(), iv)
	}
}
