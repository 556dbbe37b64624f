package rat

import (
	"math"
	"math/big"
	"math/rand"
	"testing"
)

// canonical reports why x breaks the canonical-form invariant, or ""
// when it holds: an inline value is in lowest terms with numerator in
// [−MaxInt64, MaxInt64] and denominator in [1, MaxInt64], and a
// fallback value does not fit that form.
func canonical(x Rat) string {
	if x.b != nil {
		n, d := x.b.Num(), x.b.Denom()
		if n.IsInt64() && n.Int64() != math.MinInt64 && d.IsInt64() {
			return "fallback holds a value that fits inline"
		}
		return ""
	}
	switch {
	case x.n == math.MinInt64:
		return "inline numerator is MinInt64"
	case x.dm < 0:
		return "inline denominator out of range"
	case gcd(abs(x.n), uint64(x.dm)+1) != 1 && x.n != 0:
		return "inline value not in lowest terms"
	case x.n == 0 && x.dm != 0:
		return "inline zero with denominator ≠ 1"
	}
	return ""
}

// checkOps compares every operation on x and y against math/big and
// asserts the canonical-form invariant on every result.
func checkOps(t *testing.T, x, y Rat) {
	t.Helper()
	bx, by := x.Big(), y.Big()
	same := func(op string, got Rat, want *big.Rat) {
		t.Helper()
		if why := canonical(got); why != "" {
			t.Fatalf("%s(%s, %s): %s", op, bx.RatString(), by.RatString(), why)
		}
		if got.Big().Cmp(want) != 0 {
			t.Fatalf("%s(%s, %s) = %s, want %s", op, bx.RatString(), by.RatString(), got, want.RatString())
		}
		if got.String() != want.RatString() {
			t.Fatalf("%s(%s, %s) renders %q, want %q", op, bx.RatString(), by.RatString(), got.String(), want.RatString())
		}
	}
	same("add", x.Add(y), new(big.Rat).Add(bx, by))
	same("sub", x.Sub(y), new(big.Rat).Sub(bx, by))
	same("mul", x.Mul(y), new(big.Rat).Mul(bx, by))
	same("neg", x.Neg(), new(big.Rat).Neg(bx))
	if by.Sign() != 0 {
		same("quo", x.Quo(y), new(big.Rat).Quo(bx, by))
		same("inv", y.Inv(), new(big.Rat).Inv(by))
	}
	if got, want := x.Cmp(y), bx.Cmp(by); got != want {
		t.Fatalf("cmp(%s, %s) = %d, want %d", bx.RatString(), by.RatString(), got, want)
	}
	if got, want := x.Sign(), bx.Sign(); got != want {
		t.Fatalf("sign(%s) = %d, want %d", bx.RatString(), got, want)
	}
	if got, want := x.IsInt(), bx.IsInt(); got != want {
		t.Fatalf("isInt(%s) = %v, want %v", bx.RatString(), got, want)
	}
	if got, want := x.IsZero(), bx.Sign() == 0; got != want {
		t.Fatalf("isZero(%s) = %v, want %v", bx.RatString(), got, want)
	}
	fl := new(big.Int).Div(bx.Num(), bx.Denom()) // Euclidean: floor for d > 0
	same("floor", x.Floor(), new(big.Rat).SetInt(fl))
	g := new(big.Int).GCD(nil, nil, new(big.Int).Abs(bx.Num()), new(big.Int).Abs(by.Num()))
	l := new(big.Int).Mul(bx.Denom(), by.Denom())
	l.Quo(l, new(big.Int).GCD(nil, nil, bx.Denom(), by.Denom()))
	same("gcd", GCD(x, y), new(big.Rat).SetFrac(g, l))
	same("frombig", FromBig(bx), bx)
}

// edges are int64 values at and next to the points where inline
// arithmetic overflows.
var edges = []int64{
	0, 1, -1, 2, -2, 3, 7, -12,
	math.MaxInt64, math.MaxInt64 - 1, -math.MaxInt64, math.MinInt64, math.MinInt64 + 1,
	1 << 62, -(1 << 62), 1<<62 + 1, 1 << 32, -(1 << 32), 1<<31 - 1, 1 << 31,
	3037000499, 3037000500, -3037000500, // ⌊√MaxInt64⌋ and one past it
	4611686018427387903, 6148914691236517205, // MaxInt64/2 and MaxInt64/1.5
}

func TestEdgesMatchBig(t *testing.T) {
	var vals []Rat
	for _, n := range edges {
		vals = append(vals, Int(n))
		for _, d := range edges {
			if d != 0 {
				vals = append(vals, New(n, d))
			}
		}
	}
	// Values that only the fallback can hold.
	two64 := new(big.Int).Lsh(big.NewInt(1), 64)
	vals = append(vals,
		FromBigInt(two64),
		FromBig(new(big.Rat).SetFrac(big.NewInt(1), two64)),
		FromBig(new(big.Rat).SetFrac(new(big.Int).Add(two64, big.NewInt(1)), big.NewInt(3))),
		FromBig(new(big.Rat).SetFrac(big.NewInt(math.MinInt64), big.NewInt(1))),
	)
	for _, x := range vals {
		if why := canonical(x); why != "" {
			t.Fatalf("%s: %s", x, why)
		}
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 40000; i++ {
		checkOps(t, vals[rng.Intn(len(vals))], vals[rng.Intn(len(vals))])
	}
}

func TestRandomMatchBig(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	pick := func() int64 {
		switch rng.Intn(4) {
		case 0:
			return rng.Int63n(100) - 50
		case 1:
			return rng.Int63n(1<<31) - 1<<30
		case 2:
			return rng.Int63() - rng.Int63()
		}
		return edges[rng.Intn(len(edges))] + rng.Int63n(5) - 2
	}
	for i := 0; i < 40000; i++ {
		d1, d2 := pick(), pick()
		if d1 == 0 || d2 == 0 {
			continue
		}
		checkOps(t, New(pick(), d1), New(pick(), d2))
	}
}

func TestChainsLeaveAndReenterInline(t *testing.T) {
	// Squaring overflows into the fallback; dividing back out must
	// return to the inline form.
	x := New(3037000500, 7)
	sq := x.Mul(x)
	if _, _, ok := sq.Inline(); ok {
		t.Fatalf("%s should not fit inline", sq)
	}
	back := sq.Quo(x)
	if why := canonical(back); why != "" || back.Cmp(x) != 0 {
		t.Fatalf("(x·x)/x = %s (%s), want %s inline", back, why, x)
	}
	if back != x {
		t.Fatalf("canonical form broken: %#v vs %#v", back, x)
	}
}

func FuzzRatMatchesBig(f *testing.F) {
	f.Add(int64(1), int64(2), int64(-3), int64(4), uint8(0))
	f.Add(int64(math.MaxInt64), int64(1), int64(1), int64(1), uint8(0))
	f.Add(int64(math.MinInt64), int64(-1), int64(3037000500), int64(3), uint8(1))
	f.Add(int64(1<<62), int64(3), int64(-(1 << 62)), int64(5), uint8(3))
	f.Fuzz(func(t *testing.T, a, b, c, d int64, wide uint8) {
		if b == 0 || d == 0 {
			return
		}
		x, y := New(a, b), New(c, d)
		// Push an operand into the fallback range on request.
		big64 := FromBigInt(new(big.Int).Lsh(big.NewInt(1), 64))
		if wide&1 != 0 {
			x = x.Mul(big64)
		}
		if wide&2 != 0 {
			y = y.Quo(big64)
		}
		checkOps(t, x, y)
		checkOps(t, y, x)
	})
}
