package eval

import (
	"math"
	"math/big"
	"testing"

	"repro/internal/ast"
	"repro/internal/rat"
)

// bigIntLit and bigRealLit build a literal from a math/big value, the
// way a numeral too long for int64 enters the term layer.
func bigIntLit(x *big.Int) ast.Term  { return tb.IntRat(rat.FromBigInt(x)) }
func bigRealLit(x *big.Rat) ast.Term { return tb.RealRat(rat.FromBig(x)) }

// TestNumeralBoundary pins the printed bytes of numeric literals at
// and across the int64 boundary, their Term→ToTerm round trip, and
// that a literal built through math/big is the same node as its
// inline construction.
func TestNumeralBoundary(t *testing.T) {
	pow := func(b, e int64) *big.Int { return new(big.Int).Exp(big.NewInt(b), big.NewInt(e), nil) }
	frac := func(n, d *big.Int) *big.Rat { return new(big.Rat).SetFrac(n, d) }
	one := big.NewInt(1)
	cases := []struct {
		name   string
		big    ast.Term // built through math/big
		inline ast.Term // the inline construction, nil if none
		want   string
	}{
		{"int max", bigIntLit(big.NewInt(math.MaxInt64)), tb.Int(math.MaxInt64), "9223372036854775807"},
		{"int -max", bigIntLit(big.NewInt(-math.MaxInt64)), tb.Int(-math.MaxInt64), "(- 9223372036854775807)"},
		{"int min", bigIntLit(big.NewInt(math.MinInt64)), tb.Int(math.MinInt64), "(- 9223372036854775808)"},
		{"int 2^64", bigIntLit(pow(2, 64)), nil, "18446744073709551616"},
		{"int -2^64", bigIntLit(new(big.Int).Neg(pow(2, 64))), nil, "(- 18446744073709551616)"},
		{"int 10^30", bigIntLit(pow(10, 30)), nil, "1000000000000000000000000000000"},
		{"int 0", bigIntLit(new(big.Int)), tb.Int(0), "0"},
		{"real max", bigRealLit(big.NewRat(math.MaxInt64, 1)), tb.Real(math.MaxInt64, 1), "9223372036854775807.0"},
		{"real -max", bigRealLit(big.NewRat(-math.MaxInt64, 1)), tb.Real(-math.MaxInt64, 1), "(- 9223372036854775807.0)"},
		{"real min", bigRealLit(big.NewRat(math.MinInt64, 1)), tb.Real(math.MinInt64, 1), "(- 9223372036854775808.0)"},
		{"real 2^64", bigRealLit(new(big.Rat).SetInt(pow(2, 64))), nil, "18446744073709551616.0"},
		{"real 10^30", bigRealLit(new(big.Rat).SetInt(pow(10, 30))), nil, "1000000000000000000000000000000.0"},
		{"real 0", bigRealLit(new(big.Rat)), tb.Real(0, 1), "0.0"},
		{"1/3", bigRealLit(big.NewRat(1, 3)), tb.Real(1, 3), "(/ 1.0 3.0)"},
		{"-5/8", bigRealLit(big.NewRat(-5, 8)), tb.Real(-5, 8), "(- 0.625)"},
		{"1/max", bigRealLit(big.NewRat(1, math.MaxInt64)), tb.Real(1, math.MaxInt64), "(/ 1.0 9223372036854775807.0)"},
		{"max/2^62", bigRealLit(frac(big.NewInt(math.MaxInt64), pow(2, 62))), tb.Real(math.MaxInt64, 1<<62),
			"1.99999999999999999978315956550289911319850943982601165771484375"},
		{"-1/2^62", bigRealLit(frac(big.NewInt(-1), pow(2, 62))), tb.Real(-1, 1<<62),
			"(- 0.00000000000000000021684043449710088680149056017398834228515625)"},
		{"7/5^27", bigRealLit(frac(big.NewInt(7), pow(5, 27))), tb.Real(7, 7450580596923828125),
			"0.000000000000000000939524096"},
		{"1/2^63", bigRealLit(frac(one, pow(2, 63))), nil,
			"0.000000000000000000108420217248550443400745280086994171142578125"},
		{"1/2^70", bigRealLit(frac(one, pow(2, 70))), nil, "(/ 1.0 1180591620717411303424.0)"},
		{"10^30/3", bigRealLit(frac(pow(10, 30), big.NewInt(3))), nil, "(/ 1000000000000000000000000000000.0 3.0)"},
		{"-1/10^25", bigRealLit(frac(big.NewInt(-1), pow(10, 25))), nil, "(- 0.0000000000000000000000001)"},
	}
	for _, c := range cases {
		if got := ast.Print(c.big); got != c.want {
			t.Errorf("%s: Print = %q, want %q", c.name, got, c.want)
		}
		if c.inline != nil && c.inline != c.big {
			t.Errorf("%s: math/big and inline constructions are different nodes", c.name)
		}
		v, err := Term(c.big, nil)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := v.String(); got != c.want {
			t.Errorf("%s: Val.String = %q, want %q", c.name, got, c.want)
		}
		if back := ToTerm(tb, v); back != c.big {
			t.Errorf("%s: ToTerm(Term(lit)) = %s, not the literal's node", c.name, ast.Print(back))
		}
	}
}
