package core

import (
	"fmt"
	"math/rand"

	"repro/internal/ast"
)

// This file implements the paper's principal future-work item: the
// automatic construction of fusion and inversion functions ("it would
// be interesting to explore the automatic generation of fusion and
// inversion functions", Section 6). Functions are synthesized from a
// small shape grammar whose inversions are derived symbolically; the
// generic witness-exactness check in pickInstance (exactUnder) then
// serves as the verification step, so synthesized rows can never
// corrupt the oracle — an inexact candidate is simply discarded for
// that seed pair.

// SynthesizeTable generates `perSort` fusion-function rows for each of
// Int, Real, and String from the shape grammar, to be used alongside or
// instead of the hand-written Figure 6 table (Options.Table).
func SynthesizeTable(rng *rand.Rand, perSort int) []FusionFn {
	var out []FusionFn
	for i := 0; i < perSort; i++ {
		out = append(out, synthArith(rng, ast.SortInt, i))
		out = append(out, synthArith(rng, ast.SortReal, i))
		out = append(out, synthString(rng, i))
	}
	return out
}

// synthArith picks a random invertible affine shape:
//
//	shape 0: z = c1·(x + a) + y        rx = ((z − y) div c1) − a,  ry = z − c1·(x + a)
//	shape 1: z = x + c2·(y + b)        rx = z − c2·(y + b),        ry = ((z − x) div c2) − b
//	shape 2: z = c1·x + c2·y + c3      rx = ((z − c2·y − c3) div c1), ry = ((z − c1·x − c3) div c2)
//
// with nonzero c1, c2 (div is exact division for Real).
func synthArith(rng *rand.Rand, sort ast.Sort, serial int) FusionFn {
	name := fmt.Sprintf("synth-%s-%d", sort, serial)
	return FusionFn{
		Name: name,
		Sort: sort,
		Make: func(tb *ast.Table, rng *rand.Rand, x, y, z *ast.Var) (instance, string) {
			lit := func(v int64) ast.Term {
				if sort == ast.SortReal {
					return tb.Real(v, 1)
				}
				return tb.Int(v)
			}
			nz := func() ast.Term { return lit(int64(1 + rng.Intn(7))) }
			anyc := func() ast.Term { return lit(int64(rng.Intn(19) - 9)) }
			divOp := ast.OpIntDiv
			if sort == ast.SortReal {
				divOp = ast.OpRealDiv
			}
			div := func(a, b ast.Term) ast.Term { return tb.MustApp(divOp, a, b) }

			switch rng.Intn(3) {
			case 0:
				c1, a := nz(), anyc()
				apply := tb.Add(tb.Mul(c1, tb.Add(x, a)), y)
				rx := tb.Sub(div(tb.Sub(z, y), c1), a)
				ry := tb.Sub(z, tb.Mul(c1, tb.Add(x, a)))
				return instance{apply: apply, invertX: rx, invertY: ry},
					fmt.Sprintf("z = %s*(x + %s) + y", ast.Print(c1), ast.Print(a))
			case 1:
				c2, b := nz(), anyc()
				apply := tb.Add(x, tb.Mul(c2, tb.Add(y, b)))
				rx := tb.Sub(z, tb.Mul(c2, tb.Add(y, b)))
				ry := tb.Sub(div(tb.Sub(z, x), c2), b)
				return instance{apply: apply, invertX: rx, invertY: ry},
					fmt.Sprintf("z = x + %s*(y + %s)", ast.Print(c2), ast.Print(b))
			default:
				c1, c2, c3 := nz(), nz(), anyc()
				apply := tb.Add(tb.Mul(c1, x), tb.Mul(c2, y), c3)
				rx := div(tb.Sub(z, tb.Mul(c2, y), c3), c1)
				ry := div(tb.Sub(z, tb.Mul(c1, x), c3), c2)
				return instance{apply: apply, invertX: rx, invertY: ry},
					fmt.Sprintf("z = %s*x + %s*y + %s", ast.Print(c1), ast.Print(c2), ast.Print(c3))
			}
		},
	}
}

// synthString builds z = p ++ x ++ m ++ y ++ s with random literal
// padding, inverted by substring extraction at symbolically computed
// offsets.
func synthString(rng *rand.Rand, serial int) FusionFn {
	name := fmt.Sprintf("synth-String-%d", serial)
	return FusionFn{
		Name: name,
		Sort: ast.SortString,
		Make: func(tb *ast.Table, rng *rand.Rand, x, y, z *ast.Var) (instance, string) {
			const alphabet = "abcxy01#"
			pad := func(max int) string {
				n := rng.Intn(max + 1)
				buf := make([]byte, n)
				for i := range buf {
					buf[i] = alphabet[rng.Intn(len(alphabet))]
				}
				return string(buf)
			}
			p, m, sfx := pad(2), pad(3), pad(2)
			strLen := func(t ast.Term) ast.Term { return tb.MustApp(ast.OpStrLen, t) }

			parts := []ast.Term{}
			if p != "" {
				parts = append(parts, tb.Str(p))
			}
			parts = append(parts, x)
			if m != "" {
				parts = append(parts, tb.Str(m))
			}
			parts = append(parts, y)
			if sfx != "" {
				parts = append(parts, tb.Str(sfx))
			}
			var apply ast.Term
			if len(parts) == 1 {
				apply = parts[0]
			} else {
				apply = tb.MustApp(ast.OpStrConcat, parts...)
			}

			// rx = substr(z, |p|, len x)
			rx := tb.MustApp(ast.OpStrSubstr, z, tb.Int(int64(len(p))), strLen(x))
			// ry = substr(z, |p| + len x + |m|, len y)
			off := tb.Add(tb.Int(int64(len(p))), strLen(x), tb.Int(int64(len(m))))
			ry := tb.MustApp(ast.OpStrSubstr, z, off, strLen(y))
			return instance{apply: apply, invertX: rx, invertY: ry},
				fmt.Sprintf("z = %q ++ x ++ %q ++ y ++ %q", p, m, sfx)
		},
	}
}
