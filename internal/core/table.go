package core

import (
	"fmt"
	"math/rand"

	"repro/internal/ast"
)

// FusionFn is one row of the paper's Figure 6: a fusion function
// together with its two variable inversion functions, parameterized by
// random coefficients. Make instantiates the row for concrete x, y, z.
type FusionFn struct {
	Name string
	Sort ast.Sort
	Make func(tb *ast.Table, rng *rand.Rand, x, y, z *ast.Var) (instance, string)
}

// DefaultTable is the full Figure 6 table: four Int rows, four Real
// rows, and three String rows.
var DefaultTable = buildDefaultTable()

// AdditiveTable restricts the table to addition-based rows (used by the
// fusion-function ablation experiment).
var AdditiveTable = filterTable(func(name string) bool {
	switch name {
	case "int-add", "int-add-const", "real-add", "real-add-const":
		return true
	}
	return false
})

// MultiplicativeTable restricts the table to multiplication-based rows.
var MultiplicativeTable = filterTable(func(name string) bool {
	switch name {
	case "int-mul", "real-mul", "int-affine", "real-affine":
		return true
	}
	return false
})

// StringTable restricts the table to the String rows.
var StringTable = filterTable(func(name string) bool {
	switch name {
	case "str-concat-substr", "str-concat-replace", "str-concat-infix":
		return true
	}
	return false
})

// TableNamed returns the fusion-function table a campaign config names:
// "" is the full Figure 6 table; "additive", "multiplicative" and
// "string" are its restrictions; "synthesized" is a SynthesizeTable of
// 4 rows per sort drawn from synthSeed, and "figure6+synthesized"
// appends those rows to Figure 6.
func TableNamed(name string, synthSeed int64) ([]FusionFn, error) {
	switch name {
	case "":
		return DefaultTable, nil
	case "additive":
		return AdditiveTable, nil
	case "multiplicative":
		return MultiplicativeTable, nil
	case "string":
		return StringTable, nil
	case "synthesized":
		return SynthesizeTable(rand.New(rand.NewSource(synthSeed)), 4), nil
	case "figure6+synthesized":
		synth := SynthesizeTable(rand.New(rand.NewSource(synthSeed)), 4)
		return append(append([]FusionFn{}, DefaultTable...), synth...), nil
	}
	return nil, fmt.Errorf("core: unknown fusion table %q", name)
}

func filterTable(keep func(string) bool) []FusionFn {
	var out []FusionFn
	for _, fn := range buildDefaultTable() {
		if keep(fn.Name) {
			out = append(out, fn)
		}
	}
	return out
}

func buildDefaultTable() []FusionFn {
	var table []FusionFn

	// --- Int rows ---
	table = append(table, FusionFn{
		Name: "int-add", Sort: ast.SortInt,
		Make: func(tb *ast.Table, rng *rand.Rand, x, y, z *ast.Var) (instance, string) {
			// z = x + y; rx = z − y; ry = z − x.
			return instance{
				apply:   tb.Add(x, y),
				invertX: tb.Sub(z, y),
				invertY: tb.Sub(z, x),
			}, "z = x + y"
		},
	})
	table = append(table, FusionFn{
		Name: "int-add-const", Sort: ast.SortInt,
		Make: func(tb *ast.Table, rng *rand.Rand, x, y, z *ast.Var) (instance, string) {
			c := tb.Int(int64(rng.Intn(199) - 99))
			// z = x + c + y; rx = z − c − y; ry = z − c − x.
			return instance{
				apply:   tb.Add(x, c, y),
				invertX: tb.Sub(z, c, y),
				invertY: tb.Sub(z, c, x),
			}, fmt.Sprintf("z = x + %s + y", ast.Print(c))
		},
	})
	table = append(table, FusionFn{
		Name: "int-mul", Sort: ast.SortInt,
		Make: func(tb *ast.Table, rng *rand.Rand, x, y, z *ast.Var) (instance, string) {
			// z = x·y; rx = z div y; ry = z div x.
			return instance{
				apply:   tb.Mul(x, y),
				invertX: tb.MustApp(ast.OpIntDiv, z, y),
				invertY: tb.MustApp(ast.OpIntDiv, z, x),
			}, "z = x * y"
		},
	})
	table = append(table, FusionFn{
		Name: "int-affine", Sort: ast.SortInt,
		Make: func(tb *ast.Table, rng *rand.Rand, x, y, z *ast.Var) (instance, string) {
			c1 := tb.Int(int64(1 + rng.Intn(9)))
			c2 := tb.Int(int64(1 + rng.Intn(9)))
			c3 := tb.Int(int64(rng.Intn(99) - 49))
			// z = c1·x + c2·y + c3;
			// rx = (z − c2·y − c3) div c1; ry = (z − c1·x − c3) div c2.
			return instance{
				apply:   tb.Add(tb.Mul(c1, x), tb.Mul(c2, y), c3),
				invertX: tb.MustApp(ast.OpIntDiv, tb.Sub(z, tb.Mul(c2, y), c3), c1),
				invertY: tb.MustApp(ast.OpIntDiv, tb.Sub(z, tb.Mul(c1, x), c3), c2),
			}, fmt.Sprintf("z = %s*x + %s*y + %s", ast.Print(c1), ast.Print(c2), ast.Print(c3))
		},
	})

	// --- Real rows ---
	table = append(table, FusionFn{
		Name: "real-add", Sort: ast.SortReal,
		Make: func(tb *ast.Table, rng *rand.Rand, x, y, z *ast.Var) (instance, string) {
			return instance{
				apply:   tb.Add(x, y),
				invertX: tb.Sub(z, y),
				invertY: tb.Sub(z, x),
			}, "z = x + y"
		},
	})
	table = append(table, FusionFn{
		Name: "real-add-const", Sort: ast.SortReal,
		Make: func(tb *ast.Table, rng *rand.Rand, x, y, z *ast.Var) (instance, string) {
			c := tb.Real(int64(rng.Intn(199)-99), int64(1+rng.Intn(4)))
			return instance{
				apply:   tb.Add(x, c, y),
				invertX: tb.Sub(z, c, y),
				invertY: tb.Sub(z, c, x),
			}, fmt.Sprintf("z = x + %s + y", ast.Print(c))
		},
	})
	table = append(table, FusionFn{
		Name: "real-mul", Sort: ast.SortReal,
		Make: func(tb *ast.Table, rng *rand.Rand, x, y, z *ast.Var) (instance, string) {
			// z = x·y; rx = z/y; ry = z/x.
			return instance{
				apply:   tb.Mul(x, y),
				invertX: tb.MustApp(ast.OpRealDiv, z, y),
				invertY: tb.MustApp(ast.OpRealDiv, z, x),
			}, "z = x * y"
		},
	})
	table = append(table, FusionFn{
		Name: "real-affine", Sort: ast.SortReal,
		Make: func(tb *ast.Table, rng *rand.Rand, x, y, z *ast.Var) (instance, string) {
			c1 := tb.Real(int64(1+rng.Intn(9)), 1)
			c2 := tb.Real(int64(1+rng.Intn(9)), 1)
			c3 := tb.Real(int64(rng.Intn(99)-49), 1)
			return instance{
				apply:   tb.Add(tb.Mul(c1, x), tb.Mul(c2, y), c3),
				invertX: tb.MustApp(ast.OpRealDiv, tb.Sub(z, tb.Mul(c2, y), c3), c1),
				invertY: tb.MustApp(ast.OpRealDiv, tb.Sub(z, tb.Mul(c1, x), c3), c2),
			}, fmt.Sprintf("z = %s*x + %s*y + %s", ast.Print(c1), ast.Print(c2), ast.Print(c3))
		},
	})

	// --- String rows ---
	strLen := func(tb *ast.Table, t ast.Term) ast.Term { return tb.MustApp(ast.OpStrLen, t) }
	substr := func(tb *ast.Table, s, i, n ast.Term) ast.Term { return tb.MustApp(ast.OpStrSubstr, s, i, n) }
	replace := func(tb *ast.Table, s, t, u ast.Term) ast.Term { return tb.MustApp(ast.OpStrReplace, s, t, u) }

	table = append(table, FusionFn{
		Name: "str-concat-substr", Sort: ast.SortString,
		Make: func(tb *ast.Table, rng *rand.Rand, x, y, z *ast.Var) (instance, string) {
			// z = x ++ y; rx = substr z 0 |x|; ry = substr z |x| |y|.
			return instance{
				apply:   tb.MustApp(ast.OpStrConcat, x, y),
				invertX: substr(tb, z, tb.Int(0), strLen(tb, x)),
				invertY: substr(tb, z, strLen(tb, x), strLen(tb, y)),
			}, "z = x ++ y (substr inversion)"
		},
	})
	table = append(table, FusionFn{
		Name: "str-concat-replace", Sort: ast.SortString,
		Make: func(tb *ast.Table, rng *rand.Rand, x, y, z *ast.Var) (instance, string) {
			// z = x ++ y; rx = substr z 0 |x|; ry = replace z x "".
			return instance{
				apply:   tb.MustApp(ast.OpStrConcat, x, y),
				invertX: substr(tb, z, tb.Int(0), strLen(tb, x)),
				invertY: replace(tb, z, x, tb.Str("")),
			}, "z = x ++ y (replace inversion)"
		},
	})
	table = append(table, FusionFn{
		Name: "str-concat-infix", Sort: ast.SortString,
		Make: func(tb *ast.Table, rng *rand.Rand, x, y, z *ast.Var) (instance, string) {
			const alphabet = "abcxyz01"
			n := 1 + rng.Intn(3)
			buf := make([]byte, n)
			for i := range buf {
				buf[i] = alphabet[rng.Intn(len(alphabet))]
			}
			c := tb.Str(string(buf))
			// z = x ++ c ++ y; rx = substr z 0 |x|;
			// ry = replace (replace z x "") c "".
			return instance{
				apply:   tb.MustApp(ast.OpStrConcat, x, c, y),
				invertX: substr(tb, z, tb.Int(0), strLen(tb, x)),
				invertY: replace(tb, replace(tb, z, x, tb.Str("")), c, tb.Str("")),
			}, fmt.Sprintf("z = x ++ %s ++ y", ast.Print(c))
		},
	})

	return table
}
