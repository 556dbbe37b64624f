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
	Make func(rng *rand.Rand, x, y, z *ast.Var) (instance, string)
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
		Make: func(rng *rand.Rand, x, y, z *ast.Var) (instance, string) {
			// z = x + y; rx = z − y; ry = z − x.
			return instance{
				apply:   ast.Add(x, y),
				invertX: ast.Sub(z, y),
				invertY: ast.Sub(z, x),
			}, "z = x + y"
		},
	})
	table = append(table, FusionFn{
		Name: "int-add-const", Sort: ast.SortInt,
		Make: func(rng *rand.Rand, x, y, z *ast.Var) (instance, string) {
			c := ast.Int(int64(rng.Intn(199) - 99))
			// z = x + c + y; rx = z − c − y; ry = z − c − x.
			return instance{
				apply:   ast.Add(x, c, y),
				invertX: ast.Sub(z, c, y),
				invertY: ast.Sub(z, c, x),
			}, fmt.Sprintf("z = x + %s + y", ast.Print(c))
		},
	})
	table = append(table, FusionFn{
		Name: "int-mul", Sort: ast.SortInt,
		Make: func(rng *rand.Rand, x, y, z *ast.Var) (instance, string) {
			// z = x·y; rx = z div y; ry = z div x.
			return instance{
				apply:   ast.Mul(x, y),
				invertX: ast.MustApp(ast.OpIntDiv, z, y),
				invertY: ast.MustApp(ast.OpIntDiv, z, x),
			}, "z = x * y"
		},
	})
	table = append(table, FusionFn{
		Name: "int-affine", Sort: ast.SortInt,
		Make: func(rng *rand.Rand, x, y, z *ast.Var) (instance, string) {
			c1 := ast.Int(int64(1 + rng.Intn(9)))
			c2 := ast.Int(int64(1 + rng.Intn(9)))
			c3 := ast.Int(int64(rng.Intn(99) - 49))
			// z = c1·x + c2·y + c3;
			// rx = (z − c2·y − c3) div c1; ry = (z − c1·x − c3) div c2.
			return instance{
				apply:   ast.Add(ast.Mul(c1, x), ast.Mul(c2, y), c3),
				invertX: ast.MustApp(ast.OpIntDiv, ast.Sub(z, ast.Mul(c2, y), c3), c1),
				invertY: ast.MustApp(ast.OpIntDiv, ast.Sub(z, ast.Mul(c1, x), c3), c2),
			}, fmt.Sprintf("z = %s*x + %s*y + %s", ast.Print(c1), ast.Print(c2), ast.Print(c3))
		},
	})

	// --- Real rows ---
	table = append(table, FusionFn{
		Name: "real-add", Sort: ast.SortReal,
		Make: func(rng *rand.Rand, x, y, z *ast.Var) (instance, string) {
			return instance{
				apply:   ast.Add(x, y),
				invertX: ast.Sub(z, y),
				invertY: ast.Sub(z, x),
			}, "z = x + y"
		},
	})
	table = append(table, FusionFn{
		Name: "real-add-const", Sort: ast.SortReal,
		Make: func(rng *rand.Rand, x, y, z *ast.Var) (instance, string) {
			c := ast.Real(int64(rng.Intn(199)-99), int64(1+rng.Intn(4)))
			return instance{
				apply:   ast.Add(x, c, y),
				invertX: ast.Sub(z, c, y),
				invertY: ast.Sub(z, c, x),
			}, fmt.Sprintf("z = x + %s + y", ast.Print(c))
		},
	})
	table = append(table, FusionFn{
		Name: "real-mul", Sort: ast.SortReal,
		Make: func(rng *rand.Rand, x, y, z *ast.Var) (instance, string) {
			// z = x·y; rx = z/y; ry = z/x.
			return instance{
				apply:   ast.Mul(x, y),
				invertX: ast.MustApp(ast.OpRealDiv, z, y),
				invertY: ast.MustApp(ast.OpRealDiv, z, x),
			}, "z = x * y"
		},
	})
	table = append(table, FusionFn{
		Name: "real-affine", Sort: ast.SortReal,
		Make: func(rng *rand.Rand, x, y, z *ast.Var) (instance, string) {
			c1 := ast.Real(int64(1+rng.Intn(9)), 1)
			c2 := ast.Real(int64(1+rng.Intn(9)), 1)
			c3 := ast.Real(int64(rng.Intn(99)-49), 1)
			return instance{
				apply:   ast.Add(ast.Mul(c1, x), ast.Mul(c2, y), c3),
				invertX: ast.MustApp(ast.OpRealDiv, ast.Sub(z, ast.Mul(c2, y), c3), c1),
				invertY: ast.MustApp(ast.OpRealDiv, ast.Sub(z, ast.Mul(c1, x), c3), c2),
			}, fmt.Sprintf("z = %s*x + %s*y + %s", ast.Print(c1), ast.Print(c2), ast.Print(c3))
		},
	})

	// --- String rows ---
	strLen := func(t ast.Term) ast.Term { return ast.MustApp(ast.OpStrLen, t) }
	substr := func(s, i, n ast.Term) ast.Term { return ast.MustApp(ast.OpStrSubstr, s, i, n) }
	replace := func(s, t, u ast.Term) ast.Term { return ast.MustApp(ast.OpStrReplace, s, t, u) }

	table = append(table, FusionFn{
		Name: "str-concat-substr", Sort: ast.SortString,
		Make: func(rng *rand.Rand, x, y, z *ast.Var) (instance, string) {
			// z = x ++ y; rx = substr z 0 |x|; ry = substr z |x| |y|.
			return instance{
				apply:   ast.MustApp(ast.OpStrConcat, x, y),
				invertX: substr(z, ast.Int(0), strLen(x)),
				invertY: substr(z, strLen(x), strLen(y)),
			}, "z = x ++ y (substr inversion)"
		},
	})
	table = append(table, FusionFn{
		Name: "str-concat-replace", Sort: ast.SortString,
		Make: func(rng *rand.Rand, x, y, z *ast.Var) (instance, string) {
			// z = x ++ y; rx = substr z 0 |x|; ry = replace z x "".
			return instance{
				apply:   ast.MustApp(ast.OpStrConcat, x, y),
				invertX: substr(z, ast.Int(0), strLen(x)),
				invertY: replace(z, x, ast.Str("")),
			}, "z = x ++ y (replace inversion)"
		},
	})
	table = append(table, FusionFn{
		Name: "str-concat-infix", Sort: ast.SortString,
		Make: func(rng *rand.Rand, x, y, z *ast.Var) (instance, string) {
			const alphabet = "abcxyz01"
			n := 1 + rng.Intn(3)
			buf := make([]byte, n)
			for i := range buf {
				buf[i] = alphabet[rng.Intn(len(alphabet))]
			}
			c := ast.Str(string(buf))
			// z = x ++ c ++ y; rx = substr z 0 |x|;
			// ry = replace (replace z x "") c "".
			return instance{
				apply:   ast.MustApp(ast.OpStrConcat, x, c, y),
				invertX: substr(z, ast.Int(0), strLen(x)),
				invertY: replace(replace(z, x, ast.Str("")), c, ast.Str("")),
			}, fmt.Sprintf("z = x ++ %s ++ y", ast.Print(c))
		},
	})

	return table
}
