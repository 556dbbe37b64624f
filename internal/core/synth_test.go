package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/ast"
	"repro/internal/eval"
	"repro/internal/solver/rat"
)

func TestSynthesizeTableShape(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	table := SynthesizeTable(rng, 4)
	if len(table) != 12 {
		t.Fatalf("rows = %d want 12", len(table))
	}
	counts := map[ast.Sort]int{}
	for _, fn := range table {
		counts[fn.Sort]++
		if fn.Name == "" || fn.Make == nil {
			t.Errorf("malformed row %+v", fn)
		}
	}
	if counts[ast.SortInt] != 4 || counts[ast.SortReal] != 4 || counts[ast.SortString] != 4 {
		t.Errorf("per-sort counts: %v", counts)
	}
}

// TestTableNamed: every config table name resolves, the combined table
// is Figure 6 followed by the synthesized rows, and an unknown name is
// an error rather than a silent fallback to Figure 6.
func TestTableNamed(t *testing.T) {
	sizes := map[string]int{"": len(DefaultTable), "additive": len(AdditiveTable),
		"multiplicative": len(MultiplicativeTable), "string": len(StringTable),
		"synthesized": 12, "figure6+synthesized": len(DefaultTable) + 12}
	for name, want := range sizes {
		table, err := TableNamed(name, 18)
		if err != nil || len(table) != want {
			t.Errorf("TableNamed(%q) = %d rows, %v; want %d rows", name, len(table), err, want)
		}
	}
	a, _ := TableNamed("figure6+synthesized", 18)
	b := SynthesizeTable(rand.New(rand.NewSource(18)), 4)
	for i, fn := range b {
		if got := a[len(DefaultTable)+i].Name; got != fn.Name {
			t.Errorf("row %d: %q, want %q", len(DefaultTable)+i, got, fn.Name)
		}
	}
	if _, err := TableNamed("figure7", 18); err == nil {
		t.Error("unknown table name accepted")
	}
}

// Property: every synthesized instance inverts exactly under random
// witnesses (the verification contract the fusion engine relies on).
func TestQuickSynthesizedInversionExact(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	table := SynthesizeTable(rng, 6)
	f := func(xv, yv int64, pick uint8) bool {
		xv %= 100
		yv %= 100
		// Arithmetic rows.
		var intRows []FusionFn
		for _, fn := range table {
			if fn.Sort == ast.SortInt {
				intRows = append(intRows, fn)
			}
		}
		fn := intRows[int(pick)%len(intRows)]
		x := tb.Var("x", ast.SortInt)
		y := tb.Var("y", ast.SortInt)
		z := tb.Var("z", ast.SortInt)
		inst, _ := fn.Make(tb, rng, x, y, z)
		witness := eval.Model{"x": eval.IntVal(rat.Int(xv)), "y": eval.IntVal(rat.Int(yv))}
		zv, err := eval.Term(inst.apply, witness)
		if err != nil {
			return false
		}
		witness["z"] = zv
		rx, err := eval.Term(inst.invertX, witness)
		if err != nil || !rx.Equal(eval.IntVal(rat.Int(xv))) {
			return false
		}
		ry, err := eval.Term(inst.invertY, witness)
		if err != nil || !ry.Equal(eval.IntVal(rat.Int(yv))) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestQuickSynthesizedStringInversion(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	table := SynthesizeTable(rng, 6)
	var strRows []FusionFn
	for _, fn := range table {
		if fn.Sort == ast.SortString {
			strRows = append(strRows, fn)
		}
	}
	f := func(xRaw, yRaw string, pick uint8) bool {
		clampStr := func(s string) string {
			out := []byte{}
			for i := 0; i < len(s) && i < 5; i++ {
				out = append(out, "abc01"[int(s[i])%5])
			}
			return string(out)
		}
		xv, yv := clampStr(xRaw), clampStr(yRaw)
		fn := strRows[int(pick)%len(strRows)]
		x := tb.Var("x", ast.SortString)
		y := tb.Var("y", ast.SortString)
		z := tb.Var("z", ast.SortString)
		inst, _ := fn.Make(tb, rng, x, y, z)
		witness := eval.Model{"x": eval.StrVal(xv), "y": eval.StrVal(yv)}
		zv, err := eval.Term(inst.apply, witness)
		if err != nil {
			return false
		}
		witness["z"] = zv
		rx, err := eval.Term(inst.invertX, witness)
		if err != nil || !rx.Equal(eval.StrVal(xv)) {
			return false
		}
		ry, err := eval.Term(inst.invertY, witness)
		if err != nil || !ry.Equal(eval.StrVal(yv)) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Fusions using only synthesized tables keep the oracle: sat witnesses
// stay valid.
func TestSynthesizedTableFusion(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	table := SynthesizeTable(rng, 3)
	for iter := 0; iter < 100; iter++ {
		fused, err := Fuse(tb, paperPhi1(t), paperPhi2(t), rng, Options{Table: table})
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range fused.Script.Asserts() {
			ok, err := eval.Bool(a, fused.Witness)
			if err != nil || !ok {
				t.Fatalf("iter %d: synthesized fusion witness fails on %s", iter, ast.Print(a))
			}
		}
	}
}
