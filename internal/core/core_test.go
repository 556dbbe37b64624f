package core

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/eval"
	"repro/internal/smtlib"
	"repro/internal/solver"
	"repro/internal/solver/rat"
)

func seedFromSrc(t *testing.T, src string, status Status, witness eval.Model) *Seed {
	t.Helper()
	sc, err := smtlib.ParseScript(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if status == StatusSat {
		// Sanity: the declared witness must satisfy the seed.
		for _, a := range sc.Asserts() {
			ok, err := eval.Bool(a, witness)
			if err != nil || !ok {
				t.Fatalf("bad witness for %s: %v", ast.Print(a), err)
			}
		}
	}
	return &Seed{Script: sc, Status: status, Witness: witness}
}

func paperPhi1(t *testing.T) *Seed {
	// Figure 1: φ1 = x > 0 ∧ x > 1, witness x = 2.
	return seedFromSrc(t, `
(declare-fun x () Int)
(assert (> x 0))
(assert (> x 1))
`, StatusSat, eval.Model{"x": eval.IntVal(rat.Int(2))})
}

func paperPhi2(t *testing.T) *Seed {
	// Figure 1: φ2 = y < 0 ∧ y < 1, witness y = −1.
	return seedFromSrc(t, `
(declare-fun y () Int)
(assert (< y 0))
(assert (< y 1))
`, StatusSat, eval.Model{"y": eval.IntVal(rat.Int(-1))})
}

func unsatSeed1(t *testing.T) *Seed {
	// Figure 4's φ3-alike: trivially unsat real formula.
	return seedFromSrc(t, `
(declare-fun x () Real)
(assert (not (= (+ (+ 1.0 x) 6.0) (+ 7.0 x))))
`, StatusUnsat, nil)
}

func unsatSeed2(t *testing.T) *Seed {
	// Figure 4's φ4: 0 < y < v ≤ w ∧ w/v < 0.
	return seedFromSrc(t, `
(declare-fun y () Real)
(declare-fun w () Real)
(declare-fun v () Real)
(assert (and (< y v) (>= w v) (< (/ w v) 0.0) (> y 0.0)))
`, StatusUnsat, nil)
}

func TestSatFusionWitnessValid(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 300; iter++ {
		fused, err := Fuse(tb, paperPhi1(t), paperPhi2(t), rng, Options{})
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		if fused.Oracle != StatusSat || fused.Mode != ModeSatConj {
			t.Fatalf("iter %d: oracle %v mode %v", iter, fused.Oracle, fused.Mode)
		}
		if fused.Witness == nil {
			t.Fatal("sat fusion must produce a witness")
		}
		// The paper's Proposition 1, checked concretely: the
		// constructed model satisfies the fused formula.
		for _, a := range fused.Script.Asserts() {
			ok, err := eval.Bool(a, fused.Witness)
			if err != nil {
				t.Fatalf("iter %d: eval: %v\n%s", iter, err, smtlib.Print(fused.Script))
			}
			if !ok {
				t.Fatalf("iter %d: witness violates fused assert %s\nscript:\n%s",
					iter, ast.Print(a), smtlib.Print(fused.Script))
			}
		}
	}
}

func TestSatFusionIntroducesFreshVariable(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	fused, err := Fuse(tb, paperPhi1(t), paperPhi2(t), rng, Options{MaxPairs: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(fused.Triplets) != 1 {
		t.Fatalf("triplets = %d", len(fused.Triplets))
	}
	tri := fused.Triplets[0]
	if tri.X != "x" || tri.Y != "y" || tri.Sort != ast.SortInt {
		t.Errorf("triplet = %+v", tri)
	}
	found := false
	for _, d := range fused.Script.Declarations() {
		if d.Name == tri.Z {
			found = true
			if d.Sort != ast.SortInt {
				t.Errorf("z sort = %v", d.Sort)
			}
		}
	}
	if !found {
		t.Error("fusion variable not declared")
	}
}

func TestUnsatFusionStructure(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for iter := 0; iter < 100; iter++ {
		fused, err := Fuse(tb, unsatSeed1(t), unsatSeed2(t), rng, Options{MaxPairs: 1})
		if err != nil {
			t.Fatal(err)
		}
		if fused.Oracle != StatusUnsat || fused.Mode != ModeUnsatDisj {
			t.Fatalf("oracle %v mode %v", fused.Oracle, fused.Mode)
		}
		asserts := fused.Script.Asserts()
		// Disjunction plus 3 fusion constraints per triplet.
		want := 1 + 3*len(fused.Triplets)
		if len(asserts) != want {
			t.Fatalf("asserts = %d want %d\n%s", len(asserts), want, smtlib.Print(fused.Script))
		}
		if top, ok := asserts[0].(*ast.App); !ok || top.Op != ast.OpOr {
			t.Fatalf("first assert is not a disjunction: %s", ast.Print(asserts[0]))
		}
	}
}

// TestUnsatFusionNeverSat checks Proposition 2 empirically: the
// reference solver must never find a model for an UNSAT-fused formula.
func TestUnsatFusionNeverSat(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	s := solver.NewReference()
	for iter := 0; iter < 60; iter++ {
		fused, err := Fuse(tb, unsatSeed1(t), unsatSeed2(t), rng, Options{MaxPairs: 2})
		if err != nil {
			t.Fatal(err)
		}
		out := s.SolveScript(fused.Script)
		if out.Result == solver.ResSat {
			t.Fatalf("iter %d: unsat-fused formula decided sat:\n%s",
				iter, smtlib.Print(fused.Script))
		}
	}
}

// TestSatFusionSolvable: additive fusions should usually be decided sat
// by the reference solver (the inliner collapses them).
func TestSatFusionSolvableAdditive(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	s := solver.NewReference()
	solved := 0
	const n = 50
	for iter := 0; iter < n; iter++ {
		fused, err := Fuse(tb, paperPhi1(t), paperPhi2(t), rng, Options{Table: AdditiveTable})
		if err != nil {
			t.Fatal(err)
		}
		out := s.SolveScript(fused.Script)
		if out.Result == solver.ResUnsat {
			t.Fatalf("iter %d: sat-fused formula decided unsat:\n%s",
				iter, smtlib.Print(fused.Script))
		}
		if out.Result == solver.ResSat {
			solved++
		}
	}
	if solved < n*3/4 {
		t.Errorf("only %d/%d additive sat fusions decided", solved, n)
	}
}

func TestMixedFusion(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	satSide := seedFromSrc(t, `
(declare-fun a () Real)
(assert (> a 1.0))
`, StatusSat, eval.Model{"a": eval.RealVal(rat.New(2, 1))})
	sawSat, sawUnsat := false, false
	for iter := 0; iter < 50; iter++ {
		fused, err := Fuse(tb, satSide, unsatSeed2(t), rng, Options{})
		if err != nil {
			t.Fatal(err)
		}
		switch fused.Mode {
		case ModeMixedSatDisj:
			sawSat = true
			if fused.Oracle != StatusSat {
				t.Fatal("mixed disjunction must be sat")
			}
			for _, a := range fused.Script.Asserts() {
				ok, err := eval.Bool(a, fused.Witness)
				if err != nil || !ok {
					t.Fatalf("mixed witness fails: %v on %s", err, ast.Print(a))
				}
			}
		case ModeMixedUnsatConj:
			sawUnsat = true
			if fused.Oracle != StatusUnsat {
				t.Fatal("mixed conjunction must be unsat")
			}
		default:
			t.Fatalf("unexpected mode %v", fused.Mode)
		}
	}
	if !sawSat || !sawUnsat {
		t.Error("both mixed modes should occur over 50 runs")
	}
}

func TestStringFusion(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s1 := seedFromSrc(t, `
(declare-fun a () String)
(assert (= (str.len a) 2))
`, StatusSat, eval.Model{"a": eval.StrVal("ab")})
	s2 := seedFromSrc(t, `
(declare-fun b () String)
(assert (str.prefixof "x" b))
`, StatusSat, eval.Model{"b": eval.StrVal("xy")})
	for iter := 0; iter < 200; iter++ {
		fused, err := Fuse(tb, s1, s2, rng, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range fused.Script.Asserts() {
			ok, err := eval.Bool(a, fused.Witness)
			if err != nil || !ok {
				t.Fatalf("iter %d: string fusion witness fails on %s\n%s",
					iter, ast.Print(a), smtlib.Print(fused.Script))
			}
		}
		if !strings.Contains(fused.Script.Logic(), "S") {
			t.Errorf("logic = %q", fused.Script.Logic())
		}
	}
}

func TestRenameApart(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	// Both seeds use the name "x": φ2's must be renamed.
	s1 := paperPhi1(t)
	s2 := seedFromSrc(t, `
(declare-fun x () Int)
(assert (< x 0))
`, StatusSat, eval.Model{"x": eval.IntVal(rat.Int(-5))})
	fused, err := Fuse(tb, s1, s2, rng, Options{})
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]int{}
	for _, d := range fused.Script.Declarations() {
		names[d.Name]++
	}
	for n, c := range names {
		if c > 1 {
			t.Errorf("duplicate declaration %q", n)
		}
	}
	if _, ok := names["x_2"]; !ok {
		t.Errorf("renamed variable missing: %v", names)
	}
	// Witness still valid.
	for _, a := range fused.Script.Asserts() {
		ok, err := eval.Bool(a, fused.Witness)
		if err != nil || !ok {
			t.Fatalf("witness after rename fails on %s", ast.Print(a))
		}
	}
}

func TestNoFusablePair(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	boolOnly := seedFromSrc(t, `
(declare-fun p () Bool)
(assert p)
`, StatusSat, eval.Model{"p": eval.BoolVal(true)})
	if _, err := Fuse(tb, boolOnly, boolOnly, rng, Options{}); err != ErrNoFusablePair {
		t.Fatalf("err = %v", err)
	}
	// Sort mismatch: Int vs String.
	intSeed := paperPhi1(t)
	strSeed := seedFromSrc(t, `
(declare-fun s () String)
(assert (= s "q"))
`, StatusSat, eval.Model{"s": eval.StrVal("q")})
	if _, err := Fuse(tb, intSeed, strSeed, rng, Options{}); err != ErrNoFusablePair {
		t.Fatalf("err = %v", err)
	}
}

func TestMultiplicativeGuardAgainstZeroWitness(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	// y's witness is 0: the multiplicative row cannot invert exactly
	// (z div y with y = 0), so fusion must fall back or reject — and
	// any produced witness must still be valid.
	s1 := seedFromSrc(t, `
(declare-fun x () Int)
(assert (> x 1))
`, StatusSat, eval.Model{"x": eval.IntVal(rat.Int(5))})
	s2 := seedFromSrc(t, `
(declare-fun y () Int)
(assert (< y 1))
`, StatusSat, eval.Model{"y": eval.IntVal(rat.Int(0))})
	for iter := 0; iter < 100; iter++ {
		fused, err := Fuse(tb, s1, s2, rng, Options{Table: MultiplicativeTable})
		if err != nil {
			// Rejecting is acceptable when no row inverts exactly.
			continue
		}
		for _, a := range fused.Script.Asserts() {
			ok, evalErr := eval.Bool(a, fused.Witness)
			if evalErr != nil || !ok {
				t.Fatalf("iter %d: inexact multiplicative fusion slipped through:\n%s",
					iter, smtlib.Print(fused.Script))
			}
		}
	}
}

// TestFuseModeRequiresWitness: two sat seeds fuse in ModeSatConj,
// which needs the witness the first seed lacks.
func TestFuseModeRequiresWitness(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	noWitness := &Seed{Script: paperPhi1(t).Script, Status: StatusSat}
	if _, err := Fuse(tb, noWitness, paperPhi2(t), rng, Options{}); err == nil {
		t.Error("sat fusion without witness should fail")
	}
}

func TestReplaceProbExtremes(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	// ReplaceProb ~0: occurrences never replaced; formula still gains
	// the z declaration but asserts equal the concatenation.
	fused, err := Fuse(tb, paperPhi1(t), paperPhi2(t), rng, Options{ReplaceProb: 1e-12, MaxPairs: 1})
	if err != nil {
		t.Fatal(err)
	}
	txt := smtlib.Print(fused.Script)
	if strings.Contains(txt, "z_fuse") && strings.Contains(txt, "(- z_fuse") {
		t.Errorf("unexpected inversion term with prob≈0:\n%s", txt)
	}
	// ReplaceProb ~1: every occurrence replaced.
	fused, err = Fuse(tb, paperPhi1(t), paperPhi2(t), rng, Options{ReplaceProb: 0.999999, MaxPairs: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range fused.Script.Asserts() {
		for _, v := range ast.FreeVars(a) {
			if v.Name == "x" && ast.CountFreeOccurrences(a, "x") > 0 {
				// x may legitimately appear inside inversion terms of y's
				// substitution (ry references x), so only check φ1-side
				// comparison asserts that contain no z.
				_ = v
			}
		}
	}
	// Witness still valid in both extremes (checked for the second).
	for _, a := range fused.Script.Asserts() {
		ok, err := eval.Bool(a, fused.Witness)
		if err != nil || !ok {
			t.Fatalf("witness fails at prob≈1 on %s", ast.Print(a))
		}
	}
}

func TestTableAblationSubsets(t *testing.T) {
	if len(DefaultTable) != 11 {
		t.Errorf("DefaultTable rows = %d, want 11 (4 Int + 4 Real + 3 String)", len(DefaultTable))
	}
	if len(AdditiveTable) != 4 || len(MultiplicativeTable) != 4 || len(StringTable) != 3 {
		t.Errorf("ablation tables: add=%d mul=%d str=%d",
			len(AdditiveTable), len(MultiplicativeTable), len(StringTable))
	}
}

func TestFusedScriptParsesBack(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for iter := 0; iter < 50; iter++ {
		fused, err := Fuse(tb, unsatSeed1(t), unsatSeed2(t), rng, Options{MaxPairs: 2})
		if err != nil {
			t.Fatal(err)
		}
		txt := smtlib.Print(fused.Script)
		if _, err := smtlib.ParseScript(txt); err != nil {
			t.Fatalf("fused script does not reparse: %v\n%s", err, txt)
		}
	}
}

// tb is the term table the package's tests build in.
var tb = ast.NewTable(nil)
