package analysis

import (
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/smtlib"
)

func mustParse(t *testing.T, src string) *smtlib.Script {
	t.Helper()
	s, err := smtlib.ParseScript(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return s
}

func diagnosticsOf(t *testing.T, s *smtlib.Script, meta *FusionMeta, pass string) []Diagnostic {
	t.Helper()
	p, ok := Lookup(pass)
	if !ok {
		t.Fatalf("pass %q not registered", pass)
	}
	return p.Analyze(s, meta)
}

func wantFinding(t *testing.T, diags []Diagnostic, sev Severity, substr string) {
	t.Helper()
	for _, d := range diags {
		if d.Severity == sev && strings.Contains(d.Message, substr) {
			return
		}
	}
	t.Fatalf("no %v diagnostic containing %q in %v", sev, substr, diags)
}

// --- seeded negative: a deliberately ill-sorted term ---

func TestWellSortedCatchesIllSortedTerm(t *testing.T) {
	x := tb.Var("x", ast.SortInt)
	// (+ x true) forged with a claimed Int sort.
	bad := tb.UncheckedApp(ast.OpAdd, ast.SortInt, x, ast.True)
	s := smtlib.NewScript("QF_LIA",
		[]*smtlib.DeclareFun{{Name: "x", Sort: ast.SortInt}},
		[]ast.Term{tb.UncheckedApp(ast.OpGt, ast.SortBool, bad, tb.Int(0))})
	diags := diagnosticsOf(t, s, nil, "wellsorted")
	wantFinding(t, diags, SeverityError, "ill-sorted application")
}

func TestWellSortedCatchesStoredSortMismatch(t *testing.T) {
	// (+ 1 2) forged with a claimed Bool sort: the typing rule accepts
	// the arguments but derives Int.
	forged := tb.UncheckedApp(ast.OpAdd, ast.SortBool, tb.Int(1), tb.Int(2))
	s := smtlib.NewScript("QF_LIA", nil, []ast.Term{forged})
	diags := diagnosticsOf(t, s, nil, "wellsorted")
	wantFinding(t, diags, SeverityError, "typing rule derives")
}

// TestWellSortedCatchesNestedImportedForgery: wellsorted re-types only
// forged nodes, so a forgery must stay visible when NewApp-built nodes
// wrap it (their sorts are consistent with its forged sort) and when
// the script's terms are imported into another table.
func TestWellSortedCatchesNestedImportedForgery(t *testing.T) {
	src := ast.NewTable(nil)
	x := src.Var("x", ast.SortInt)
	forged := src.UncheckedApp(ast.OpAdd, ast.SortReal, x, src.Int(1)) // derives Int
	nested := src.And(src.Gt(forged, src.Real(0, 1)), src.Le(x, src.Int(3)))
	dst := ast.NewTable(nil)
	dst.Var("x", ast.SortInt) // x is dst's own, so Import rebuilds the forgery
	s := smtlib.NewScript("QF_LRA",
		[]*smtlib.DeclareFun{{Name: "x", Sort: ast.SortInt}},
		[]ast.Term{dst.Import(nested)})
	diags := diagnosticsOf(t, s, nil, "wellsorted")
	if len(diags) != 1 || diags[0].Path != "assert[0].arg[0].arg[0]" ||
		diags[0].Message != "(+ ...) carries sort Real, typing rule derives Int" {
		t.Fatalf("diagnostics %v, want the forgery at assert[0].arg[0].arg[0]", diags)
	}
	if _, ok := Gate(s, nil).(*GateError); !ok {
		t.Fatal("gate accepted the imported forgery")
	}
}

func TestWellSortedCatchesUndeclaredAndMismatchedVars(t *testing.T) {
	ghost := tb.Var("ghost", ast.SortInt)
	s := smtlib.NewScript("QF_LIA",
		[]*smtlib.DeclareFun{{Name: "x", Sort: ast.SortReal}},
		[]ast.Term{
			tb.Gt(ghost, tb.Int(0)),
			tb.Gt(tb.Var("x", ast.SortInt), tb.Int(0)), // declared Real, used Int
		})
	diags := diagnosticsOf(t, s, nil, "wellsorted")
	wantFinding(t, diags, SeverityError, `undeclared variable "ghost"`)
	wantFinding(t, diags, SeverityError, "declared as Real")
}

func TestWellSortedCatchesDuplicateDeclarations(t *testing.T) {
	s := smtlib.NewScript("QF_LIA",
		[]*smtlib.DeclareFun{
			{Name: "x", Sort: ast.SortInt},
			{Name: "x", Sort: ast.SortReal},
		}, nil)
	diags := diagnosticsOf(t, s, nil, "wellsorted")
	wantFinding(t, diags, SeverityError, "conflicting declarations")
}

func TestWellSortedAcceptsValidScript(t *testing.T) {
	s := mustParse(t, `
(set-logic QF_SLIA)
(declare-fun a () String)
(declare-fun n () Int)
(assert (= (str.len a) n))
(assert (forall ((h Int)) (>= h h)))
(check-sat)
`)
	if diags := diagnosticsOf(t, s, nil, "wellsorted"); len(diags) != 0 {
		t.Fatalf("unexpected diagnostics: %v", diags)
	}
}

// --- seeded negative: a nonlinear atom under a QF_LIA declaration ---

func TestLogicCatchesNonlinearUnderLinearLogic(t *testing.T) {
	s := mustParse(t, `
(set-logic QF_LIA)
(declare-fun x () Int)
(declare-fun y () Int)
(assert (> (* x y) 0))
(check-sat)
`)
	diags := diagnosticsOf(t, s, nil, "logic")
	wantFinding(t, diags, SeverityWarning, "nonlinear term under linear logic QF_LIA")
}

func TestLogicCatchesQuantifierUnderQF(t *testing.T) {
	s := mustParse(t, `
(set-logic QF_LIA)
(declare-fun x () Int)
(assert (exists ((h Int)) (> h x)))
(check-sat)
`)
	diags := diagnosticsOf(t, s, nil, "logic")
	wantFinding(t, diags, SeverityWarning, "quantifier under quantifier-free logic")
}

func TestLogicCatchesTheoryEscape(t *testing.T) {
	s := mustParse(t, `
(set-logic QF_LIA)
(declare-fun s () String)
(assert (= s "q"))
(check-sat)
`)
	diags := diagnosticsOf(t, s, nil, "logic")
	wantFinding(t, diags, SeverityWarning, "String terms outside logic QF_LIA")
}

func TestLogicAcceptsConformingScripts(t *testing.T) {
	for _, src := range []string{
		`(set-logic QF_NIA)
(declare-fun x () Int)
(assert (> (* x x) 0))
(check-sat)`,
		`(set-logic LIA)
(declare-fun x () Int)
(assert (forall ((h Int)) (>= h h)))
(check-sat)`,
		`(set-logic QF_S)
(declare-fun a () String)
(assert (= (str.len a) 2))
(check-sat)`,
	} {
		s := mustParse(t, src)
		if diags := Filter(diagnosticsOf(t, s, nil, "logic"), SeverityWarning); len(diags) != 0 {
			t.Fatalf("unexpected diagnostics for %s: %v", src, diags)
		}
	}
}

func TestParseLogicNameLattice(t *testing.T) {
	qfnia, ok := ParseLogicName("QF_NIA")
	if !ok || !qfnia.Nonlinear || !qfnia.Ints || qfnia.Quantified || qfnia.Reals {
		t.Fatalf("QF_NIA = %+v ok=%v", qfnia, ok)
	}
	lia, _ := ParseLogicName("LIA")
	qflia, _ := ParseLogicName("QF_LIA")
	if !lia.Covers(qflia) || qflia.Covers(lia) {
		t.Fatal("LIA must strictly cover QF_LIA")
	}
	slia, _ := ParseLogicName("QF_SLIA")
	qfs, _ := ParseLogicName("QF_S")
	if !slia.Covers(qfs) {
		t.Fatal("QF_SLIA must cover QF_S")
	}
	if _, ok := ParseLogicName("StringFuzz"); ok {
		t.Fatal("non-standard names must not parse")
	}
}

// --- seeded negative: an unguarded division fusion constraint ---

func TestDivGuardCatchesUnguardedFusionConstraint(t *testing.T) {
	// x = (x*y) div y without a y ≠ 0 guard: the exact shape from the
	// paper's fusion table.
	s := mustParse(t, `
(set-logic QF_NIA)
(declare-fun x () Int)
(declare-fun y () Int)
(declare-fun z () Int)
(assert (= z (* x y)))
(assert (= x (div z y)))
(check-sat)
`)
	diags := diagnosticsOf(t, s, nil, "divguard")
	wantFinding(t, diags, SeverityWarning, "possibly-zero divisor y")
}

func TestDivGuardAcceptsGuardedForms(t *testing.T) {
	for _, src := range []string{
		// Sibling top-level guard.
		`(set-logic QF_NIA)
(declare-fun x () Int)
(declare-fun y () Int)
(assert (distinct y 0))
(assert (= x (div (* x y) y)))
(check-sat)`,
		// Guard folded into the same conjunction.
		`(set-logic QF_NIA)
(declare-fun x () Int)
(declare-fun y () Int)
(assert (and (= x (div (* x y) y)) (not (= y 0))))
(check-sat)`,
		// Comparison guard.
		`(set-logic QF_NRA)
(declare-fun w () Real)
(declare-fun v () Real)
(assert (> v 0.0))
(assert (< (/ w v) 0.0))
(check-sat)`,
		// ite guard: then-branch sees the condition.
		`(set-logic QF_NIA)
(declare-fun a () Int)
(declare-fun b () Int)
(assert (> (ite (distinct b 0) (div a b) a) 0))
(check-sat)`,
		// Constant divisor needs no guard.
		`(set-logic QF_LIA)
(declare-fun a () Int)
(assert (= (div a 3) 1))
(check-sat)`,
	} {
		s := mustParse(t, src)
		if diags := diagnosticsOf(t, s, nil, "divguard"); len(diags) != 0 {
			t.Fatalf("unexpected diagnostics for:\n%s\n%v", src, diags)
		}
	}
}

func TestDivGuardScopesDisjunctsAndElseBranches(t *testing.T) {
	// A guard inside one disjunct must not leak into the other.
	s := mustParse(t, `
(set-logic QF_NIA)
(declare-fun a () Int)
(declare-fun b () Int)
(assert (or (and (distinct b 0) (> (div a b) 0)) (> (div a b) 1)))
(check-sat)
`)
	diags := diagnosticsOf(t, s, nil, "divguard")
	if len(diags) != 1 {
		t.Fatalf("want exactly the unguarded disjunct flagged, got %v", diags)
	}
	// The else-branch of (ite (= b 0) _ _) knows b ≠ 0.
	s = mustParse(t, `
(set-logic QF_NIA)
(declare-fun a () Int)
(declare-fun b () Int)
(assert (> (ite (= b 0) a (div a b)) 0))
(check-sat)
`)
	if diags := diagnosticsOf(t, s, nil, "divguard"); len(diags) != 0 {
		t.Fatalf("else-branch guard not recognized: %v", diags)
	}
	// An outer guard on x says nothing about a quantifier's own x.
	s = mustParse(t, `
(set-logic LIA)
(declare-fun x () Int)
(assert (distinct x 0))
(assert (forall ((x Int)) (> (div 1 x) (- 1))))
(check-sat)
`)
	diags = diagnosticsOf(t, s, nil, "divguard")
	if len(diags) != 1 || diags[0].Path != "assert[1].body.arg[0].arg[1]" {
		t.Fatalf("want the rebound divisor flagged, got %v", diags)
	}
	// Control: a guard on a name the quantifier does not bind still
	// reaches its body.
	s = mustParse(t, `
(set-logic LIA)
(declare-fun x () Int)
(assert (distinct x 0))
(assert (forall ((y Int)) (> (div y x) (- 1))))
(check-sat)
`)
	if diags := diagnosticsOf(t, s, nil, "divguard"); len(diags) != 0 {
		t.Fatalf("guard on a free name lost under a quantifier: %v", diags)
	}
}

// --- seeded negative: a non-disjoint variable renaming ---

func TestFusionCatchesNonDisjointRenaming(t *testing.T) {
	s := mustParse(t, `
(set-logic QF_LIA)
(declare-fun x () Int)
(declare-fun y () Int)
(assert (> x 0))
(assert (< y 0))
(check-sat)
`)
	meta := &FusionMeta{
		Mode:      "sat-conjunction",
		Seed1Vars: []string{"x", "y"},
		Seed2Vars: []string{"y"}, // renaming failed to separate y
	}
	diags := diagnosticsOf(t, s, meta, "fusion")
	wantFinding(t, diags, SeverityError, "not disjoint")
}

func TestFusionCatchesMissingConstraints(t *testing.T) {
	s := mustParse(t, `
(set-logic QF_LIA)
(declare-fun x () Int)
(declare-fun y () Int)
(declare-fun z () Int)
(assert (or (> x 0) (< y 0)))
(assert (= z (+ x y)))
(assert (= x (- z y)))
(check-sat)
`)
	meta := &FusionMeta{
		Mode:            "unsat-disjunction",
		Seed1Vars:       []string{"x"},
		Seed2Vars:       []string{"y"},
		Triplets:        []FusionTriplet{{Z: "z", X: "x", Y: "y", Sort: ast.SortInt}},
		WantConstraints: true,
	}
	diags := diagnosticsOf(t, s, meta, "fusion")
	wantFinding(t, diags, SeverityError, "missing fusion constraint (= y ...)")
}

func TestFusionCatchesUndeclaredAndMissortedTripletVars(t *testing.T) {
	s := mustParse(t, `
(set-logic QF_LIA)
(declare-fun x () Int)
(declare-fun z () Real)
(assert (> x 0))
(check-sat)
`)
	meta := &FusionMeta{
		Mode:      "sat-conjunction",
		Seed1Vars: []string{"x"},
		Seed2Vars: []string{"y"},
		Triplets:  []FusionTriplet{{Z: "z", X: "x", Y: "y", Sort: ast.SortInt}},
	}
	diags := diagnosticsOf(t, s, meta, "fusion")
	wantFinding(t, diags, SeverityError, `y variable "y" is not declared`)
	wantFinding(t, diags, SeverityError, `z variable "z" declared Real`)
}

func TestFusionAcceptsValidMeta(t *testing.T) {
	s := mustParse(t, `
(set-logic QF_LIA)
(declare-fun x () Int)
(declare-fun y () Int)
(declare-fun z () Int)
(assert (or (> x 0) (< y 0)))
(assert (= z (+ x y)))
(assert (= x (- z y)))
(assert (and (= y (- z x)) (distinct x 0)))
(check-sat)
`)
	meta := &FusionMeta{
		Mode:            "unsat-disjunction",
		Seed1Vars:       []string{"x"},
		Seed2Vars:       []string{"y"},
		Triplets:        []FusionTriplet{{Z: "z", X: "x", Y: "y", Sort: ast.SortInt}},
		WantConstraints: true,
	}
	if diags := diagnosticsOf(t, s, meta, "fusion"); len(diags) != 0 {
		t.Fatalf("unexpected diagnostics: %v", diags)
	}
}

// --- trivial-constant detection ---

func TestTrivialNotesConstantAsserts(t *testing.T) {
	x := tb.Var("x", ast.SortInt)
	s := smtlib.NewScript("QF_LIA",
		[]*smtlib.DeclareFun{{Name: "x", Sort: ast.SortInt}},
		[]ast.Term{
			ast.True,
			tb.Eq(tb.Int(3), tb.Int(3)),
			tb.Lt(tb.Int(1), tb.Int(2)),
			tb.Lt(x, x),
			tb.Gt(x, tb.Int(0)),
		})
	diags := diagnosticsOf(t, s, nil, "trivial")
	wantFinding(t, diags, SeverityInfo, "assert of the constant true")
	wantFinding(t, diags, SeverityInfo, "(= t t) is trivially true")
	wantFinding(t, diags, SeverityInfo, "constant atom")
	wantFinding(t, diags, SeverityInfo, "(< t t) is trivially false")
	if len(diags) != 4 {
		t.Fatalf("want exactly 4 notes, got %v", diags)
	}
	if got, _ := MaxSeverity(diags); got != SeverityInfo {
		t.Fatalf("trivial findings must stay info-level, got %v", got)
	}
}

// --- framework ---

func TestAnalyzeScriptOrdersAndFilters(t *testing.T) {
	forged := tb.UncheckedApp(ast.OpAdd, ast.SortBool, tb.Int(1), tb.Int(2))
	s := smtlib.NewScript("QF_LIA", nil, []ast.Term{forged, ast.True})
	diags := AnalyzeScript(s, nil)
	if len(diags) == 0 || diags[0].Severity != SeverityError {
		t.Fatalf("errors must sort first: %v", diags)
	}
	warnsUp := Filter(diags, SeverityWarning)
	for _, d := range warnsUp {
		if d.Severity < SeverityWarning {
			t.Fatalf("filter leaked %v", d)
		}
	}
	if len(Filter(diags, SeverityInfo)) != len(diags) {
		t.Fatal("info filter must keep everything")
	}
}

func TestGateReturnsTypedError(t *testing.T) {
	forged := tb.UncheckedApp(ast.OpAdd, ast.SortBool, tb.Int(1), tb.Int(2))
	s := smtlib.NewScript("QF_LIA", nil, []ast.Term{forged})
	err := Gate(s, nil)
	ge, ok := err.(*GateError)
	if !ok || len(ge.Diagnostics) == 0 {
		t.Fatalf("err = %v", err)
	}
	// Warnings must not trip the gate.
	nl := mustParse(t, `
(set-logic QF_LIA)
(declare-fun x () Int)
(assert (> (* x x) 0))
(check-sat)
`)
	if err := Gate(nl, nil); err != nil {
		t.Fatalf("gate must ignore warnings: %v", err)
	}
}

func TestRegistryLookup(t *testing.T) {
	names := []string{"wellsorted", "fusion", "logic", "divguard", "trivial"}
	got := Passes()
	if len(got) != len(names) {
		t.Fatalf("passes = %d, want %d", len(got), len(names))
	}
	for i, n := range names {
		if got[i].Name() != n {
			t.Fatalf("pass %d = %q, want %q", i, got[i].Name(), n)
		}
		if p, ok := Lookup(n); !ok || p.Name() != n {
			t.Fatalf("Lookup(%q) = %v, %v", n, p, ok)
		}
	}
	if _, ok := Lookup("absent"); ok {
		t.Fatal("Lookup of an unknown name must fail")
	}
	// Passes hands out a copy: callers cannot reorder the run order.
	got[0] = got[1]
	if Passes()[0].Name() != names[0] {
		t.Fatal("Passes must return a copy")
	}
}

// tb is the term table the package's tests build in.
var tb = ast.NewTable(nil)
