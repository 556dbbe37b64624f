package harness

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/bugdb"
	"repro/internal/gen"
	"repro/internal/solver"
)

func TestExperimentFig7(t *testing.T) {
	rows, err := ExperimentFig7(400)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 9 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Proportions mirror the paper: QF_SLIA SAT is the largest corpus,
	// NRA has no SAT seeds.
	byName := map[string]Fig7Row{}
	for _, r := range rows {
		byName[r.Benchmark] = r
	}
	if byName["NRA"].Sat != 0 {
		t.Error("NRA should have no sat seeds (paper Figure 7)")
	}
	if byName["QF_SLIA"].Sat < byName["QF_S"].Sat {
		t.Error("QF_SLIA sat corpus should dominate QF_S")
	}
	out := RenderFig7(rows)
	if !strings.Contains(out, "Total") {
		t.Error("render missing total row")
	}
}

func TestExperimentFig9And10(t *testing.T) {
	rows := ExperimentFig9(bugdb.Z3Sim)
	if len(rows) != 5 || rows[0].Year != 2015 || rows[len(rows)-1].Year != 2019 {
		t.Fatalf("fig9 rows = %+v", rows)
	}
	if rows[len(rows)-1].Count != 63 {
		t.Errorf("2019 = %d want 63", rows[len(rows)-1].Count)
	}
	// Fig10 with a synthetic result: counts must be monotone toward
	// trunk because defects affect suffixes of the release train.
	res := &Result{}
	for _, e := range bugdb.ForSUT(bugdb.Z3Sim) {
		if e.Type == bugdb.Soundness {
			res.Bugs = append(res.Bugs, Bug{Defect: e.ID, Kind: bugdb.Soundness, Logic: gen.Logic(e.Logic)})
		}
	}
	f10 := ExperimentFig10(bugdb.Z3Sim, res)
	prev := -1
	for _, r := range f10 {
		if r.Count < prev {
			t.Errorf("fig10 not monotone: %+v", f10)
		}
		prev = r.Count
	}
	if f10[len(f10)-1].Release != "trunk" || f10[len(f10)-1].Count == 0 {
		t.Errorf("trunk row wrong: %+v", f10[len(f10)-1])
	}
	if f10[0].Count == 0 {
		t.Error("oldest release should be affected by at least one long-latent defect")
	}
}

func TestExperimentFig11CoverageMonotone(t *testing.T) {
	rows, err := ExperimentFig11(CoverageBudget{
		Seeds: 6, Fused: 10, Seed: 3,
		Logics: []gen.Logic{gen.QFNRA, gen.QFS},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		// YinYang coverage can never be below the benchmark arm: the
		// tracker accumulates.
		for _, pair := range [][2]CoverageCell{
			{r.Z3Bench, r.Z3YinYang}, {r.C4Bench, r.C4YinYang},
		} {
			if pair[1].Line < pair[0].Line || pair[1].Function < pair[0].Function || pair[1].Branch < pair[0].Branch {
				t.Errorf("coverage decreased: %+v", r)
			}
		}
	}
	if out := RenderFig11(rows); !strings.Contains(out, "QF_NRA") {
		t.Error("render missing logic")
	}
}

func TestExperimentFig12Ordering(t *testing.T) {
	rows, err := ExperimentFig12(CoverageBudget{
		Seeds: 6, Fused: 12, Seed: 5,
		Logics: []gen.Logic{gen.QFNRA},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.YinYang.Branch < r.Benchmark.Branch {
			t.Errorf("%s: YinYang branch coverage below benchmark", r.SUT)
		}
		if r.ConcatFuzz.Branch < r.Benchmark.Branch {
			t.Errorf("%s: ConcatFuzz branch coverage below benchmark", r.SUT)
		}
	}
	if out := RenderFig12(rows); !strings.Contains(out, "YinYang") {
		t.Error("render incomplete")
	}
}

func TestStatusAndTypeTabulation(t *testing.T) {
	res := &Result{
		Bugs: []Bug{
			{Defect: "rw-str-to-int-empty", Kind: bugdb.Soundness, Logic: gen.QFS},
			{Defect: "cr-self-division", Kind: bugdb.Crash, Logic: gen.QFNRA},
		},
		Tally: Tally{Duplicates: 3},
	}
	st := StatusOf(res)
	if st.Confirmed != 2 || st.Duplicate != 3 || st.Reported != 5 {
		t.Errorf("status = %+v", st)
	}
	ty := TypesOf(res)
	if ty[bugdb.Soundness] != 1 || ty[bugdb.Crash] != 1 {
		t.Errorf("types = %+v", ty)
	}
	lg := LogicsOf(res)
	if lg["QF_S"] != 1 || lg["QF_NRA"] != 1 {
		t.Errorf("logics = %+v", lg)
	}
}

func TestExperimentRQ4Empty(t *testing.T) {
	out, err := ExperimentRQ4(bugdb.Z3Sim, nil, 3, 1)
	if err != nil || out.Bugs != 0 || out.Retriggered != 0 {
		t.Errorf("rq4 empty: %+v %v", out, err)
	}
}

// TestBugKindIsCatalogueType pins the type rule of Figures 8b and 10:
// a bug files under its defect's catalogue type, whatever misbehaviour
// first showed it. This campaign first catches the rw-div-mul-through
// soundness defect through the model-validation oracle; the symptom
// stays what was observed, and the witness reproduces it.
func TestBugKindIsCatalogueType(t *testing.T) {
	res, err := runCampaign(CampaignConfig{SUT: string(bugdb.Z3Sim),
		Logics: []string{string(gen.QFLRA)}, Iterations: 40, SeedPool: 6, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, ok := res.BugByDefect("rw-div-mul-through")
	if !ok {
		t.Fatalf("campaign filed no rw-div-mul-through bug: %+v", res.Bugs)
	}
	if b.Symptom != bugdb.InvalidModel {
		t.Errorf("rw-div-mul-through symptom %s, want %s", b.Symptom, bugdb.InvalidModel)
	}
	for _, b := range res.Bugs {
		e, _ := bugdb.Find(b.Defect)
		if b.Kind != e.Type {
			t.Errorf("bug %s filed as %s, catalogued as %s", b.Defect, b.Kind, e.Type)
		}
	}
	run := RunSolver(bugdb.NewTrunkSolver(bugdb.Z3Sim, nil), b.Script)
	if !b.ReproducedBy(run, b.Script, b.Oracle) {
		t.Errorf("witness does not reproduce its %s symptom: %v", b.Symptom, run.Result)
	}
}

// TestReproducedByNeedsDefiniteOracle pins the reducers' soundness
// rule: a shrink shows a soundness bug only while the reference decides
// the opposite verdict. A reference that runs out of fuel decides
// nothing, so the same witness checked against it must be rejected —
// a timeout is not the reference disagreeing.
func TestReproducedByNeedsDefiniteOracle(t *testing.T) {
	res, err := runCampaign(CampaignConfig{SUT: string(bugdb.Z3Sim),
		Logics: []string{string(gen.QFLRA)}, Iterations: 40, SeedPool: 6, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	b, ok := res.BugByDefect("rw-div-mul-through")
	if !ok || b.Kind != bugdb.Soundness {
		t.Fatalf("campaign recorded no rw-div-mul-through soundness bug: %+v", res.Bugs)
	}
	run := RunSolver(bugdb.NewTrunkSolver(bugdb.Z3Sim, nil), b.Script)
	full := solver.NewReference().SolveScript(b.Script).Result
	if !b.ReproducedBy(run, b.Script, OracleOf(full)) {
		t.Fatalf("witness not reproduced: SUT %v, reference %v", run.Result, full)
	}
	starved := solver.New(solver.Config{Fuel: 1}).SolveScript(b.Script).Result
	if starved != solver.ResTimeout {
		t.Fatalf("reference with fuel 1 answered %v, want timeout", starved)
	}
	if b.ReproducedBy(run, b.Script, OracleOf(starved)) {
		t.Fatal("a reference timeout confirmed the soundness witness")
	}
	// The campaign's own oracle rule agrees: the constructed status
	// stands for the reference verdict.
	if !b.ReproducedBy(run, b.Script, b.Oracle) {
		t.Fatalf("witness not reproduced against its constructed oracle %v", b.Oracle)
	}
}

// TestRenderFig8ColumnsLineUp checks that every line of the Figure 8
// tables, headers included, ends its three count columns at the same
// offsets, with an invalid-model bug and a long logic name in the mix.
func TestRenderFig8ColumnsLineUp(t *testing.T) {
	z3 := &Result{Bugs: []Bug{
		{Defect: solver.DefMulSignFold, Kind: bugdb.Soundness, Logic: gen.Logic("QF_NRA")},
		{Defect: solver.DefModelStrLenTruncate, Kind: bugdb.InvalidModel, Logic: gen.Logic("StringFuzz")},
	}}
	cvc4 := &Result{Tally: Tally{Duplicates: 1234}, Bugs: []Bug{
		{Defect: solver.DefPerfRegexBlowup, Kind: bugdb.Performance, Logic: gen.Logic("QF_S")},
	}}
	out := RenderFig8(&Fig8{Z3: z3, CVC4: cvc4})
	var want []int
	for _, line := range strings.Split(strings.TrimSuffix(out, "\n"), "\n") {
		var ends []int
		for i := range line {
			if line[i] != ' ' && (i+1 == len(line) || line[i+1] == ' ') {
				ends = append(ends, i+1)
			}
		}
		if len(ends) < 4 {
			t.Fatalf("line %q has fewer than a label and three columns", line)
		}
		ends = ends[len(ends)-3:]
		if want == nil {
			want = ends
		}
		if !slices.Equal(ends, want) {
			t.Errorf("columns of %q end at %v, want %v:\n%s", line, ends, want, out)
		}
	}
}
