package harness

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"repro/internal/bugdb"
	"repro/internal/core"
	"repro/internal/coverage"
	"repro/internal/gen"
	"repro/internal/solver"
)

// This file regenerates every table and figure of the paper's
// evaluation section. Each ExperimentX function returns structured
// data; the RenderX helpers print rows shaped like the paper's.

// ---------------------------------------------------------------------
// Figure 7 — seed-formula counts per benchmark.

// Fig7Row is one benchmark row of Figure 7.
type Fig7Row struct {
	Benchmark string
	Unsat     int
	Sat       int
}

// fig7Scale holds the paper's counts divided by a fixed factor so the
// generated corpora have the same per-logic proportions.
var fig7PaperCounts = []struct {
	logic      gen.Logic
	unsat, sat int
}{
	{gen.LIA, 203, 139},
	{gen.LRA, 1316, 714},
	{gen.NRA, 3798, 0},
	{gen.QFLIA, 1191, 1318},
	{gen.QFLRA, 384, 522},
	{gen.QFNRA, 4660, 4751},
	{gen.QFSLIA, 5492, 22657},
	{gen.QFS, 6390, 12561},
	{gen.StringFuzz, 4903, 4098},
}

// ExperimentFig7 generates the scaled seed corpora and returns the
// counts (validating that every seed generates).
func ExperimentFig7(scale int) ([]Fig7Row, error) {
	if scale <= 0 {
		scale = 100
	}
	var rows []Fig7Row
	for _, c := range fig7PaperCounts {
		g, err := gen.New(c.logic, logicSeed(1234, c.logic))
		if err != nil {
			return nil, err
		}
		nUnsat := c.unsat / scale
		nSat := c.sat / scale
		for i := 0; i < nUnsat; i++ {
			if g.Unsat() == nil {
				return nil, fmt.Errorf("fig7: %s unsat generation failed", c.logic)
			}
		}
		for i := 0; i < nSat; i++ {
			if g.Sat() == nil {
				return nil, fmt.Errorf("fig7: %s sat generation failed", c.logic)
			}
		}
		rows = append(rows, Fig7Row{Benchmark: string(c.logic), Unsat: nUnsat, Sat: nSat})
	}
	return rows, nil
}

// ---------------------------------------------------------------------
// Figure 8 — bug counts from the main campaign.

// Fig8 aggregates the campaign findings the way Figures 8a–8c do.
type Fig8 struct {
	Z3   *Result
	CVC4 *Result
}

// CampaignBudget scales the main campaign.
type CampaignBudget struct {
	Iterations int
	SeedPool   int
	Seed       int64
	Threads    int
}

// ExperimentFig8 runs the main campaign against both trunk SUTs.
func ExperimentFig8(b CampaignBudget) (*Fig8, error) {
	if b.Iterations == 0 {
		b.Iterations = 250
	}
	if b.SeedPool == 0 {
		b.SeedPool = 20
	}
	z3, err := b.run(CampaignConfig{SUT: string(bugdb.Z3Sim), Seed: b.Seed + 1})
	if err != nil {
		return nil, err
	}
	cvc4, err := b.run(CampaignConfig{SUT: string(bugdb.CVC4Sim), Seed: b.Seed + 2})
	if err != nil {
		return nil, err
	}
	return &Fig8{Z3: z3, CVC4: cvc4}, nil
}

// run runs cc to completion at the budget's iterations, seed pool, and
// thread count.
func (b CampaignBudget) run(cc CampaignConfig) (*Result, error) {
	cc.Iterations, cc.SeedPool, cc.Threads = b.Iterations, b.SeedPool, b.Threads
	out, err := Start(cc, RunOptions{})
	if err != nil {
		return nil, err
	}
	return out.Result, nil
}

// StatusCounts is a Figure 8a row set for one SUT.
type StatusCounts struct {
	Reported, Confirmed, Fixed, Duplicate, WontFix int
}

// StatusOf maps a campaign result to the paper's report-status
// categories: every deduplicated finding is a confirmed report, extra
// triggers are duplicates, and fix status comes from the catalogue
// (defects carried to trunk unfixed are "confirmed, not yet fixed").
func StatusOf(r *Result) StatusCounts {
	out := StatusCounts{
		Confirmed: len(r.Bugs),
		Duplicate: r.Duplicates,
	}
	for _, b := range r.Bugs {
		if e, ok := bugdb.Find(b.Defect); ok && e.Label != "wontfix" {
			out.Fixed++
		}
	}
	out.Reported = out.Confirmed + out.Duplicate
	return out
}

// TypeCounts is a Figure 8b row set.
type TypeCounts map[bugdb.BugType]int

// TypesOf tabulates confirmed bugs by type.
func TypesOf(r *Result) TypeCounts {
	out := TypeCounts{}
	for _, b := range r.Bugs {
		out[b.Kind]++
	}
	return out
}

// LogicCounts is a Figure 8c row set, keyed by the catalogue's logic
// tags.
type LogicCounts map[string]int

// LogicsOf tabulates confirmed bugs by the logic the fused formula was
// generated in.
func LogicsOf(r *Result) LogicCounts {
	out := LogicCounts{}
	for _, b := range r.Bugs {
		out[string(b.Logic)]++
	}
	return out
}

// ---------------------------------------------------------------------
// Figure 9 — historic soundness bugs per year (survey data) plus the
// fraction found by the campaign.

// Fig9Row is one year bar.
type Fig9Row struct {
	Year  int
	Count int
}

// ExperimentFig9 returns the survey bars for one SUT.
func ExperimentFig9(s bugdb.SUT) []Fig9Row {
	var rows []Fig9Row
	for year, n := range bugdb.HistoricSoundnessPerYear[s] {
		rows = append(rows, Fig9Row{Year: year, Count: n})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Year < rows[j].Year })
	return rows
}

// ---------------------------------------------------------------------
// Figure 10 — found soundness bugs affecting each release.

// Fig10Row is one release bar.
type Fig10Row struct {
	Release string
	Count   int
}

// ExperimentFig10 counts, per release, the campaign-found soundness
// defects that affect it.
func ExperimentFig10(s bugdb.SUT, r *Result) []Fig10Row {
	var rows []Fig10Row
	for _, rel := range bugdb.Releases(s) {
		n := 0
		for _, b := range r.Bugs {
			if b.Kind != bugdb.Soundness {
				continue
			}
			if e, ok := bugdb.Find(b.Defect); ok && e.SUT == s && bugdb.Affects(b.Defect, rel) {
				n++
			}
		}
		rows = append(rows, Fig10Row{Release: rel, Count: n})
	}
	return rows
}

// ---------------------------------------------------------------------
// Figures 11 and 12 — coverage experiments.

// CoverageCell is one l/f/b triple.
type CoverageCell struct {
	Line, Function, Branch float64
}

func cellOf(rep coverage.Report) CoverageCell {
	return CoverageCell{
		Line:     rep.Lines().Percent(),
		Function: rep.Functions().Percent(),
		Branch:   rep.Branches().Percent(),
	}
}

// Fig11Row is one (logic, status) row: Benchmark vs YinYang coverage
// for both SUTs.
type Fig11Row struct {
	Logic     gen.Logic
	Sat       bool
	Z3Bench   CoverageCell
	Z3YinYang CoverageCell
	C4Bench   CoverageCell
	C4YinYang CoverageCell
}

// CoverageBudget scales the coverage experiment.
type CoverageBudget struct {
	Seeds  int // per logic/status corpus size
	Fused  int // fused formulas on top for the YinYang arm
	Seed   int64
	Logics []gen.Logic
}

func (b CoverageBudget) withDefaults() CoverageBudget {
	if b.Seeds == 0 {
		b.Seeds = 20
	}
	if b.Fused == 0 {
		b.Fused = 40
	}
	if len(b.Logics) == 0 {
		b.Logics = gen.AllLogics
	}
	return b
}

// ExperimentFig11 measures Benchmark (seeds only) vs YinYang (seeds
// then fused formulas) probe coverage per logic and status.
func ExperimentFig11(b CoverageBudget) ([]Fig11Row, error) {
	b = b.withDefaults()
	var rows []Fig11Row
	for _, logic := range b.Logics {
		for _, satStatus := range []bool{true, false} {
			row := Fig11Row{Logic: logic, Sat: satStatus}
			for i, sutName := range bugdb.SUTs {
				bench, yy, err := coverageArms(sutName, logic, satStatus, b, false)
				if err != nil {
					return nil, err
				}
				if i == 0 {
					row.Z3Bench, row.Z3YinYang = bench, yy
				} else {
					row.C4Bench, row.C4YinYang = bench, yy
				}
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// coverageArms runs the seed corpus and then the fusion (or concat)
// round on instrumented SUTs, returning (benchmark, second-arm) cells.
func coverageArms(sutName bugdb.SUT, logic gen.Logic, satStatus bool, b CoverageBudget, concat bool) (CoverageCell, CoverageCell, error) {
	status := core.StatusUnsat
	if satStatus {
		status = core.StatusSat
	}
	tracker := coverage.NewTracker()
	sut, err := bugdb.NewSolver(sutName, "trunk", tracker)
	if err != nil {
		return CoverageCell{}, CoverageCell{}, err
	}
	g, err := gen.New(logic, logicSeed(b.Seed, logic))
	if err != nil {
		return CoverageCell{}, CoverageCell{}, err
	}
	var seeds []*core.Seed
	for i := 0; i < b.Seeds; i++ {
		seeds = append(seeds, g.Generate(status))
	}
	for _, s := range seeds {
		RunSolver(sut, s.Script)
	}
	bench := cellOf(tracker.Report())

	rng := rand.New(rand.NewSource(b.Seed + 99))
	for i := 0; i < b.Fused; i++ {
		s1 := seeds[rng.Intn(len(seeds))]
		s2 := seeds[rng.Intn(len(seeds))]
		var fused *core.Fused
		var ferr error
		if concat {
			fused, ferr = core.Concat(s1, s2, rng)
		} else {
			fused, ferr = core.Fuse(s1, s2, rng, core.Options{})
		}
		if ferr != nil {
			continue
		}
		RunSolver(sut, fused.Script)
	}
	return bench, cellOf(tracker.Report()), nil
}

// Fig12Row is the per-SUT average over logics for one arm.
type Fig12Row struct {
	SUT        bugdb.SUT
	Benchmark  CoverageCell
	ConcatFuzz CoverageCell
	YinYang    CoverageCell
}

// ExperimentFig12 compares Benchmark, ConcatFuzz, and YinYang coverage
// averaged over all logics.
func ExperimentFig12(b CoverageBudget) ([]Fig12Row, error) {
	b = b.withDefaults()
	var rows []Fig12Row
	for _, sutName := range bugdb.SUTs {
		var sumBench, sumConcat, sumYY CoverageCell
		n := 0
		for _, logic := range b.Logics {
			for _, satStatus := range []bool{true, false} {
				bench, yy, err := coverageArms(sutName, logic, satStatus, b, false)
				if err != nil {
					return nil, err
				}
				_, concatCell, err := coverageArms(sutName, logic, satStatus, b, true)
				if err != nil {
					return nil, err
				}
				sumBench = addCell(sumBench, bench)
				sumConcat = addCell(sumConcat, concatCell)
				sumYY = addCell(sumYY, yy)
				n++
			}
		}
		rows = append(rows, Fig12Row{
			SUT:        sutName,
			Benchmark:  divCell(sumBench, n),
			ConcatFuzz: divCell(sumConcat, n),
			YinYang:    divCell(sumYY, n),
		})
	}
	return rows, nil
}

func addCell(a, b CoverageCell) CoverageCell {
	return CoverageCell{a.Line + b.Line, a.Function + b.Function, a.Branch + b.Branch}
}

func divCell(a CoverageCell, n int) CoverageCell {
	if n == 0 {
		return a
	}
	f := float64(n)
	return CoverageCell{a.Line / f, a.Function / f, a.Branch / f}
}

// ---------------------------------------------------------------------
// RQ4 — can ConcatFuzz retrigger YinYang's bugs?

// RQ4Result reports the retrigger experiment.
type RQ4Result struct {
	Bugs        int
	Retriggered int
}

// ExperimentRQ4 takes the bugs of a YinYang campaign and replays
// ConcatFuzz on each bug's ancestor seeds, counting how many bugs
// concatenation alone retriggers.
func ExperimentRQ4(s bugdb.SUT, bugs []Bug, attempts int, seed int64) (RQ4Result, error) {
	if attempts == 0 {
		attempts = 10
	}
	sut := bugdb.NewTrunkSolver(s, nil)
	rng := rand.New(rand.NewSource(seed))
	out := RQ4Result{Bugs: len(bugs)}
	for _, b := range bugs {
		hit := false
		for a := 0; a < attempts && !hit; a++ {
			fused, err := core.Concat(b.Ancestors[0], b.Ancestors[1], rng)
			if err != nil {
				continue
			}
			run := RunSolver(sut, fused.Script)
			switch b.Kind {
			case bugdb.Crash:
				hit = run.Crashed && fires(run.DefectsFired, b.Defect)
			case bugdb.Soundness:
				// Only a definite verdict can contradict the oracle;
				// unknown and fuel-exhausted runs carry none.
				wrong := (run.Result == solver.ResSat || run.Result == solver.ResUnsat) &&
					(run.Result == solver.ResSat) != (fused.Oracle == core.StatusSat)
				hit = wrong && fires(run.DefectsFired, b.Defect)
			case bugdb.InvalidModel:
				valid, _ := ValidateModel(fused.Script, run.Model)
				hit = run.Result == solver.ResSat && !valid &&
					fires(run.DefectsFired, b.Defect)
			default:
				hit = (run.Result == solver.ResUnknown || run.Result == solver.ResTimeout) &&
					fires(run.DefectsFired, b.Defect)
			}
		}
		if hit {
			out.Retriggered++
		}
	}
	return out, nil
}

func fires(fired []solver.Defect, d solver.Defect) bool {
	for _, f := range fired {
		if f == d {
			return true
		}
	}
	return false
}

// ---------------------------------------------------------------------
// Ablations (DESIGN.md section 5).

// AblationRow is one configuration's bug yield.
type AblationRow struct {
	Name string
	Bugs int
}

// ExperimentAblationFusionFns compares fusion-function families.
func ExperimentAblationFusionFns(budget CampaignBudget) ([]AblationRow, error) {
	return budget.ablate([]ablation{
		{"additive-only", CampaignConfig{FusionTable: "additive"}},
		{"multiplicative-only", CampaignConfig{FusionTable: "multiplicative"}},
		{"string-only", CampaignConfig{FusionTable: "string"}},
		{"full-table", CampaignConfig{}},
	})
}

// ExperimentAblationSynth compares the hand-written Figure 6 table
// against automatically synthesized fusion functions (the paper's
// future-work item) and the combination of both.
func ExperimentAblationSynth(budget CampaignBudget) ([]AblationRow, error) {
	return budget.ablate([]ablation{
		{"figure6-table", CampaignConfig{}},
		{"synthesized-only", CampaignConfig{FusionTable: "synthesized"}},
		{"figure6+synthesized", CampaignConfig{FusionTable: "figure6+synthesized"}},
	})
}

// ExperimentAblationOccProb compares inversion-replacement
// probabilities.
func ExperimentAblationOccProb(budget CampaignBudget) ([]AblationRow, error) {
	var arms []ablation
	for _, p := range []float64{1e-9, 0.5, 0.999999} {
		arms = append(arms, ablation{fmt.Sprintf("replace-prob=%.1f", p), CampaignConfig{ReplaceProb: p}})
	}
	return budget.ablate(arms)
}

// ablation is one arm of an ablation: a z3sim campaign varying only the
// fusion settings of its config.
type ablation struct {
	name string
	cc   CampaignConfig
}

// ablate runs each arm against trunk z3sim at the budget's seed and
// reports its bug yield.
func (b CampaignBudget) ablate(arms []ablation) ([]AblationRow, error) {
	var rows []AblationRow
	for _, a := range arms {
		a.cc.SUT, a.cc.Seed = string(bugdb.Z3Sim), b.Seed
		res, err := b.run(a.cc)
		if err != nil {
			return nil, err
		}
		rows = append(rows, AblationRow{Name: a.name, Bugs: len(res.Bugs)})
	}
	return rows, nil
}

// ---------------------------------------------------------------------
// Renderers.

// RenderFig7 prints the Figure 7 table.
func RenderFig7(rows []Fig7Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %8s %8s %8s\n", "Benchmark", "#UNSAT", "#SAT", "Total")
	tu, ts := 0, 0
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12s %8d %8d %8d\n", r.Benchmark, r.Unsat, r.Sat, r.Unsat+r.Sat)
		tu += r.Unsat
		ts += r.Sat
	}
	fmt.Fprintf(&b, "%-12s %8d %8d %8d\n", "Total", tu, ts, tu+ts)
	return b.String()
}

// RenderFig8 prints the Figure 8a/8b/8c tables.
func RenderFig8(f *Fig8) string {
	var b strings.Builder
	sa, sc := StatusOf(f.Z3), StatusOf(f.CVC4)
	b.WriteString("(a) Status          z3sim  cvc4sim  Total\n")
	fmt.Fprintf(&b, "    Reported     %6d %8d %6d\n", sa.Reported, sc.Reported, sa.Reported+sc.Reported)
	fmt.Fprintf(&b, "    Confirmed    %6d %8d %6d\n", sa.Confirmed, sc.Confirmed, sa.Confirmed+sc.Confirmed)
	fmt.Fprintf(&b, "    Fixed        %6d %8d %6d\n", sa.Fixed, sc.Fixed, sa.Fixed+sc.Fixed)
	fmt.Fprintf(&b, "    Duplicate    %6d %8d %6d\n", sa.Duplicate, sc.Duplicate, sa.Duplicate+sc.Duplicate)

	ta, tc := TypesOf(f.Z3), TypesOf(f.CVC4)
	b.WriteString("(b) Type            z3sim  cvc4sim  Total\n")
	for _, ty := range []bugdb.BugType{bugdb.Soundness, bugdb.InvalidModel, bugdb.Crash, bugdb.Performance, bugdb.UnknownType} {
		fmt.Fprintf(&b, "    %-12s %6d %8d %6d\n", ty, ta[ty], tc[ty], ta[ty]+tc[ty])
	}

	la, lc := LogicsOf(f.Z3), LogicsOf(f.CVC4)
	b.WriteString("(c) Logic           z3sim  cvc4sim  Total\n")
	logics := map[string]bool{}
	for l := range la {
		logics[l] = true
	}
	for l := range lc {
		logics[l] = true
	}
	var names []string
	for l := range logics {
		names = append(names, l)
	}
	sort.Strings(names)
	for _, l := range names {
		fmt.Fprintf(&b, "    %-12s %6d %8d %6d\n", l, la[l], lc[l], la[l]+lc[l])
	}
	return b.String()
}

// RenderFig9 prints one SUT's Figure 9 bars.
func RenderFig9(s bugdb.SUT, rows []Fig9Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Historic soundness bugs per year (%s):\n", s)
	for _, r := range rows {
		fmt.Fprintf(&b, "  %d: %3d %s\n", r.Year, r.Count, strings.Repeat("#", r.Count))
	}
	return b.String()
}

// RenderFig10 prints one SUT's Figure 10 bars.
func RenderFig10(s bugdb.SUT, rows []Fig10Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Found soundness bugs affecting releases of %s:\n", s)
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-7s %3d %s\n", r.Release, r.Count, strings.Repeat("#", r.Count))
	}
	return b.String()
}

// RenderFig11 prints the coverage table.
func RenderFig11(rows []Fig11Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %-6s | %-23s | %-23s\n", "Logic", "Status", "z3sim l/f/b (B → Y)", "cvc4sim l/f/b (B → Y)")
	for _, r := range rows {
		status := "UNSAT"
		if r.Sat {
			status = "SAT"
		}
		fmt.Fprintf(&b, "%-12s %-6s | %s | %s\n",
			r.Logic, status,
			arrowCell(r.Z3Bench, r.Z3YinYang),
			arrowCell(r.C4Bench, r.C4YinYang))
	}
	return b.String()
}

func arrowCell(a, b CoverageCell) string {
	return fmt.Sprintf("%4.1f/%4.1f/%4.1f→%4.1f/%4.1f/%4.1f",
		a.Line, a.Function, a.Branch, b.Line, b.Function, b.Branch)
}

// RenderFig12 prints the averaged comparison.
func RenderFig12(rows []Fig12Row) string {
	var b strings.Builder
	for _, r := range rows {
		fmt.Fprintf(&b, "%s (line/function/branch %%):\n", r.SUT)
		fmt.Fprintf(&b, "  Benchmark  %5.1f %5.1f %5.1f\n", r.Benchmark.Line, r.Benchmark.Function, r.Benchmark.Branch)
		fmt.Fprintf(&b, "  ConcatFuzz %5.1f %5.1f %5.1f\n", r.ConcatFuzz.Line, r.ConcatFuzz.Function, r.ConcatFuzz.Branch)
		fmt.Fprintf(&b, "  YinYang    %5.1f %5.1f %5.1f\n", r.YinYang.Line, r.YinYang.Function, r.YinYang.Branch)
	}
	return b.String()
}
