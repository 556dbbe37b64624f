package solver_test

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/bugdb"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/smtlib"
	"repro/internal/solver"
	"repro/internal/telemetry"
)

// goldenScript is one named script of the solve golden corpus.
type goldenScript struct {
	name string
	sc   *smtlib.Script
}

// goldenLogics are the arithmetic logics the solve golden covers: the
// nonlinear ones exercise the candidate-model check, interval
// refutation and the sample grid; the linear ones the plain simplex
// and branch-and-bound path.
var goldenLogics = []gen.Logic{gen.NRA, gen.QFNRA, gen.QFNIA, gen.LIA, gen.QFLRA}

// goldenScripts builds the scripts of one logic: twelve generated
// seeds (every third unsat) and the fusions of seed i with seed i+3,
// which share a status.
func goldenScripts(t *testing.T, logic gen.Logic) []goldenScript {
	g, err := gen.New(logic, 53)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(59))
	var seeds []*core.Seed
	var out []goldenScript
	for i := 0; i < 12; i++ {
		st := core.StatusSat
		if i%3 == 2 {
			st = core.StatusUnsat
		}
		s := g.Generate(st)
		seeds = append(seeds, s)
		out = append(out, goldenScript{fmt.Sprintf("%s/seed%02d", logic, i), s.Script})
	}
	for i := 0; i+3 < len(seeds); i++ {
		f, err := core.Fuse(seeds[i], seeds[i+3], rng, core.Options{})
		if err != nil {
			continue
		}
		out = append(out, goldenScript{fmt.Sprintf("%s/fused%02d", logic, i), f.Script})
	}
	return out
}

// goldenSolvers are the configurations the golden runs every script
// under: the reference solver and both trunk SUTs.
var goldenSolvers = []string{"reference", "z3sim", "cvc4sim"}

func newGoldenSolver(t *testing.T, name string, tr *telemetry.Tracker) *solver.Solver {
	cfg := solver.Config{Telemetry: tr}
	if name != "reference" {
		defects, err := bugdb.DefectsIn(bugdb.SUT(name), "trunk")
		if err != nil {
			t.Fatal(err)
		}
		cfg.Defects = defects
	}
	return solver.New(cfg)
}

// goldenCounters are the step counters whose per-solve deltas the
// golden pins.
var goldenCounters = []struct{ key, name string }{
	{"pivots", "yy_simplex_pivots_total"},
	{"bnb", "yy_arith_bnb_nodes_total"},
	{"interval", "yy_arith_interval_steps_total"},
	{"conflicts", "yy_cdcl_conflicts_total"},
	{"decisions", "yy_cdcl_decisions_total"},
	{"restarts", "yy_cdcl_restarts_total"},
}

// solveLine solves one script and renders the verdict, reason, fired
// defects, fuel, counter deltas and printed model. A crash-defect
// panic renders as its site.
func solveLine(t *testing.T, s *solver.Solver, tr *telemetry.Tracker, gs goldenScript) string {
	before := tr.Snapshot().Counters
	var out solver.Outcome
	crash := ""
	func() {
		defer func() {
			if r := recover(); r != nil {
				ce, ok := r.(*solver.CrashError)
				if !ok {
					panic(r)
				}
				crash = string(ce.Site)
			}
		}()
		out = s.SolveScript(gs.sc)
	}()
	after := tr.Snapshot().Counters
	delta := func(name string) int64 { return after[name] - before[name] }
	var b strings.Builder
	if crash != "" {
		fmt.Fprintf(&b, "%s crash=%s", gs.name, crash)
	} else {
		fmt.Fprintf(&b, "%s %s", gs.name, out.Result)
		if out.Reason != "" {
			fmt.Fprintf(&b, " reason=%q", out.Reason)
		}
		fmt.Fprintf(&b, " fired=%v", out.DefectsFired)
		if spent := delta("yy_solve_fuel_spent_total"); spent != out.FuelSpent {
			t.Errorf("%s: fuel counter delta %d, Outcome.FuelSpent %d", gs.name, spent, out.FuelSpent)
		}
	}
	fmt.Fprintf(&b, " fuel=%d", delta("yy_solve_fuel_spent_total"))
	for _, c := range goldenCounters {
		fmt.Fprintf(&b, " %s=%d", c.key, delta(c.name))
	}
	names := make([]string, 0, len(out.Model))
	for v := range out.Model {
		names = append(names, v)
	}
	sort.Strings(names)
	for _, v := range names {
		fmt.Fprintf(&b, " %q=%s", v, out.Model[v])
	}
	return b.String()
}

// solveGoldenLines renders the whole corpus: for each configuration,
// one solver (warm caches included) solves every logic's scripts in
// order.
func solveGoldenLines(t *testing.T) []string {
	var lines []string
	for _, cfg := range goldenSolvers {
		for _, logic := range goldenLogics {
			tr := telemetry.NewTracker()
			s := newGoldenSolver(t, cfg, tr)
			for _, gs := range goldenScripts(t, logic) {
				lines = append(lines, cfg+" "+solveLine(t, s, tr, gs))
			}
		}
	}
	return lines
}

// TestSolveGolden pins Solve on generated and fused arithmetic scripts
// under the reference solver and both trunk SUTs: verdict, reason,
// fired defects, fuel, the pivot, branch-and-bound, interval and CDCL
// counter deltas, and the printed model must equal
// testdata/golden/solve.txt line for line.
func TestSolveGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "golden", "solve.txt"))
	if err != nil {
		t.Fatal(err)
	}
	wantLines := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	got := solveGoldenLines(t)
	if len(got) != len(wantLines) {
		t.Fatalf("corpus has %d solves, golden file %d lines", len(got), len(wantLines))
	}
	for i := range got {
		if got[i] != wantLines[i] {
			t.Errorf("solve %d:\n got %s\nwant %s", i, got[i], wantLines[i])
		}
	}
}
