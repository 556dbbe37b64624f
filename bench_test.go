package yinyang

// Benchmark harness: one benchmark per table/figure of the paper's
// evaluation (see DESIGN.md §3 and EXPERIMENTS.md). The benchmarks
// exercise the same code paths as cmd/experiments with smaller fixed
// budgets so `go test -bench=.` regenerates every experiment's shape.

import (
	"testing"

	"repro/internal/benchmarks"
	"repro/internal/bugdb"
	"repro/internal/gen"
	"repro/internal/harness"
)

// BenchmarkFig7SeedGeneration regenerates the Figure 7 seed corpora
// (scaled), measuring seed-generation throughput.
func BenchmarkFig7SeedGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := harness.ExperimentFig7(400)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 9 {
			b.Fatalf("rows = %d", len(rows))
		}
	}
}

// BenchmarkFig8Campaign runs the (scaled) main bug-finding campaign of
// Figures 8a–8c against both trunk SUTs. The body lives in
// internal/benchmarks so cmd/bench measures the identical workload.
func BenchmarkFig8Campaign(b *testing.B) { benchmarks.Fig8Campaign(b) }

// BenchmarkFig9Survey tabulates the historic survey (Figure 9).
func BenchmarkFig9Survey(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, s := range bugdb.SUTs {
			if rows := harness.ExperimentFig9(s); len(rows) == 0 {
				b.Fatal("empty survey")
			}
		}
	}
}

// BenchmarkFig10Releases maps campaign findings onto release trains
// (Figure 10).
func BenchmarkFig10Releases(b *testing.B) {
	f, err := harness.ExperimentFig8(harness.CampaignBudget{
		Iterations: 40, SeedPool: 10, Seed: 1, Threads: 4,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := harness.ExperimentFig10(bugdb.Z3Sim, f.Z3)
		if len(rows) != len(bugdb.Releases(bugdb.Z3Sim)) {
			b.Fatal("bad row count")
		}
	}
}

// BenchmarkFig11Coverage measures Benchmark-vs-YinYang probe coverage
// (Figure 11) on two representative logics.
func BenchmarkFig11Coverage(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := harness.ExperimentFig11(harness.CoverageBudget{
			Seeds: 8, Fused: 15, Seed: int64(i + 1),
			Logics: []gen.Logic{gen.QFNRA, gen.QFS},
		})
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 4 {
			b.Fatalf("rows = %d", len(rows))
		}
	}
}

// BenchmarkFig12CoverageArms adds the ConcatFuzz arm (Figure 12).
func BenchmarkFig12CoverageArms(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := harness.ExperimentFig12(harness.CoverageBudget{
			Seeds: 6, Fused: 10, Seed: int64(i + 1),
			Logics: []gen.Logic{gen.QFS},
		})
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 2 {
			b.Fatalf("rows = %d", len(rows))
		}
	}
}

// BenchmarkRQ4Retrigger replays ConcatFuzz on YinYang bug ancestors.
func BenchmarkRQ4Retrigger(b *testing.B) {
	out, err := harness.Start(harness.CampaignConfig{
		SUT: string(bugdb.Z3Sim), Iterations: 40, SeedPool: 10, Seed: 7, Threads: 4,
	}, harness.RunOptions{})
	if err != nil {
		b.Fatal(err)
	}
	res := out.Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := harness.ExperimentRQ4(bugdb.Z3Sim, res.Bugs, 5, int64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		if out.Retriggered > out.Bugs {
			b.Fatal("impossible retrigger count")
		}
	}
}

// BenchmarkThroughputSingleThreaded measures end-to-end fused tests per
// second in single-threaded mode — the paper reports 41.5 tests/s.
// ns/op here is the cost of ONE fused test (generate pair + fuse +
// solve), so tests/s = 1e9 / (ns/op).
func BenchmarkThroughputSingleThreaded(b *testing.B) { benchmarks.ThroughputSingleThreaded(b) }

// BenchmarkThroughputInstrumented is the same workload with telemetry
// counters armed; the delta to the plain benchmark is the
// instrumentation overhead cmd/bench gates.
func BenchmarkThroughputInstrumented(b *testing.B) { benchmarks.ThroughputInstrumented(b) }

// BenchmarkFusionOnly isolates the fusion engine's cost (Algorithm 2
// without the solver).
func BenchmarkFusionOnly(b *testing.B) { benchmarks.FusionOnly(b) }

// BenchmarkAnalysisGate runs the post-fusion static-analysis gate once
// per op over fixed fused scripts (see benchmarks.AnalysisGate).
func BenchmarkAnalysisGate(b *testing.B) { benchmarks.AnalysisGate(b) }

// BenchmarkSolverReference measures the reference solver on a fixed mix
// of generated formulas across logics.
func BenchmarkSolverReference(b *testing.B) { benchmarks.SolverReference(b) }

// BenchmarkParsePrint measures the SMT-LIB front end round trip.
func BenchmarkParsePrint(b *testing.B) { benchmarks.ParsePrint(b) }

// BenchmarkStringsCheck runs the strings layer on a fixed conjunction
// set (see benchmarks.StringsCheck).
func BenchmarkStringsCheck(b *testing.B) { benchmarks.StringsCheck(b) }

// BenchmarkEnvelopeCodec encodes, decodes and merges one campaign
// envelope per op (see benchmarks.EnvelopeCodec).
func BenchmarkEnvelopeCodec(b *testing.B) { benchmarks.EnvelopeCodec(b) }

// BenchmarkArithTheory runs one reference Solve per op over generated
// and fused nonlinear scripts (see benchmarks.ArithTheory).
func BenchmarkArithTheory(b *testing.B) { benchmarks.ArithTheory(b) }

// BenchmarkAblationFusionFns runs the fusion-function family ablation
// at a small budget (DESIGN.md §5).
func BenchmarkAblationFusionFns(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := harness.ExperimentAblationFusionFns(harness.CampaignBudget{
			Iterations: 15, SeedPool: 8, Seed: int64(i + 1), Threads: 4,
		})
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 4 {
			b.Fatal("bad ablation rows")
		}
	}
}
