package yinyang

// Benchmark harness: one benchmark per table/figure of the paper's
// evaluation (see DESIGN.md §3 and EXPERIMENTS.md) plus the shared
// registry under BenchmarkRegistry. The benchmarks exercise the same
// code paths as cmd/experiments with smaller fixed budgets so
// `go test -bench=.` regenerates every experiment's shape.

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

// BenchmarkRegistry runs every entry of the shared benchmark registry
// (internal/benchmarks) as Registry/<Name>: the bodies cmd/bench
// records allocs/op for, timed here. Registry/ThroughputSingleThreaded
// gives the paper's single-threaded tests/s figure.
func BenchmarkRegistry(b *testing.B) {
	for _, e := range benchmarks.All {
		b.Run(e.Name, e.Fn)
	}
}

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
