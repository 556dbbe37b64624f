// Command experiments regenerates every table and figure of the
// paper's evaluation (Section 4) against the simulated solvers under
// test. Each experiment prints rows shaped like the paper's; the
// expected correspondence is documented in EXPERIMENTS.md.
//
// Usage:
//
//	experiments [-fig 7|8|9|10|11|12] [-rq 4] [-ablation fusionfns|synth|occprob] [-all]
//	            [-iters N] [-seed S] [-threads T] [-scale K]
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/bugdb"
	"repro/internal/harness"
)

func main() {
	fig := flag.String("fig", "", "figure to regenerate (7, 8, 9, 10, 11, 12)")
	rq := flag.String("rq", "", "research question to regenerate (4)")
	ablation := flag.String("ablation", "", "ablation to run (fusionfns, synth, occprob)")
	all := flag.Bool("all", false, "run everything")
	iters := flag.Int("iters", 250, "campaign iterations per logic")
	seed := flag.Int64("seed", 1, "random seed")
	threads := flag.Int("threads", 4, "parallel workers")
	scale := flag.Int("scale", 100, "figure 7 corpus scale divisor")
	covSeeds := flag.Int("cov-seeds", 15, "coverage experiment: seeds per corpus")
	covFused := flag.Int("cov-fused", 30, "coverage experiment: fused formulas per arm")
	flag.Parse()

	budget := harness.CampaignBudget{Iterations: *iters, Seed: *seed, Threads: *threads}
	covBudget := harness.CoverageBudget{Seeds: *covSeeds, Fused: *covFused, Seed: *seed}

	ran := false
	want := func(name string) bool {
		return *all || *fig == name
	}

	// The Figure 8 campaign also feeds Figures 9, 10 and RQ4.
	var fig8 *harness.Fig8
	needCampaign := *all || *fig == "8" || *fig == "9" || *fig == "10" || *rq == "4"
	if needCampaign {
		var err error
		fig8, err = harness.ExperimentFig8(budget)
		die(err)
	}

	if want("7") {
		ran = true
		rows, err := harness.ExperimentFig7(*scale)
		die(err)
		fmt.Printf("=== Figure 7: seed corpora (paper counts / %d) ===\n%s\n", *scale, harness.RenderFig7(rows))
	}
	if want("8") {
		ran = true
		fmt.Printf("=== Figure 8: campaign bug counts (%d iterations/logic) ===\n%s\n", *iters, harness.RenderFig8(fig8))
	}
	if want("9") {
		ran = true
		fmt.Println("=== Figure 9: historic soundness bugs per year ===")
		for _, s := range bugdb.SUTs {
			fmt.Print(harness.RenderFig9(s, harness.ExperimentFig9(s)))
		}
		found := 0
		for _, b := range fig8.Z3.Bugs {
			if b.Kind == bugdb.Soundness {
				found++
			}
		}
		fmt.Printf("z3sim: campaign found %d soundness bugs vs %d historic (%.0f%%)\n",
			found, bugdb.HistoricTotals(bugdb.Z3Sim), 100*float64(found)/float64(bugdb.HistoricTotals(bugdb.Z3Sim)))
		found = 0
		for _, b := range fig8.CVC4.Bugs {
			if b.Kind == bugdb.Soundness {
				found++
			}
		}
		fmt.Printf("cvc4sim: campaign found %d soundness bugs vs %d historic (%.0f%%)\n\n",
			found, bugdb.HistoricTotals(bugdb.CVC4Sim), 100*float64(found)/float64(bugdb.HistoricTotals(bugdb.CVC4Sim)))
	}
	if want("10") {
		ran = true
		fmt.Println("=== Figure 10: found soundness bugs affecting each release ===")
		fmt.Print(harness.RenderFig10(bugdb.Z3Sim, harness.ExperimentFig10(bugdb.Z3Sim, fig8.Z3)))
		fmt.Print(harness.RenderFig10(bugdb.CVC4Sim, harness.ExperimentFig10(bugdb.CVC4Sim, fig8.CVC4)))
		fmt.Println()
	}
	if want("11") {
		ran = true
		rows, err := harness.ExperimentFig11(covBudget)
		die(err)
		fmt.Printf("=== Figure 11: coverage, Benchmark (B) vs YinYang (Y) ===\n%s\n", harness.RenderFig11(rows))
	}
	if want("12") {
		ran = true
		rows, err := harness.ExperimentFig12(covBudget)
		die(err)
		fmt.Printf("=== Figure 12: coverage averaged over logics ===\n%s\n", harness.RenderFig12(rows))
	}
	if *all || *rq == "4" {
		ran = true
		res, err := harness.ExperimentRQ4(bugdb.Z3Sim, fig8.Z3.Bugs, 10, *seed)
		die(err)
		fmt.Printf("=== RQ4: ConcatFuzz retrigger ===\nConcatFuzz retriggered %d of %d YinYang bugs (paper: 5 of 50)\n\n",
			res.Retriggered, res.Bugs)
	}
	if *all || *ablation == "fusionfns" {
		ran = true
		rows, err := harness.ExperimentAblationFusionFns(budget)
		die(err)
		fmt.Println("=== Ablation: fusion-function families (z3sim bug yield) ===")
		for _, r := range rows {
			fmt.Printf("  %-20s %d bugs\n", r.Name, r.Bugs)
		}
		fmt.Println()
	}
	if *all || *ablation == "synth" {
		ran = true
		rows, err := harness.ExperimentAblationSynth(budget)
		die(err)
		fmt.Println("=== Ablation: synthesized fusion functions (z3sim bug yield) ===")
		for _, r := range rows {
			fmt.Printf("  %-20s %d bugs\n", r.Name, r.Bugs)
		}
		fmt.Println()
	}
	if *all || *ablation == "occprob" {
		ran = true
		rows, err := harness.ExperimentAblationOccProb(budget)
		die(err)
		fmt.Println("=== Ablation: inversion replacement probability (z3sim bug yield) ===")
		for _, r := range rows {
			fmt.Printf("  %-20s %d bugs\n", r.Name, r.Bugs)
		}
		fmt.Println()
	}

	if !ran {
		fmt.Fprintln(os.Stderr, "nothing selected: pass -all, -fig N, -rq 4, or -ablation NAME")
		os.Exit(2)
	}
}

func die(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
}
