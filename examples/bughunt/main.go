// Bughunt: a miniature version of the paper's four-month campaign.
// Runs YinYang against both simulated solvers under test, prints the
// triaged findings, and shows a reduced bug-triggering formula for the
// first soundness bug — the Figure 13 experience end to end.
package main

import (
	"fmt"

	yinyang "repro"
	"repro/internal/bugdb"
	"repro/internal/harness"
	"repro/internal/reduce"
	"repro/internal/smtlib"
)

func main() {
	for _, sut := range []yinyang.SUT{yinyang.Z3Sim, yinyang.CVC4Sim} {
		fmt.Printf("=== campaign against %s (trunk) ===\n", sut)
		res, err := yinyang.RunCampaign(yinyang.Campaign{
			SUT:        string(sut),
			Iterations: 120,
			SeedPool:   12,
			Seed:       2020,
			Threads:    4,
		})
		if err != nil {
			panic(err)
		}
		fmt.Printf("tests: %d   bugs: %d   duplicates: %d   unknowns: %d\n",
			res.Tests, len(res.Bugs), res.Duplicates, res.Unknowns)
		// The type label is as wide as the longest one printed.
		w := 0
		for _, b := range res.Bugs {
			w = max(w, len(b.Kind))
		}
		for _, b := range res.Bugs {
			entry, _ := bugdb.Find(b.Defect)
			fmt.Printf("  [%-*s] %-32s logic=%-10s  %s\n", w, b.Kind, b.Defect, b.Logic, entry.Description)
		}

		// Reduce the first wrong verdict, like the paper's bug reports
		// do before filing.
		for _, b := range res.Bugs {
			if b.Symptom != bugdb.Soundness {
				continue
			}
			fmt.Printf("\n--- reduced reproducer for %s (observed %v, oracle %v) ---\n",
				b.Defect, b.Observed, b.Oracle)
			fmt.Print(reduceBug(sut, b))
			break
		}
		fmt.Println()
	}
}

func reduceBug(sut yinyang.SUT, b yinyang.Bug) string {
	s := bugdb.NewTrunkSolver(sut, nil)
	ref := yinyang.NewReferenceSolver()
	// A shrink stays interesting only while the wrongness is preserved:
	// the buggy solver keeps its answer with the defect firing, and the
	// reference solver decides the opposite.
	interesting := func(c *smtlib.Script) bool {
		oracle := harness.OracleOf(yinyang.Solve(ref, c).Result)
		return b.ReproducedBy(yinyang.Solve(s, c), c, oracle)
	}
	if !interesting(b.Script) {
		return smtlib.Print(b.Script)
	}
	reduced := reduce.Reduce(b.Script, interesting, reduce.Options{MaxChecks: 300})
	return smtlib.Print(reduced)
}
