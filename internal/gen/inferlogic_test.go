package gen

import (
	"math/rand"
	"testing"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/smtlib"
)

// TestDeclaredLogicCoversInferred round-trips every generator logic
// through InferLogic: the logic a seed declares must be at least as
// strong as the logic its terms actually require, for both sat and
// unsat seeds.
func TestDeclaredLogicCoversInferred(t *testing.T) {
	for _, logic := range AllLogics {
		logic := logic
		t.Run(string(logic), func(t *testing.T) {
			g, err := New(logic, 7)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 40; i++ {
				for _, seed := range []*core.Seed{g.Sat(), g.Unsat()} {
					declared, ok := analysis.ParseLogicName(seed.Script.Logic())
					if !ok {
						t.Fatalf("seed declares unrecognized logic %q", seed.Script.Logic())
					}
					inferredName := analysis.InferLogic(seed.Script)
					inferred, ok := analysis.ParseLogicName(inferredName)
					if !ok {
						t.Fatalf("InferLogic produced unrecognized name %q", inferredName)
					}
					if !declared.Covers(inferred) {
						t.Fatalf("declared logic %q does not cover inferred %q:\n%s",
							seed.Script.Logic(), inferredName, smtlib.Print(seed.Script))
					}
				}
			}
		})
	}
}

// TestFusedLogicCoversAncestors checks that a fused script's inferred
// logic is at least as strong as what each ancestor's terms require —
// fusion may strengthen the logic (e.g. introducing nonlinear fusion
// functions under QF_LIA) but must never drop a theory an ancestor
// uses.
func TestFusedLogicCoversAncestors(t *testing.T) {
	for _, logic := range AllLogics {
		logic := logic
		t.Run(string(logic), func(t *testing.T) {
			g, err := New(logic, 11)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(13))
			fusedPairs := 0
			for i := 0; i < 40 && fusedPairs < 10; i++ {
				pairs := [][2]*core.Seed{
					{g.Sat(), g.Sat()},
					{g.Unsat(), g.Unsat()},
					{g.Sat(), g.Unsat()},
				}
				for _, p := range pairs {
					fused, err := core.Fuse(tb, p[0], p[1], rng, core.Options{})
					if err != nil {
						continue // no fusable pair for this combination
					}
					fusedPairs++
					fusedFeat, ok := analysis.ParseLogicName(fused.Script.Logic())
					if !ok {
						t.Fatalf("fused script declares unrecognized logic %q", fused.Script.Logic())
					}
					for j, anc := range p {
						ancFeat, ok := analysis.ParseLogicName(analysis.InferLogic(anc.Script))
						if !ok {
							t.Fatalf("ancestor %d: unrecognized inferred logic", j)
						}
						if !fusedFeat.Covers(ancFeat) {
							t.Fatalf("fused logic %q does not cover ancestor %d inferred %q",
								fused.Script.Logic(), j, analysis.InferLogic(anc.Script))
						}
					}
				}
			}
			if fusedPairs == 0 {
				t.Fatalf("no fusable pairs for %s", logic)
			}
		})
	}
}
