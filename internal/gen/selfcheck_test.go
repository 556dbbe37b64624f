package gen

import (
	"math/rand"
	"testing"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/smtlib"
)

// requireClean runs every analysis pass over a script and
// fails on any diagnostic at warning severity or above. Info-level
// notes (trivial constant atoms etc.) are tolerated: generators
// legitimately emit constant noise atoms.
func requireClean(t *testing.T, s *smtlib.Script, context string) {
	t.Helper()
	diags := analysis.AnalyzeScript(s, nil)
	if bad := analysis.Filter(diags, analysis.SeverityWarning); len(bad) > 0 {
		t.Fatalf("%s: analysis found %d problems:\n%v\nscript:\n%s",
			context, len(bad), bad, smtlib.Print(s))
	}
	// Also lint the printed-and-reparsed form — the shape solvers and
	// yylint actually see. Printing can change term structure (negative
	// numerals become (- n) applications), so in-memory cleanliness
	// alone does not imply the .smt2 file is clean.
	text := smtlib.Print(s)
	reparsed, err := smtlib.ParseScript(text)
	if err != nil {
		t.Fatalf("%s: reparse failed: %v\n%s", context, err, text)
	}
	diags = analysis.AnalyzeScript(reparsed, nil)
	if bad := analysis.Filter(diags, analysis.SeverityWarning); len(bad) > 0 {
		t.Fatalf("%s (reparsed): analysis found %d problems:\n%v\nscript:\n%s",
			context, len(bad), bad, text)
	}
}

// TestGeneratedSeedsPassAnalysis runs the full static-analysis suite
// (well-sortedness, logic conformance, division guards, fusion
// postconditions, trivial-atom notes) over every generator's output:
// the pipeline's own seeds must be diagnostic-free at warning level.
func TestGeneratedSeedsPassAnalysis(t *testing.T) {
	for _, logic := range AllLogics {
		logic := logic
		t.Run(string(logic), func(t *testing.T) {
			g, err := New(logic, 23)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 40; i++ {
				requireClean(t, g.Sat().Script, "sat seed")
				requireClean(t, g.Unsat().Script, "unsat seed")
			}
		})
	}
}

// TestFusedScriptsPassAnalysis fuses seed pairs in every mode
// combination and requires the fused output to be warning-free too —
// in particular, every division a fusion function introduces must
// carry a syntactic nonzero guard, and renamed ancestor variables must
// not collide.
func TestFusedScriptsPassAnalysis(t *testing.T) {
	for _, logic := range AllLogics {
		logic := logic
		t.Run(string(logic), func(t *testing.T) {
			g, err := New(logic, 29)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(31))
			checked := 0
			for i := 0; i < 60 && checked < 15; i++ {
				pairs := [][2]*core.Seed{
					{g.Sat(), g.Sat()},
					{g.Unsat(), g.Unsat()},
					{g.Sat(), g.Unsat()},
				}
				for _, p := range pairs {
					fused, err := core.Fuse(tb, p[0], p[1], rng, core.Options{})
					if err != nil {
						continue
					}
					checked++
					requireClean(t, fused.Script, "fused "+fused.Mode.String())
				}
			}
			if checked == 0 {
				t.Fatalf("no fusable pairs for %s", logic)
			}
		})
	}
}

// TestConcatScriptsPassAnalysis applies the same requirement to the
// ConcatFuzz baseline.
func TestConcatScriptsPassAnalysis(t *testing.T) {
	for _, logic := range AllLogics {
		logic := logic
		t.Run(string(logic), func(t *testing.T) {
			g, err := New(logic, 37)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(41))
			for i := 0; i < 10; i++ {
				for _, p := range [][2]*core.Seed{
					{g.Sat(), g.Sat()},
					{g.Unsat(), g.Unsat()},
					{g.Sat(), g.Unsat()},
				} {
					fused, err := core.Concat(tb, p[0], p[1], rng)
					if err != nil {
						t.Fatalf("concat: %v", err)
					}
					requireClean(t, fused.Script, "concat "+fused.Mode.String())
				}
			}
		})
	}
}
