package yinyang_test

// Facade-level integration tests: exercise the public API exactly the
// way README.md and the examples do.

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	yinyang "repro"
	"repro/internal/core"
)

func TestFacadeQuickstartFlow(t *testing.T) {
	g, err := yinyang.NewGenerator(yinyang.QF_LIA, 1)
	if err != nil {
		t.Fatal(err)
	}
	phi1, phi2 := g.Sat(), g.Sat()
	fused, err := yinyang.Fuse(phi1, phi2, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if fused.Oracle != yinyang.StatusSat {
		t.Fatalf("oracle = %v", fused.Oracle)
	}
	ref := yinyang.NewReferenceSolver()
	res := yinyang.Solve(ref, fused.Script)
	if res.Crashed {
		t.Fatalf("reference crashed: %s", res.CrashMsg)
	}
	if res.Result.String() == "unsat" {
		t.Fatalf("reference unsound on sat fusion")
	}
}

func TestFacadeParsePrint(t *testing.T) {
	src := `(set-logic QF_S)
(declare-fun a () String)
(assert (str.prefixof "x" a))
(check-sat)
`
	sc, err := yinyang.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if got := yinyang.Print(sc); got != src {
		t.Errorf("print:\n%s\nwant:\n%s", got, src)
	}
}

func TestFacadeSUTVersions(t *testing.T) {
	if _, err := yinyang.NewSUT(yinyang.Z3Sim, "4.8.5"); err != nil {
		t.Fatal(err)
	}
	if _, err := yinyang.NewSUT(yinyang.CVC4Sim, "nope"); err == nil {
		t.Error("bad release accepted")
	}
}

func TestFacadeCampaignSmoke(t *testing.T) {
	res, err := yinyang.RunCampaign(yinyang.Campaign{
		SUT:        string(yinyang.Z3Sim),
		Logics:     []string{string(yinyang.QF_LRA)},
		Iterations: 25,
		SeedPool:   8,
		Seed:       5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Tests == 0 {
		t.Error("no tests executed")
	}
	if res.ReferenceDisagreements != 0 {
		t.Errorf("reference disagreements: %d", res.ReferenceDisagreements)
	}
}

// TestFacadeCampaignFailsClosed: an invalid config is an error from
// RunCampaign, never a panic or a campaign run under other settings.
func TestFacadeCampaignFailsClosed(t *testing.T) {
	for _, tc := range []struct {
		name string
		tune func(*yinyang.Campaign)
	}{
		{"negative iterations", func(c *yinyang.Campaign) { c.Iterations = -5 }},
		{"negative seed pool", func(c *yinyang.Campaign) { c.SeedPool = -2 }},
		{"negative wall timeout", func(c *yinyang.Campaign) { c.WallTimeout = -1 }},
		{"replace prob above 1", func(c *yinyang.Campaign) { c.ReplaceProb = 2 }},
		{"replace prob below 0", func(c *yinyang.Campaign) { c.ReplaceProb = -0.5 }},
		{"replace prob NaN", func(c *yinyang.Campaign) { c.ReplaceProb = math.NaN() }},
		{"unknown fusion table", func(c *yinyang.Campaign) { c.FusionTable = "figure7" }},
		{"mode both", func(c *yinyang.Campaign) { c.Mode = "both" }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := yinyang.Campaign{
				SUT:        string(yinyang.Z3Sim),
				Logics:     []string{string(yinyang.QF_LIA)},
				Iterations: 2,
				SeedPool:   2,
				Seed:       1,
			}
			tc.tune(&c)
			res, err := yinyang.RunCampaign(c)
			if err == nil {
				t.Fatalf("config accepted, ran %d tests", res.Tests)
			}
			if c.Mode == "both" && !strings.Contains(err.Error(), `"both"`) {
				t.Errorf("error %q does not name the rejected mode", err)
			}
		})
	}
}

func TestFacadeReduce(t *testing.T) {
	sc, err := yinyang.Parse(`
(declare-fun x () Int)
(assert (> x 0))
(assert (< x 100))
(assert (= (div x 0) 0))
(check-sat)
`)
	if err != nil {
		t.Fatal(err)
	}
	out := yinyang.ReduceScript(sc, func(c *yinyang.Script) bool {
		return strings.Contains(yinyang.Print(c), "div")
	})
	if len(out.Asserts()) != 1 {
		t.Errorf("reduced to %d asserts:\n%s", len(out.Asserts()), yinyang.Print(out))
	}
}

func TestFacadeConcatBaseline(t *testing.T) {
	g, _ := yinyang.NewGenerator(yinyang.QF_LIA, 9)
	u1, u2 := g.Unsat(), g.Unsat()
	fused, err := yinyang.Concat(u1, u2, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	if fused.Oracle != core.StatusUnsat {
		t.Errorf("concat oracle = %v", fused.Oracle)
	}
	if len(fused.Triplets) != 0 {
		t.Error("ConcatFuzz must not fuse variables")
	}
}

func TestFacadeFuseWithSynthesizedTable(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	table := core.SynthesizeTable(rng, 2)
	g, _ := yinyang.NewGenerator(yinyang.QF_LRA, 13)
	fused, err := yinyang.FuseWith(g.Sat(), g.Sat(), rng, yinyang.FusionOptions{Table: table})
	if err != nil {
		t.Fatal(err)
	}
	if fused.Witness == nil {
		t.Fatal("no witness")
	}
}
