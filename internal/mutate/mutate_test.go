package mutate

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/ast"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/solver"
)

// ruleNames collects the names of applicable rules at any site.
func ruleNames(sites []site) map[string]bool {
	out := map[string]bool{}
	for _, s := range sites {
		out[Rules[s.rule].Name] = true
	}
	return out
}

// TestCollectPolarity pins the polarity logic on hand-built shapes: a
// weakening may fire at positive positions of sat seeds and negative
// positions of unsat seeds, never the reverse, and only equivalences
// fire at unknown-monotonicity positions such as an ite condition.
func TestCollectPolarity(t *testing.T) {
	x := tb.Var("x", ast.SortInt)
	b := tb.Var("b", ast.SortBool)
	lt := tb.Lt(x, tb.Int(5))

	cases := []struct {
		name   string
		term   ast.Term
		status core.Status
		want   []string
		forbid []string
	}{
		{"positive sat takes weakenings", lt, core.StatusSat,
			[]string{"lt-to-le", "lt-guard"}, []string{}},
		{"positive unsat refuses weakenings", lt, core.StatusUnsat,
			[]string{"lt-guard"}, []string{"lt-to-le"}},
		{"negated sat refuses weakenings", tb.Not(lt), core.StatusSat,
			[]string{"lt-guard"}, []string{"lt-to-le"}},
		{"negated unsat takes weakenings", tb.Not(lt), core.StatusUnsat,
			[]string{"lt-to-le", "lt-guard"}, []string{}},
		{"ite condition takes only equivalences", tb.Ite(lt, b, tb.Not(b)), core.StatusSat,
			[]string{"lt-guard"}, []string{"lt-to-le"}},
		{"implies antecedent flips", tb.MustApp(ast.OpImplies, lt, b), core.StatusUnsat,
			[]string{"lt-to-le"}, []string{}},
		{"strengthening needs the matching side", tb.Le(x, tb.Int(5)), core.StatusUnsat,
			[]string{"le-to-lt", "le-split"}, []string{}},
		{"strengthening refused on sat side", tb.Le(x, tb.Int(5)), core.StatusSat,
			[]string{"le-split"}, []string{"le-to-lt", "le-to-eq"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			names := ruleNames(collect([]ast.Term{tc.term}, func(kind Kind, pol int8) bool { return applicable(kind, pol, tc.status) }))
			for _, w := range tc.want {
				if !names[w] {
					t.Errorf("rule %s not collected (got %v)", w, names)
				}
			}
			for _, f := range tc.forbid {
				if names[f] {
					t.Errorf("rule %s collected but unsound here (got %v)", f, names)
				}
			}
		})
	}
}

// TestMutantsPreserveVerdict is the engine's soundness check at scale:
// over the whole generator corpus, every mutant on which the reference
// solver reaches a definite verdict must agree with the inherited
// oracle. Witness re-checking and the static gate run inside Mutate,
// so any internal safety failure surfaces as a hard error here.
func TestMutantsPreserveVerdict(t *testing.T) {
	ref := solver.NewReference()
	checked := 0
	perLogic := 10
	if testing.Short() {
		perLogic = 3
	}
	for _, logic := range gen.AllLogics {
		for i := 0; i < perLogic; i++ {
			g, err := gen.New(logic, int64(1000+i))
			if err != nil {
				t.Fatal(err)
			}
			for _, status := range []core.Status{core.StatusSat, core.StatusUnsat} {
				seed := g.Generate(status)
				rng := rand.New(rand.NewSource(int64(i)*31 + 7))
				mut, err := Mutate(tb, seed, rng)
				if errors.Is(err, ErrNoMutationSite) {
					continue
				}
				if err != nil {
					t.Fatalf("%s %v seed %d: %v", logic, status, i, err)
				}
				out := ref.SolveScript(mut.Script)
				wrong := (out.Result == solver.ResSat && status == core.StatusUnsat) ||
					(out.Result == solver.ResUnsat && status == core.StatusSat)
				if wrong {
					t.Errorf("%s %v seed %d: reference says %v after rules %v\n%s",
						logic, status, i, out.Result, mut.Rules, mut.Script.Text())
				}
				checked++
			}
		}
	}
	if checked < 2*perLogic {
		t.Fatalf("only %d mutants exercised across the corpus", checked)
	}
}

// TestMutateDeterministic: the mutant is a pure function of (seed,
// RNG stream) — byte-identical scripts and rule lists on replay.
func TestMutateDeterministic(t *testing.T) {
	g, err := gen.New(gen.QFLIA, 99)
	if err != nil {
		t.Fatal(err)
	}
	seed := g.Sat()
	run := func() *Mutant {
		m, err := Mutate(tb, seed, rand.New(rand.NewSource(5)))
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	a, b := run(), run()
	if a.Script.Text() != b.Script.Text() {
		t.Fatalf("same coordinates, different mutants:\n%s\nvs\n%s", a.Script.Text(), b.Script.Text())
	}
	if len(a.Rules) != len(b.Rules) {
		t.Fatalf("rule lists differ: %v vs %v", a.Rules, b.Rules)
	}
	for i := range a.Rules {
		if a.Rules[i] != b.Rules[i] {
			t.Fatalf("rule lists differ: %v vs %v", a.Rules, b.Rules)
		}
	}
}

// TestMutantOracleInherited: mutants carry their ancestor's status and
// at least one applied rule.
func TestMutantOracleInherited(t *testing.T) {
	g, err := gen.New(gen.QFS, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, status := range []core.Status{core.StatusSat, core.StatusUnsat} {
		seed := g.Generate(status)
		mut, err := Mutate(tb, seed, rand.New(rand.NewSource(1)))
		if errors.Is(err, ErrNoMutationSite) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		if mut.Oracle != status {
			t.Errorf("mutant oracle %v, seed status %v", mut.Oracle, status)
		}
		if len(mut.Rules) == 0 {
			t.Error("mutant without applied rules")
		}
	}
}

// tb is the term table the package's tests build in.
var tb = ast.NewTable(nil)
