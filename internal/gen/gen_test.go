package gen

import (
	"math/rand"
	"testing"

	"repro/internal/analysis"
	"repro/internal/ast"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/smtlib"
	"repro/internal/solver"
)

func TestAllLogicsProduceValidSeeds(t *testing.T) {
	for _, logic := range AllLogics {
		logic := logic
		t.Run(string(logic), func(t *testing.T) {
			g, err := New(logic, 42)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 50; i++ {
				sat := g.Sat()
				if sat.Status != core.StatusSat || sat.Witness == nil {
					t.Fatal("bad sat seed")
				}
				// Witness must satisfy every quantifier-free assert.
				for _, a := range sat.Script.Asserts() {
					if ast.HasQuantifier(a) {
						continue
					}
					ok, err := eval.Bool(a, sat.Witness)
					if err != nil || !ok {
						t.Fatalf("witness fails on %s: %v\n%s",
							ast.Print(a), err, smtlib.Print(sat.Script))
					}
				}
				unsat := g.Unsat()
				if unsat.Status != core.StatusUnsat {
					t.Fatal("bad unsat seed")
				}
				if len(unsat.Script.Asserts()) == 0 {
					t.Fatal("empty unsat seed")
				}
			}
		})
	}
}

func TestSeedsRespectLogicFragment(t *testing.T) {
	cases := []struct {
		logic     Logic
		quantOK   bool
		stringsOK bool
	}{
		{QFLIA, false, false},
		{QFLRA, false, false},
		{QFNRA, false, false},
		{QFNIA, false, false},
		{QFS, false, true},
		{QFSLIA, false, true},
		{StringFuzz, false, true},
		{LIA, true, false},
		{LRA, true, false},
		{NRA, true, false},
	}
	for _, c := range cases {
		g, err := New(c.logic, 7)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 40; i++ {
			for _, seed := range []*core.Seed{g.Sat(), g.Unsat()} {
				for _, a := range seed.Script.Asserts() {
					if !c.quantOK && ast.HasQuantifier(a) {
						t.Fatalf("%s: quantifier in QF seed: %s", c.logic, ast.Print(a))
					}
					hasStr := false
					ast.Walk(a, func(tm ast.Term) bool {
						if tm.Sort() == ast.SortString {
							hasStr = true
						}
						return true
					})
					if !c.stringsOK && hasStr {
						t.Fatalf("%s: string term in arithmetic seed", c.logic)
					}
				}
			}
		}
	}
}

func TestLinearLogicsAreLinear(t *testing.T) {
	for _, logic := range []Logic{QFLIA, QFLRA, LIA, LRA} {
		g, _ := New(logic, 3)
		for i := 0; i < 40; i++ {
			for _, seed := range []*core.Seed{g.Sat(), g.Unsat()} {
				inferred := analysis.InferLogic(seed.Script)
				if inferred[0] == 'N' || (len(inferred) > 3 && inferred[3] == 'N') {
					t.Fatalf("%s seed inferred as %s:\n%s", logic, inferred, smtlib.Print(seed.Script))
				}
			}
		}
	}
}

func TestUnsatSeedsAreUnsat(t *testing.T) {
	// The reference solver must never find a model for an unsat seed
	// (unknown is acceptable for hard fragments).
	s := solver.NewReference()
	for _, logic := range AllLogics {
		g, _ := New(logic, 99)
		for i := 0; i < 15; i++ {
			seed := g.Unsat()
			out := s.SolveScript(seed.Script)
			if out.Result == solver.ResSat {
				t.Fatalf("%s: unsat seed decided sat:\n%s", logic, smtlib.Print(seed.Script))
			}
		}
	}
}

func TestSatSeedsMostlySolvable(t *testing.T) {
	// Sat seeds should usually be decided sat by the reference solver
	// (they are its regression diet); always at least not unsat.
	s := solver.NewReference()
	for _, logic := range []Logic{QFLIA, QFLRA, QFS, QFSLIA} {
		g, _ := New(logic, 5)
		solved := 0
		const n = 25
		for i := 0; i < n; i++ {
			seed := g.Sat()
			out := s.SolveScript(seed.Script)
			if out.Result == solver.ResUnsat {
				t.Fatalf("%s: sat seed decided unsat:\n%s", logic, smtlib.Print(seed.Script))
			}
			if out.Result == solver.ResSat {
				solved++
			}
		}
		if solved < n/2 {
			t.Errorf("%s: only %d/%d sat seeds decided", logic, solved, n)
		}
	}
}

func TestSeedsAreFusable(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	for _, logic := range AllLogics {
		g, _ := New(logic, 11)
		okCount := 0
		for i := 0; i < 20; i++ {
			s1, s2 := g.Sat(), g.Sat()
			if _, err := core.Fuse(tb, s1, s2, rng, core.Options{}); err == nil {
				okCount++
			}
			u1, u2 := g.Unsat(), g.Unsat()
			if _, err := core.Fuse(tb, u1, u2, rng, core.Options{}); err == nil {
				okCount++
			}
		}
		if okCount < 30 {
			t.Errorf("%s: only %d/40 fusions succeeded", logic, okCount)
		}
	}
}

func TestDeterminism(t *testing.T) {
	g1, _ := New(QFNRA, 77)
	g2, _ := New(QFNRA, 77)
	for i := 0; i < 10; i++ {
		a := smtlib.Print(g1.Sat().Script)
		b := smtlib.Print(g2.Sat().Script)
		if a != b {
			t.Fatalf("generators with equal seeds diverged:\n%s\nvs\n%s", a, b)
		}
	}
}

func TestSeedScriptsReparse(t *testing.T) {
	for _, logic := range AllLogics {
		g, _ := New(logic, 8)
		for i := 0; i < 20; i++ {
			for _, seed := range []*core.Seed{g.Sat(), g.Unsat()} {
				txt := smtlib.Print(seed.Script)
				if _, err := smtlib.ParseScript(txt); err != nil {
					t.Fatalf("%s seed does not reparse: %v\n%s", logic, err, txt)
				}
			}
		}
	}
}

func TestUnknownLogicRejected(t *testing.T) {
	if _, err := New("QF_BV", 1); err == nil {
		t.Error("unsupported logic accepted")
	}
}

func TestQuantifiedLogicsProduceQuantifiers(t *testing.T) {
	g, _ := New(NRA, 21)
	saw := false
	for i := 0; i < 60 && !saw; i++ {
		for _, a := range g.Sat().Script.Asserts() {
			if ast.HasQuantifier(a) {
				saw = true
			}
		}
	}
	if !saw {
		t.Error("NRA generator never produced a quantifier in 60 seeds")
	}
}

// tb is the term table the package's tests build in.
var tb = ast.NewTable(nil)
