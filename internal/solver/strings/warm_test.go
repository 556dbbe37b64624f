package strings

import (
	"maps"
	"testing"

	"repro/internal/ast"
	"repro/internal/eval"
	"repro/internal/fuel"
	"repro/internal/smtlib"
	"repro/internal/telemetry"
)

// warmSrc is satisfiable and exercises every kind of evaluation: a
// literal over three variables, a variable forced by propagation (c),
// and branching over a, whose first candidate "ab" fails
// (str.len a) > 2 after passing the regex literal.
const warmSrc = `
(declare-fun a () String)
(declare-fun b () String)
(declare-fun c () String)
(assert (= c (str.++ a b)))
(assert (str.in_re a (re.+ (str.to_re "ab"))))
(assert (> (str.len a) 2))
(assert (= (str.len c) 6))
(assert (str.contains c "ba"))
`

func modelsEqual(a, b eval.Model) bool {
	if len(a) != len(b) {
		return false
	}
	for name, v := range a {
		w, ok := b[name]
		if !ok || !v.Equal(w) {
			return false
		}
	}
	return true
}

// TestWarmSharesPrograms runs three Checks on one Warm: each must
// answer like a cold Check, and the Warm must compile each literal and
// propagation term once, on the first Check, and reuse the programs
// after.
func TestWarmSharesPrograms(t *testing.T) {
	lits := mustAsserts(t, warmSrc)
	coldSt, coldModel := Check(&Problem{Lits: lits})
	if coldSt != Sat {
		t.Fatalf("cold status %v, want sat", coldSt)
	}
	w := NewWarm()
	var first map[ast.Term]*eval.Program
	for run := 1; run <= 3; run++ {
		st, model := Check(&Problem{Lits: lits, Warm: w})
		if st != coldSt || !modelsEqual(model, coldModel) {
			t.Fatalf("check %d: warm %v %v, cold %v %v", run, st, model, coldSt, coldModel)
		}
		if run == 1 {
			if len(w.progs) == 0 {
				t.Fatal("first check compiled no programs into the Warm")
			}
			first = maps.Clone(w.progs)
			continue
		}
		if len(w.progs) != len(first) {
			t.Fatalf("check %d: the Warm holds %d programs, %d after the first check", run, len(w.progs), len(first))
		}
		for term, p := range first {
			if w.progs[term] != p {
				t.Fatalf("check %d recompiled %s", run, ast.Print(term))
			}
		}
	}
}

// FuzzStringsWarmMatchesCold checks the warm cache's transparency on
// arbitrary scripts: a cold Check and two warm Checks sharing one Warm
// must agree on verdict, model, fuel spent and DFS steps, and each warm
// Check's hits plus misses must equal the cold Check's evaluations
// (all misses).
func FuzzStringsWarmMatchesCold(f *testing.F) {
	f.Add(warmSrc)
	f.Fuzz(func(t *testing.T, src string) {
		s, err := smtlib.ParseScript(src)
		if err != nil {
			t.Skip()
		}
		lits := s.Asserts()
		for _, l := range lits {
			if ast.HasQuantifier(l) {
				t.Skip() // the solver never hands quantifiers to this theory
			}
		}
		type run struct {
			st                Status
			model             eval.Model
			fuel              int64
			dfs, hits, misses int64
		}
		check := func(w *Warm) run {
			meter := fuel.NewMeter(200_000)
			tel := telemetry.NewTracker()
			st, model := Check(&Problem{Lits: lits, Fuel: meter, Warm: w, Telem: tel})
			snap := tel.Snapshot()
			return run{st, model, meter.Spent(), snap.Counter(cDFSSteps.Name),
				snap.Counter(cWarmEvalHits.Name), snap.Counter(cWarmEvalMisses.Name)}
		}
		cold := check(nil)
		if cold.hits != 0 {
			t.Fatalf("cold check counted %d warm hits", cold.hits)
		}
		w := NewWarm()
		for i := 1; i <= 2; i++ {
			r := check(w)
			if r.st != cold.st || !modelsEqual(r.model, cold.model) || r.fuel != cold.fuel || r.dfs != cold.dfs {
				t.Fatalf("warm check %d: %v %v fuel %d dfs %d; cold: %v %v fuel %d dfs %d",
					i, r.st, r.model, r.fuel, r.dfs, cold.st, cold.model, cold.fuel, cold.dfs)
			}
			if r.hits+r.misses != cold.misses {
				t.Fatalf("warm check %d: %d hits + %d misses, cold check %d evaluations",
					i, r.hits, r.misses, cold.misses)
			}
		}
	})
}
