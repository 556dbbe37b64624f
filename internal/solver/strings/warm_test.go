package strings

import (
	"testing"

	"repro/internal/ast"
	"repro/internal/eval"
	"repro/internal/fuel"
	"repro/internal/smtlib"
	"repro/internal/telemetry"
)

// capClearSrc is satisfiable and needs many memo probes: a literal over
// three variables, a variable forced by propagation (c), and branching
// over a, whose first candidate "ab" fails (str.len a) > 2 after
// passing the regex literal.
const capClearSrc = `
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
		if !ok || !eval.Equal(v, w) {
			return false
		}
	}
	return true
}

// TestWarmCapClearMidSearch fills a Warm to one entry below the cap, so
// the wholesale clear fires on the second memo miss, inside the DFS,
// after the regex literal's memo was resolved. Both Checks on that
// Warm must answer like a cold Check, and after the second the cache
// must hold each distinct key once — as many entries as one Check on
// a fresh Warm leaves. Entries written through a stale per-check memo
// slice, or keyed by stale value ids, would miss again and overshoot.
func TestWarmCapClearMidSearch(t *testing.T) {
	lits := mustAsserts(t, capClearSrc)
	coldSt, coldModel := Check(&Problem{Lits: lits})
	if coldSt != Sat {
		t.Fatalf("cold status %v, want sat", coldSt)
	}
	fresh := NewWarm()
	Check(&Problem{Lits: lits, Warm: fresh})

	w := NewWarm()
	w.entries = warmMaxEntries - 1
	tel := telemetry.NewTracker()
	for run := 1; run <= 2; run++ {
		st, model := Check(&Problem{Lits: lits, Warm: w, Telem: tel})
		if st != coldSt || !modelsEqual(model, coldModel) {
			t.Fatalf("check %d: warm %v %v, cold %v %v", run, st, model, coldSt, coldModel)
		}
		if run == 1 && w.entries >= fresh.entries {
			t.Fatalf("check 1 left %d entries of %d: the cap clear did not fire", w.entries, fresh.entries)
		}
	}
	if w.entries != fresh.entries {
		t.Fatalf("after two checks the cache holds %d entries, a fresh one %d", w.entries, fresh.entries)
	}
	if tel.Snapshot().Counter(cWarmEvalHits.Name) == 0 {
		t.Fatal("no memo hits across the two checks")
	}
}

// FuzzStringsWarmMatchesCold checks the warm cache's transparency on
// arbitrary scripts: a cold Check and two warm Checks sharing one Warm
// must agree on verdict, model, fuel spent and DFS steps, and each warm
// Check's hits plus misses must equal the cold Check's evaluations
// (all misses).
func FuzzStringsWarmMatchesCold(f *testing.F) {
	f.Add(capClearSrc)
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
