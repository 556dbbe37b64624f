package solver

import (
	"reflect"
	"testing"

	"repro/internal/ast"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/gen"
	"repro/internal/telemetry"
)

// corpusAsserts generates the differential corpus: for every logic and
// seed, one sat and one unsat script's assert list. The string logics
// get stringSeeds seeds, the others seeds.
func corpusAsserts(t *testing.T, seeds, stringSeeds int) [][]ast.Term {
	t.Helper()
	var out [][]ast.Term
	for _, logic := range gen.AllLogics {
		n := seeds
		if logic == gen.QFS || logic == gen.QFSLIA || logic == gen.StringFuzz {
			n = stringSeeds
		}
		for seed := int64(0); seed < int64(n); seed++ {
			for _, status := range []core.Status{core.StatusSat, core.StatusUnsat} {
				g, err := gen.New(logic, seed)
				if err != nil {
					t.Fatalf("gen.New(%s): %v", logic, err)
				}
				out = append(out, g.Generate(status).Script.Asserts())
			}
		}
	}
	return out
}

// warmMemoCounters are the counters that record cache reuse itself, so
// they are the only ones a warm solver may move differently.
var warmMemoCounters = []string{
	"yy_warm_eval_hits_total", "yy_warm_eval_misses_total",
	"yy_rewrite_memo_hits_total", "yy_rewrite_memo_misses_total",
}

// stepCounters returns the snapshot's counters minus warmMemoCounters.
func stepCounters(s telemetry.Snapshot) map[string]int64 {
	out := map[string]int64{}
	for name, v := range s.Counters {
		out[name] = v
	}
	for _, name := range warmMemoCounters {
		delete(out, name)
	}
	return out
}

// TestWarmMatchesCold is the tier-1 differential: a solver reusing its
// warm caches (rewrite memo, strings eval memo) across many scripts
// must produce outcomes bit-identical to a cold solver per script —
// same verdict, same model, same fired defects, same fuel spent, and
// the same step counters (DFS nodes, regex derivatives, solves, …)
// apart from the memo hit/miss counters. This is the transparency
// claim the campaign fast path rests on.
func TestWarmMatchesCold(t *testing.T) {
	warmTel := telemetry.NewTracker()
	warm := New(Config{Telemetry: warmTel}) // never reset: caches accumulate across scripts
	for i, asserts := range corpusAsserts(t, 3, 12) {
		coldTel := telemetry.NewTracker()
		cold := New(Config{Telemetry: coldTel}).Solve(asserts)
		before := warmTel.Snapshot()
		got := warm.Solve(asserts)
		if got.Result != cold.Result || got.Reason != cold.Reason {
			t.Fatalf("script %d: warm verdict %v (%q), cold %v (%q)",
				i, got.Result, got.Reason, cold.Result, cold.Reason)
		}
		if !reflect.DeepEqual(got.Model, cold.Model) {
			t.Fatalf("script %d: warm model %v, cold model %v", i, got.Model, cold.Model)
		}
		if !reflect.DeepEqual(got.DefectsFired, cold.DefectsFired) {
			t.Fatalf("script %d: warm defects %v, cold %v", i, got.DefectsFired, cold.DefectsFired)
		}
		if got.FuelSpent != cold.FuelSpent {
			t.Fatalf("script %d: warm fuel %d, cold %d", i, got.FuelSpent, cold.FuelSpent)
		}
		warmSteps := stepCounters(warmTel.Snapshot().Diff(before))
		if coldSteps := stepCounters(coldTel.Snapshot()); !reflect.DeepEqual(warmSteps, coldSteps) {
			t.Fatalf("script %d: warm step counters %v, cold %v", i, warmSteps, coldSteps)
		}
	}
	if warmTel.Snapshot().Counter("yy_warm_eval_hits_total") == 0 {
		t.Fatal("the strings warm cache never hit: the differential compared nothing")
	}
}

// checkLiveModel verifies a live-mode sat model against the original
// (unpreprocessed) asserts.
func checkLiveModel(t *testing.T, i int, asserts []ast.Term, m eval.Model) {
	t.Helper()
	for _, a := range asserts {
		if ast.HasQuantifier(a) {
			continue // quantified conjuncts hold by generator template
		}
		ok, err := eval.Bool(a, m)
		if err != nil || !ok {
			t.Fatalf("script %d: live model fails assert %s (ok=%v err=%v)", i, ast.Print(a), ok, err)
		}
	}
}

// TestIncrementalMatchesCold is the tier-2 differential: a live
// Push/Assert/Check/Pop session over the generator corpus must agree
// with a cold Solve on every verdict, and every sat model it returns
// must satisfy the original asserts. Scripts run through one shared
// session so learned-lemma retention, the warm tableau, and atom-table
// rollback are all exercised across script boundaries.
func TestIncrementalMatchesCold(t *testing.T) {
	live := NewReference()
	for i, asserts := range corpusAsserts(t, 3, 3) {
		cold := NewReference().Solve(asserts)

		live.Push()
		err := live.Assert(asserts...)
		var got Outcome
		if err != nil {
			got = Outcome{Result: ResUnknown, Reason: err.Error()}
		} else {
			got = live.Check()
		}
		if got.Result != cold.Result {
			t.Fatalf("script %d: live verdict %v (%q), cold %v (%q)",
				i, got.Result, got.Reason, cold.Result, cold.Reason)
		}
		if got.Result == ResSat {
			checkLiveModel(t, i, asserts, got.Model)
		}
		live.Pop()
	}
}

// TestIncrementalFrameSplit drives nested frames: the assert list is
// split across two frames, checked, the inner frame popped, and the
// prefix re-checked — each verdict compared against a cold solve of
// exactly the live asserts. This is the retraction soundness test at
// the solver level.
func TestIncrementalFrameSplit(t *testing.T) {
	live := NewReference()
	for i, asserts := range corpusAsserts(t, 2, 2) {
		if len(asserts) < 2 {
			continue
		}
		half := len(asserts) / 2
		prefix, rest := asserts[:half], asserts[half:]
		coldFull := NewReference().Solve(asserts)
		coldPrefix := NewReference().Solve(prefix)

		live.Push()
		if err := live.Assert(prefix...); err != nil {
			live.Pop()
			continue // quantifier give-up: covered by the flat test
		}
		live.Push()
		if err := live.Assert(rest...); err != nil {
			live.Pop()
			live.Pop()
			continue
		}
		if got := live.Check(); got.Result != coldFull.Result {
			t.Fatalf("script %d (both frames): live %v (%q), cold %v (%q)",
				i, got.Result, got.Reason, coldFull.Result, coldFull.Reason)
		}
		live.Pop()
		got := live.Check()
		if got.Result != coldPrefix.Result {
			t.Fatalf("script %d (prefix after pop): live %v (%q), cold %v (%q)",
				i, got.Result, got.Reason, coldPrefix.Result, coldPrefix.Reason)
		}
		if got.Result == ResSat {
			checkLiveModel(t, i, prefix, got.Model)
		}
		live.Pop()
	}
}

// TestIncrementalPopPanics pins the underflow contract.
func TestIncrementalPopPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Pop on base frame did not panic")
		}
	}()
	NewReference().Pop()
}

// TestIncrementalReuseStats sanity-checks the -stats surface.
func TestIncrementalReuseStats(t *testing.T) {
	s := NewReference()
	if got := s.Reuse(); got != (ReuseStats{}) {
		t.Fatalf("Reuse before session = %+v, want zero", got)
	}
	s.Push()
	x := ast.NewVar("x", ast.SortInt)
	if err := s.Assert(ast.Le(x, ast.Int(3)), ast.Ge(x, ast.Int(1))); err != nil {
		t.Fatalf("Assert: %v", err)
	}
	if out := s.Check(); out.Result != ResSat {
		t.Fatalf("Check = %v, want sat", out.Result)
	}
	st := s.Reuse()
	if st.Frames != 2 || st.LiveAsserts != 2 || st.AtomsLive == 0 || st.TableauAtoms == 0 {
		t.Fatalf("ReuseStats after assert = %+v", st)
	}
	s.Pop()
	if got := s.Reuse().LiveAsserts; got != 0 {
		t.Fatalf("LiveAsserts after pop = %d, want 0", got)
	}
}
