package solver

import (
	"reflect"
	"testing"

	"repro/internal/ast"
	"repro/internal/core"
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
	warm := New(Config{Telemetry: warmTel}) // caches accumulate across scripts
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
		delta := telemetry.Snapshot{Counters: map[string]int64{}}
		for name, v := range warmTel.Snapshot().Counters {
			if v -= before.Counters[name]; v != 0 {
				delta.Counters[name] = v
			}
		}
		if warmSteps, coldSteps := stepCounters(delta), stepCounters(coldTel.Snapshot()); !reflect.DeepEqual(warmSteps, coldSteps) {
			t.Fatalf("script %d: warm step counters %v, cold %v", i, warmSteps, coldSteps)
		}
	}
	if warmTel.Snapshot().Counter("yy_warm_eval_hits_total") == 0 {
		t.Fatal("the strings warm cache never hit: the differential compared nothing")
	}
}
