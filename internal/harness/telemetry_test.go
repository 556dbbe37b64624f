package harness

import (
	"bytes"
	"testing"

	"repro/internal/bugdb"
	"repro/internal/telemetry"
)

// TestThreadsClampNegative: a negative Threads value used to reach
// make([]*solver.Solver, cfg.Threads) and panic; it must clamp to 1
// like zero does.
func TestThreadsClampNegative(t *testing.T) {
	for _, threads := range []int{-1, -8, 0} {
		res, err := runCampaign(CampaignConfig{
			SUT:        "z3sim",
			Logics:     []string{"QF_LIA"},
			Iterations: 3,
			SeedPool:   2,
			Seed:       5,
			Threads:    threads,
		})
		if err != nil {
			t.Fatalf("Threads=%d: %v", threads, err)
		}
		if res.Tests+res.InvalidInputs == 0 {
			t.Errorf("Threads=%d ran nothing", threads)
		}
	}
}

// traceModes are the test-derivation modes the funnel suites cover:
// fusion and mutation tasks pass through different funnel stages.
var traceModes = []string{ModeFusion, ModeMutate}

// runTraced runs one small campaign with telemetry and trace armed.
func runTraced(t *testing.T, mode string, threads int) (*Result, telemetry.Snapshot, []TraceRecord, []byte) {
	t.Helper()
	tr := telemetry.NewTracker()
	var buf bytes.Buffer
	out, err := Start(CampaignConfig{
		SUT:        "z3sim",
		Logics:     []string{"QF_LIA", "QF_S"},
		Iterations: shortIters(40),
		SeedPool:   6,
		Seed:       99,
		Threads:    threads,
		Mode:       mode,
	}, RunOptions{Telemetry: tr, Trace: &buf})
	if err != nil {
		t.Fatal(err)
	}
	res := out.Result
	raw := append([]byte(nil), buf.Bytes()...)
	recs, err := DecodeTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return res, tr.Snapshot(), recs, raw
}

// TestFunnelMatchesResultCounts: each funnel counter is incremented at
// the classification site next to the Result field it mirrors, so
// their totals must equal the Result's counts exactly — at any thread
// count.
func TestFunnelMatchesResultCounts(t *testing.T) {
	for _, mode := range traceModes {
		t.Run(mode, func(t *testing.T) { funnelMatchesResultCounts(t, mode) })
	}
}

func funnelMatchesResultCounts(t *testing.T, mode string) {
	for _, threads := range []int{1, 4} {
		res, snap, recs, _ := runTraced(t, mode, threads)
		if res.Tests == 0 {
			t.Fatal("campaign ran no tests")
		}
		checks := []struct {
			name string
			want int
		}{
			{"yy_funnel_solved_total", res.Tests},
			{"yy_funnel_unknowns_total", res.Unknowns},
			{"yy_funnel_timeouts_total", res.Timeouts},
			{"yy_funnel_quarantined_total", res.Quarantined},
			{"yy_funnel_invalid_total", res.InvalidInputs},
			{"yy_funnel_duplicates_total", res.Duplicates},
			{"yy_funnel_findings_total", len(res.Bugs)},
			{"yy_funnel_reference_disagreements_total", res.ReferenceDisagreements},
		}
		for _, c := range checks {
			if got := snap.Counter(c.name); got != int64(c.want) {
				t.Errorf("threads=%d %s = %d, want %d", threads, c.name, got, c.want)
			}
		}
		// Funnel conservation: every task ends in exactly one of the
		// derived/invalid/skipped stages, and every derived test is
		// either solved or quarantined.
		total := int64(len(recs))
		derived := snap.Counter("yy_funnel_derived_total")
		if derived+snap.Counter("yy_funnel_invalid_total")+snap.Counter("yy_funnel_skipped_total") != total {
			t.Errorf("threads=%d funnel stages do not partition %d tasks: %+v", threads, total, snap.Counters)
		}
		if derived != snap.Counter("yy_funnel_solved_total")+snap.Counter("yy_funnel_quarantined_total") {
			t.Errorf("threads=%d derived ≠ solved+quarantined: %+v", threads, snap.Counters)
		}
		// The engine counters must have registered real work.
		if snap.Counter("yy_solves_total") == 0 || snap.Counter(
			"yy_solve_fuel_spent_total") == 0 {
			t.Errorf("threads=%d no solver telemetry recorded: %+v", threads, snap.Counters)
		}
	}
}

// TestTraceRoundTrip: the JSONL trace decodes back into one record per
// task, in task order, carrying the campaign's RNG coordinates, and the
// emitted bytes are identical for 1 and 4 threads.
func TestTraceRoundTrip(t *testing.T) {
	for _, mode := range traceModes {
		t.Run(mode, func(t *testing.T) { traceRoundTrip(t, mode) })
	}
}

func traceRoundTrip(t *testing.T, mode string) {
	res1, _, recs1, raw1 := runTraced(t, mode, 1)
	_, _, _, raw4 := runTraced(t, mode, 4)

	if !bytes.Equal(raw1, raw4) {
		t.Error("trace bytes differ between 1 and 4 threads")
	}
	wantTasks := 2 * shortIters(40) // two logics
	if len(recs1) != wantTasks {
		t.Fatalf("trace has %d records, want %d", len(recs1), wantTasks)
	}
	tested, findings := 0, 0
	for i, rec := range recs1 {
		if rec.Task != i {
			t.Fatalf("record %d out of order: task %d", i, rec.Task)
		}
		if rec.CampaignSeed != 99 || rec.SUT != string(bugdb.Z3Sim) {
			t.Errorf("record %d carries wrong campaign coordinates: %+v", i, rec)
		}
		if rec.Iteration != i%shortIters(40) {
			t.Errorf("record %d iteration = %d", i, rec.Iteration)
		}
		switch rec.Status {
		case "tested":
			tested++
			if rec.Observed == "" || rec.Oracle == "" {
				t.Errorf("tested record %d missing verdicts: %+v", i, rec)
			}
		case "invalid", "skipped", "quarantined":
		default:
			t.Errorf("record %d has unknown status %q", i, rec.Status)
		}
		if rec.Finding {
			findings++
		}
	}
	if tested != res1.Tests {
		t.Errorf("%d tested records, result counts %d tests", tested, res1.Tests)
	}
	if findings != len(res1.Bugs) {
		t.Errorf("%d finding records, result has %d bugs", findings, len(res1.Bugs))
	}
}
