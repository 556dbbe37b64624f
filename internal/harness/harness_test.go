package harness

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/ast"
	"repro/internal/bugdb"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/smtlib"
	"repro/internal/solver"
	"repro/internal/telemetry"
)

// shortIters scales a campaign's iteration count down under -short —
// the race-detector CI run. Data races surface from the parallel
// shard/merge structure, which is unchanged; iteration volume only
// buys bug-finding power, which the full run still verifies.
func shortIters(full int) int {
	if testing.Short() {
		return full / 5
	}
	return full
}

// runCampaign runs a campaign to completion in one leg.
func runCampaign(cc CampaignConfig) (*Result, error) {
	out, err := Start(cc, RunOptions{})
	if err != nil {
		return nil, err
	}
	return out.Result, nil
}

func TestRunSolverCrashCapture(t *testing.T) {
	src := `
(set-logic QF_NRA)
(declare-fun a () Real)
(assert (> (/ (+ a 1.0) (+ a 1.0)) 0.0))
(check-sat)
`
	sc, err := smtlib.ParseScript(src)
	if err != nil {
		t.Fatal(err)
	}
	buggy := solver.New(solver.Config{Defects: map[solver.Defect]bool{solver.DefCrashSelfDivision: true}})
	run := RunSolver(buggy, sc)
	if !run.Crashed {
		t.Fatalf("crash not captured: %+v", run)
	}
	if len(run.DefectsFired) == 0 || run.DefectsFired[0] != solver.DefCrashSelfDivision {
		t.Errorf("crash site not recorded: %v", run.DefectsFired)
	}
	// Reference does not crash.
	run = RunSolver(solver.NewReference(), sc)
	if run.Crashed {
		t.Errorf("reference crashed: %v", run.CrashMsg)
	}
}

func TestReferenceCampaignFindsNothing(t *testing.T) {
	// Against a defect-free release... there is none in the catalogue,
	// so run the reference solver directly through the loop by using a
	// campaign against cvc4sim 1.5 but with logics where its defects
	// cannot fire (pure linear real arithmetic).
	res, err := runCampaign(CampaignConfig{
		SUT:        "cvc4sim",
		Release:    "1.5",
		Logics:     []string{"LRA"},
		Iterations: 60,
		SeedPool:   10,
		Seed:       42,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.ReferenceDisagreements != 0 {
		t.Fatalf("reference disagreements: %d", res.ReferenceDisagreements)
	}
	for _, b := range res.Bugs {
		e, _ := bugdb.Find(b.Defect)
		t.Logf("found %s (%s, %s)", b.Defect, e.Type, b.Logic)
	}
}

func TestCampaignFindsSeededBugs(t *testing.T) {
	res, err := runCampaign(CampaignConfig{
		SUT:        "z3sim",
		Iterations: shortIters(80),
		SeedPool:   12,
		Seed:       7,
		Threads:    4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.ReferenceDisagreements != 0 {
		t.Fatalf("oracle mismatches without defect: %d — the reference solver is unsound", res.ReferenceDisagreements)
	}
	if len(res.Bugs) == 0 && !testing.Short() {
		t.Fatal("campaign found no bugs in the trunk z3sim")
	}
	t.Logf("tests=%d unknowns=%d bugs=%d dups=%d", res.Tests, res.Unknowns, len(res.Bugs), res.Duplicates)
	for _, b := range res.Bugs {
		t.Logf("  %s kind=%s logic=%s oracle=%v observed=%v", b.Defect, b.Kind, b.Logic, b.Oracle, b.Observed)
	}
}

func TestCampaignCVC4Sim(t *testing.T) {
	res, err := runCampaign(CampaignConfig{
		SUT:        "cvc4sim",
		Iterations: shortIters(80),
		SeedPool:   12,
		Seed:       11,
		Threads:    4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.ReferenceDisagreements != 0 {
		t.Fatalf("reference disagreements: %d", res.ReferenceDisagreements)
	}
	t.Logf("cvc4sim: tests=%d bugs=%d", res.Tests, len(res.Bugs))
	for _, b := range res.Bugs {
		t.Logf("  %s kind=%s logic=%s", b.Defect, b.Kind, b.Logic)
	}
}

func TestConcatFuzzFindsFewer(t *testing.T) {
	base := CampaignConfig{SUT: "z3sim", Iterations: shortIters(40), SeedPool: 10, Seed: 3, Threads: 4}
	full, err := runCampaign(base)
	if err != nil {
		t.Fatal(err)
	}
	concat := base
	concat.ConcatOnly = true
	co, err := runCampaign(concat)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("yinyang=%d concatfuzz=%d", len(full.Bugs), len(co.Bugs))
	if len(co.Bugs) > len(full.Bugs) && !testing.Short() {
		t.Errorf("ConcatFuzz found more bugs (%d) than YinYang (%d)", len(co.Bugs), len(full.Bugs))
	}
	if co.ReferenceDisagreements != 0 {
		t.Fatalf("concat reference disagreements: %d", co.ReferenceDisagreements)
	}
}

func TestParallelMatchesMergeInvariants(t *testing.T) {
	res, err := runCampaign(CampaignConfig{
		SUT:        "z3sim",
		Logics:     []string{"QF_S", "QF_NRA"},
		Iterations: shortIters(80),
		SeedPool:   10,
		Seed:       5,
		Threads:    4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.ReferenceDisagreements != 0 {
		t.Fatalf("reference disagreements: %d", res.ReferenceDisagreements)
	}
	seen := map[solver.Defect]bool{}
	for _, b := range res.Bugs {
		if seen[b.Defect] {
			t.Errorf("duplicate defect %s after merge", b.Defect)
		}
		seen[b.Defect] = true
	}
}

func TestOldReleaseFindsSubset(t *testing.T) {
	trunk, err := runCampaign(CampaignConfig{SUT: "z3sim", Iterations: shortIters(50), SeedPool: 10, Seed: 13, Threads: 4})
	if err != nil {
		t.Fatal(err)
	}
	old, err := runCampaign(CampaignConfig{SUT: "z3sim", Release: "4.5.0", Iterations: shortIters(50), SeedPool: 10, Seed: 13, Threads: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Every defect found in 4.5.0 must be one that affects 4.5.0.
	for _, b := range old.Bugs {
		if !bugdb.Affects(b.Defect, "4.5.0") {
			t.Errorf("bug %s found in 4.5.0 but not catalogued for it", b.Defect)
		}
	}
	t.Logf("trunk=%d old=%d", len(trunk.Bugs), len(old.Bugs))
}

func TestBugAncestorsRecorded(t *testing.T) {
	res, err := runCampaign(CampaignConfig{SUT: "z3sim", Iterations: shortIters(50), SeedPool: 10, Seed: 21, Threads: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range res.Bugs {
		if b.Ancestors[0] == nil || b.Ancestors[1] == nil || b.Script == nil {
			t.Errorf("bug %s missing ancestors or script", b.Defect)
		}
		// Kind is the catalogue type; the symptom is what was observed.
		if b.Oracle == core.StatusSat && b.Observed == solver.ResSat && b.Symptom == bugdb.Soundness {
			t.Errorf("bug %s: agreeing result observed as a soundness symptom", b.Defect)
		}
	}
}

// TestThreadCountInvariance checks the work-stealing engine's central
// guarantee: a campaign's findings are bit-identical for any Threads
// value — parallelism is a pure speedup, not a different experiment.
// The guarantee covers every test-derivation mode, fusion and mutation,
// and must survive hermetic cross-check backends, whose reports,
// findings, and trace fields are part of the invariant surface.
func TestThreadCountInvariance(t *testing.T) {
	for _, mode := range []string{ModeFusion, ModeMutate} {
		t.Run(mode, func(t *testing.T) {
			cc := CampaignConfig{
				SUT:        string(bugdb.Z3Sim),
				Logics:     []string{string(gen.QFLIA), string(gen.QFS)},
				Iterations: shortIters(60),
				SeedPool:   8,
				Seed:       3,
				Mode:       mode,
				// This backend and seed record a cross-check finding in
				// both modes at both the full and the -short iteration
				// count, so the checkpoint cut flanking one always runs.
				Backends: []BackendConfig{{Sim: &SimBackendConfig{SUT: string(bugdb.Z3Sim), Release: "4.8.5"}}},
			}
			threadCounts := []int{1, 2, 4}
			results := make([]*Result, len(threadCounts))
			metrics := make([]telemetry.Snapshot, len(threadCounts))
			traces := make([]*bytes.Buffer, len(threadCounts))
			for i, threads := range threadCounts {
				tr := telemetry.NewTracker()
				traces[i] = &bytes.Buffer{}
				out, err := Start(cc, RunOptions{Threads: threads, Telemetry: tr, Trace: traces[i]})
				if err != nil {
					t.Fatal(err)
				}
				results[i] = out.Result
				metrics[i] = tr.Snapshot()
			}
			ref := results[0]
			if ref.Tests == 0 {
				t.Fatal("campaign ran no tests")
			}
			// The task-scoped caches must actually hit, so the invariance
			// below covers the reuse counters like every other counter.
			if hits := metrics[0].Counter("yy_warm_eval_hits_total"); hits == 0 {
				t.Error("the campaign produced no warm eval-cache hits")
			}
			if hits := metrics[0].Counter("yy_rewrite_memo_hits_total"); hits == 0 {
				t.Error("the campaign produced no rewrite-memo hits")
			}
			for i, threads := range threadCounts[1:] {
				r := results[i+1]
				if summary(r) != summary(ref) {
					t.Errorf("Threads=%d counts differ from Threads=1: %+v vs %+v",
						threads, summary(r), summary(ref))
				}
				if !reflect.DeepEqual(metrics[i+1], metrics[0]) {
					t.Errorf("Threads=%d telemetry snapshot differs from Threads=1:\n%+v\nvs\n%+v",
						threads, metrics[i+1], metrics[0])
				}
				if !bytes.Equal(traces[i+1].Bytes(), traces[0].Bytes()) {
					t.Errorf("Threads=%d JSONL trace differs from Threads=1", threads)
				}
				if !reflect.DeepEqual(r.Backends, ref.Backends) {
					t.Errorf("Threads=%d backend reports differ from Threads=1:\n%+v\nvs\n%+v",
						threads, r.Backends, ref.Backends)
				}
				if !reflect.DeepEqual(r.BackendFindings, ref.BackendFindings) {
					t.Errorf("Threads=%d backend findings differ from Threads=1:\n%+v\nvs\n%+v",
						threads, r.BackendFindings, ref.BackendFindings)
				}
				if len(r.Bugs) != len(ref.Bugs) {
					t.Fatalf("Threads=%d found %d bugs, Threads=1 found %d",
						threads, len(r.Bugs), len(ref.Bugs))
				}
				for j := range r.Bugs {
					a, b := r.Bugs[j], ref.Bugs[j]
					if a.Defect != b.Defect || a.Kind != b.Kind || a.Logic != b.Logic ||
						a.Oracle != b.Oracle || a.Observed != b.Observed || a.Mode != b.Mode {
						t.Errorf("Threads=%d bug %d differs: %+v vs %+v", threads, j, a.Defect, b.Defect)
					}
					if a.Script.Text() != b.Script.Text() {
						t.Errorf("Threads=%d bug %s triggering script differs", threads, a.Defect)
					}
					if len(a.Rules) != len(b.Rules) {
						t.Errorf("Threads=%d bug %s rule lists differ: %v vs %v",
							threads, a.Defect, a.Rules, b.Rules)
						continue
					}
					for k := range a.Rules {
						if a.Rules[k] != b.Rules[k] {
							t.Errorf("Threads=%d bug %s rule lists differ: %v vs %v",
								threads, a.Defect, a.Rules, b.Rules)
							break
						}
					}
				}
			}

			// The invariance must also survive a checkpoint cut: pausing
			// at an arbitrary frontier and resuming — with a different
			// worker count — is the same experiment as running straight
			// through. Cut positions: the middle of the campaign, and
			// flanking a backend cross-check finding's recording task
			// (the resumed leg must restore finding dedup and breaker
			// state rather than re-record or re-count).
			refTr := telemetry.NewTracker()
			var refTrace bytes.Buffer
			refOut, err := Start(cc, RunOptions{Telemetry: refTr, Trace: &refTrace})
			if err != nil {
				t.Fatal(err)
			}
			// The config's own worker count must be the same experiment as
			// the Threads overrides exercised above.
			if summary(refOut.Result) != summary(ref) {
				t.Errorf("Start(config) counts differ from Start(config, Threads=1): %+v vs %+v",
					summary(refOut.Result), summary(ref))
			}
			if !bytes.Equal(refTrace.Bytes(), traces[0].Bytes()) {
				t.Error("Start(config) trace differs from Start(config, Threads=1)")
			}

			total := cc.total()
			if len(refOut.Result.BackendFindings) == 0 {
				t.Fatal("the campaign recorded no backend finding, so no cut flanks one")
			}
			f := refOut.Result.BackendFindings[0]
			stops := []int{total / 2, f.Task, f.Task + 1}
			legThreads := []int{4, 1, 2}
			for i, stop := range stops {
				if stop <= 0 || stop >= total {
					continue
				}
				tr1 := telemetry.NewTracker()
				var tb1 bytes.Buffer
				out1, err := Start(cc, RunOptions{
					Telemetry: tr1, Trace: &tb1,
					Threads: legThreads[i%len(legThreads)], StopAfter: stop,
				})
				if err != nil {
					t.Fatal(err)
				}
				if !out1.Paused || out1.Checkpoint == nil {
					t.Fatalf("stop=%d did not pause", stop)
				}
				data, err := EncodeCheckpoint(out1.Checkpoint)
				if err != nil {
					t.Fatalf("stop=%d encode: %v", stop, err)
				}
				cp, err := DecodeCheckpoint(data)
				if err != nil {
					t.Fatalf("stop=%d decode: %v", stop, err)
				}
				tr2 := telemetry.NewTracker()
				var tb2 bytes.Buffer
				out2, err := Resume(cp, RunOptions{
					Telemetry: tr2, Trace: &tb2,
					Threads: legThreads[(i+1)%len(legThreads)],
				})
				if err != nil {
					t.Fatalf("stop=%d resume: %v", stop, err)
				}
				if out2.Paused {
					t.Fatalf("stop=%d resumed leg paused", stop)
				}
				if !bytes.Equal(out2.Result.Fingerprint(), refOut.Result.Fingerprint()) {
					t.Errorf("stop=%d resumed result diverged from uninterrupted run", stop)
				}
				if !reflect.DeepEqual(out2.Telemetry, refOut.Telemetry) {
					t.Errorf("stop=%d resumed telemetry diverged from uninterrupted run", stop)
				}
				legs := append(append([]byte(nil), tb1.Bytes()...), tb2.Bytes()...)
				if !bytes.Equal(legs, refTrace.Bytes()) {
					t.Errorf("stop=%d concatenated leg traces diverged from uninterrupted trace", stop)
				}
			}
		})
	}
}

// TestTaskAloneMatchesCampaign pins the invariant thread-count
// invariance rests on (DESIGN §4.11): a task's record is a function of
// the task alone. Every task of a wild/auto campaign with hermetic
// backends, run alone through the worker path (runTask) on a freshly
// built corpus, must give the record a -threads 3 campaign
// classified: status, facts with the backend outputs and the variant
// leg, and counter delta.
func TestTaskAloneMatchesCampaign(t *testing.T) {
	cc := wildAutoConfig()
	cc.Threads = 3
	out, _ := runToCompletion(t, cc)
	cfg, err := cc.derive()
	if err != nil {
		t.Fatal(err)
	}
	pools, corpus, err := buildCorpus(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	recs := out.Envelope.Records
	if len(recs) != cfg.total() {
		t.Fatalf("%d records, want %d", len(recs), cfg.total())
	}
	var backends, variants, memoHits int
	for _, want := range recs {
		got, _ := runTask(cfg, pools, ast.NewTable(corpus), int(want.Task))
		if want.Facts != nil && want.Facts.Witness != nil {
			// Classification attaches a new bug's witness to its record;
			// the worker's record never carries one.
			f := *want.Facts
			f.Witness = nil
			want.Facts = &f
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("task %d alone:\n got %+v %+v\nwant %+v %+v", want.Task, got, got.Facts, want, want.Facts)
		}
		if f := got.Facts; f != nil {
			if len(f.Backends) == len(cfg.specs) {
				backends++
			}
			if f.Variant != nil && !f.Variant.Skip {
				variants++
			}
		}
		if got.Counters.Map()["yy_rewrite_memo_hits_total"] > 0 {
			memoHits++
		}
	}
	if backends == 0 || variants == 0 || memoHits == 0 {
		t.Fatalf("compared nothing: %d tasks with backend outputs, %d with a variant leg, %d with memo hits",
			backends, variants, memoHits)
	}
}

func summary(r *Result) [7]int {
	return [7]int{r.Tests, r.Unknowns, r.Duplicates, r.ReferenceDisagreements,
		r.InvalidInputs, r.Timeouts, r.Quarantined}
}

// TestExactIterationCount checks that parallel mode runs exactly
// Iterations tests per logic (an earlier version rounded shards up, so
// Threads=4, Iterations=10 silently ran 12). Tests + InvalidInputs +
// skipped pairs must equal the requested total.
func TestExactIterationCount(t *testing.T) {
	res, err := runCampaign(CampaignConfig{
		SUT:        "z3sim",
		Logics:     []string{"QF_LIA"},
		Iterations: 10,
		SeedPool:   4,
		Seed:       7,
		Threads:    4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Tests > 10 {
		t.Errorf("ran %d tests, want at most the requested 10", res.Tests)
	}
	if res.Tests+res.InvalidInputs > 10 {
		t.Errorf("tests+invalid = %d exceeds requested 10", res.Tests+res.InvalidInputs)
	}
	if res.Tests == 0 {
		t.Errorf("no tests ran")
	}
}
