package harness

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/bugdb"
	"repro/internal/smtlib"
	"repro/internal/solver"
)

// Fault-injection suite: exercises the containment machinery end to
// end — hang defects surfacing as deterministic timeouts, synthetic
// panics quarantined instead of counted, artifact bundles that round-
// trip through the parser and replay exactly.

// TestRunSolverInternalFaultCapture pins the containment contract of
// RunSolver: a panic that is not a *solver.CrashError is our own solver
// failing, reported as an internal fault with a stack trace, never as a
// crash finding.
func TestRunSolverInternalFaultCapture(t *testing.T) {
	src := `
(set-logic QF_LIA)
(declare-fun x () Int)
(assert (> x 0))
(check-sat)
`
	sc, err := smtlib.ParseScript(src)
	if err != nil {
		t.Fatal(err)
	}
	faulty := solver.New(solver.Config{
		Defects: map[solver.Defect]bool{solver.DefFaultSyntheticPanic: true},
	})
	run := RunSolver(faulty, sc)
	if run.Crashed {
		t.Error("synthetic panic misclassified as a SUT crash")
	}
	if !run.InternalFault {
		t.Fatalf("internal fault not captured: %+v", run)
	}
	if run.FaultMsg == "" {
		t.Error("internal fault has no message")
	}
	if run.FaultStack == "" {
		t.Error("internal fault has no stack trace")
	}
}

// TestHangDefectCampaignFindsPerformanceBug runs a default z3sim
// campaign on the strings logic: the injected DFS hang defect must
// exhaust the fuel meter, and the campaign must terminate with at least
// one deduplicated Performance bug whose signature is fuel exhaustion.
func TestHangDefectCampaignFindsPerformanceBug(t *testing.T) {
	res, err := runCampaign(CampaignConfig{
		SUT:        "z3sim",
		Logics:     []string{"QF_S"},
		Iterations: shortIters(80),
		SeedPool:   8,
		Seed:       7,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("tests=%d timeouts=%d bugs=%d", res.Tests, res.Timeouts, len(res.Bugs))
	if res.Timeouts == 0 {
		t.Error("hang defect produced no timeouts")
	}
	b, ok := res.BugByDefect(solver.DefHangStringsDFS)
	if !ok {
		t.Fatalf("strings-DFS hang not found; bugs: %+v", res.Bugs)
	}
	if b.Kind != bugdb.Performance {
		t.Errorf("hang classified as %v, want performance", b.Kind)
	}
	if b.Observed != solver.ResTimeout {
		t.Errorf("hang observed as %v, want timeout", b.Observed)
	}
}

// TestSimplexHangDefect does the same for the simplex cycling defect on
// linear integer arithmetic (cvc4sim's catalogue).
func TestSimplexHangDefect(t *testing.T) {
	res, err := runCampaign(CampaignConfig{
		SUT:        "cvc4sim",
		Logics:     []string{"QF_LIA"},
		Iterations: shortIters(80),
		SeedPool:   8,
		Seed:       11,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("tests=%d timeouts=%d bugs=%d", res.Tests, res.Timeouts, len(res.Bugs))
	b, ok := res.BugByDefect(solver.DefHangSimplexCycle)
	if !ok {
		t.Fatalf("simplex cycling hang not found; bugs: %+v", res.Bugs)
	}
	if b.Kind != bugdb.Performance || b.Observed != solver.ResTimeout {
		t.Errorf("hang bug = kind %v observed %v, want performance/timeout", b.Kind, b.Observed)
	}
}

// TestSyntheticPanicQuarantined injects the harness-test-only panic
// defect into an otherwise defect-free release: the campaign must run
// to completion, quarantine the faulting inputs, and record no crash
// findings for them.
func TestSyntheticPanicQuarantined(t *testing.T) {
	res, err := runCampaign(CampaignConfig{
		SUT:           "z3sim",
		Logics:        []string{"QF_LIA"},
		Iterations:    shortIters(40),
		SeedPool:      6,
		Seed:          3,
		InjectDefects: []string{string(solver.DefFaultSyntheticPanic)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Quarantined == 0 {
		t.Fatal("no runs quarantined despite a synthetic panic on every theory check")
	}
	for _, b := range res.Bugs {
		if b.Defect == solver.DefFaultSyntheticPanic {
			t.Errorf("synthetic internal fault surfaced as a %v finding", b.Kind)
		}
	}
}

// TestFaultCampaignThreadInvariance extends the engine's bit-identical
// guarantee to the containment paths: with a hang defect injected and a
// tight fuel budget, timeout and quarantine counts and the bug list
// must not depend on the thread count.
func TestFaultCampaignThreadInvariance(t *testing.T) {
	base := CampaignConfig{
		SUT:           "z3sim",
		Logics:        []string{"QF_S", "QF_LIA"},
		Iterations:    shortIters(40),
		SeedPool:      6,
		Seed:          9,
		Fuel:          200_000,
		InjectDefects: []string{string(solver.DefHangSimplexCycle)},
	}
	var ref *Result
	for _, threads := range []int{1, 4} {
		cfg := base
		cfg.Threads = threads
		res, err := runCampaign(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = res
			if ref.Timeouts == 0 {
				t.Error("fault campaign saw no timeouts")
			}
			continue
		}
		if summary(res) != summary(ref) {
			t.Errorf("threads=%d summary %v differs from threads=1 %v",
				threads, summary(res), summary(ref))
		}
		if len(res.Bugs) != len(ref.Bugs) {
			t.Fatalf("threads=%d found %d bugs, threads=1 found %d",
				threads, len(res.Bugs), len(ref.Bugs))
		}
		for i := range res.Bugs {
			if res.Bugs[i].Defect != ref.Bugs[i].Defect ||
				res.Bugs[i].Script.Text() != ref.Bugs[i].Script.Text() {
				t.Errorf("threads=%d bug %d differs", 4, i)
			}
		}
	}
}

// TestArtifactsRoundTripAndReplay checks the reproducer pipeline in
// both campaign modes and under non-default fusion options: every
// finding of a campaign with an artifact directory lands as a bundle
// whose .smt2 files re-parse, and whose manifest coordinates alone
// regenerate the identical test case — fused formula or mutant — with
// the identical verdict.
func TestArtifactsRoundTripAndReplay(t *testing.T) {
	cases := []struct {
		name string
		cfg  CampaignConfig
	}{
		{"fusion", CampaignConfig{
			SUT:        "z3sim",
			Logics:     []string{"QF_S"},
			Iterations: shortIters(60),
			SeedPool:   8,
			Seed:       7,
		}},
		{"mutation", CampaignConfig{
			SUT:        "z3sim",
			Logics:     []string{"QF_NRA"},
			Iterations: shortIters(150),
			SeedPool:   8,
			Seed:       31,
			Mode:       ModeMutate,
		}},
		// The fusion options and the table shape every fused test, so
		// replay must rebuild them from the manifest, not the defaults.
		{"fusion-options", CampaignConfig{
			SUT:         "z3sim",
			Iterations:  shortIters(40),
			SeedPool:    10,
			Seed:        3,
			ReplaceProb: 0.95,
			FusionTable: "figure6+synthesized",
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			cfg := tc.cfg
			cfg.ArtifactDir = dir
			res, err := runCampaign(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Artifacts) == 0 {
				t.Fatal("campaign with findings wrote no artifact bundles")
			}
			if len(res.Artifacts) < len(res.Bugs) {
				t.Errorf("%d bundles for %d bugs", len(res.Artifacts), len(res.Bugs))
			}
			replayed := false
			for _, bundle := range res.Artifacts {
				for _, f := range []string{"seed1.smt2", "seed2.smt2", "fused.smt2"} {
					data, err := os.ReadFile(filepath.Join(bundle, f))
					if err != nil {
						t.Fatalf("bundle %s missing %s: %v", bundle, f, err)
					}
					if _, err := smtlib.ParseScript(string(data)); err != nil {
						t.Errorf("%s/%s does not re-parse: %v", bundle, f, err)
					}
				}
				m, err := ReadManifest(bundle)
				if err != nil {
					t.Fatalf("manifest: %v", err)
				}
				if m.Campaign.Mode != cfg.Mode && !(m.Campaign.Mode == "fusion" && cfg.Mode == "") {
					t.Errorf("bundle %s campaign mode %q, want %q", bundle, m.Campaign.Mode, cfg.Mode)
				}
				if cfg.Mode == ModeMutate && m.BugType != "quarantine" {
					if m.Mode != "mutation" || len(m.MutationRules) == 0 {
						t.Errorf("mutation bundle %s lacks mutation metadata: mode=%q rules=%v",
							bundle, m.Mode, m.MutationRules)
					}
				}
				if m.BugType == "quarantine" {
					continue
				}
				rep, err := Replay(bundle)
				if err != nil {
					t.Fatalf("replay %s: %v", bundle, err)
				}
				if !rep.Exact() {
					t.Errorf("bundle %s (defect %s) did not replay exactly: %+v", bundle, m.Defect, rep)
				}
				replayed = true
			}
			if !replayed {
				t.Error("no non-quarantine bundle was replayed")
			}
		})
	}
}

// TestWallTimeoutQuarantines arms an unmeetably tight watchdog: the
// campaign must still terminate, with cut-off runs quarantined rather
// than classified, and classified plus quarantined runs accounting for
// every fused test.
func TestWallTimeoutQuarantines(t *testing.T) {
	res, err := runCampaign(CampaignConfig{
		SUT:         "z3sim",
		Logics:      []string{"QF_LIA"},
		Iterations:  20,
		SeedPool:    4,
		Seed:        5,
		WallTimeout: time.Nanosecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Quarantined == 0 {
		t.Error("nanosecond watchdog quarantined nothing")
	}
	if got := res.Tests + res.Quarantined + res.InvalidInputs; got != 20 {
		t.Errorf("tests+quarantined+invalid = %d, want 20", got)
	}
}
