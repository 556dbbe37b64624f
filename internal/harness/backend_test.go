package harness

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/bugdb"
	"repro/internal/telemetry"
)

// The campaign-level fault matrix builds the fakesolver fixture once
// per test binary (never checked in).
var (
	fakesolverOnce sync.Once
	fakesolverBin  string
	fakesolverErr  error
)

func fakesolver(t *testing.T) string {
	t.Helper()
	fakesolverOnce.Do(func() {
		dir, err := os.MkdirTemp("", "fakesolver-harness")
		if err != nil {
			fakesolverErr = err
			return
		}
		fakesolverBin = filepath.Join(dir, "fakesolver")
		out, err := exec.Command("go", "build", "-o", fakesolverBin, "repro/internal/backend/fakesolver").CombinedOutput()
		if err != nil {
			fakesolverErr = err
			fakesolverBin = string(out)
		}
	})
	if fakesolverErr != nil {
		t.Fatalf("building fakesolver: %v\n%s", fakesolverErr, fakesolverBin)
	}
	return fakesolverBin
}

// smallCampaign is the shared shape of the process-backend tests: tiny,
// single logic, single thread, so every external invocation is cheap
// and the classification order is trivially deterministic.
func smallCampaign() CampaignConfig {
	return CampaignConfig{
		SUT:        "z3sim",
		Logics:     []string{"QF_LIA"},
		Iterations: 6,
		SeedPool:   4,
		Seed:       9,
		Threads:    1,
	}
}

// TestCampaignHermeticCrossCheck runs the differential oracle with a
// buggy hermetic backend: the backend is the same defect-laden trunk
// z3sim as the SUT, so wherever the campaign observes a soundness bug,
// the backend's verdict contradicts the known-status oracle and must
// surface as a disagreement finding — without ever entering Bugs.
func TestCampaignHermeticCrossCheck(t *testing.T) {
	cfg := CampaignConfig{
		SUT:        "z3sim",
		Iterations: shortIters(80),
		SeedPool:   12,
		Seed:       7,
		Threads:    4,
		Backends:   []BackendConfig{{Sim: &SimBackendConfig{SUT: "z3sim"}}},
	}
	tr := telemetry.NewTracker()
	out, err := Start(cfg, RunOptions{Telemetry: tr})
	if err != nil {
		t.Fatal(err)
	}
	res := out.Result
	if len(res.Backends) != 1 {
		t.Fatalf("want 1 backend report, got %d", len(res.Backends))
	}
	rep := res.Backends[0]
	if rep.Name != "z3sim@trunk" || !rep.Hermetic {
		t.Errorf("report identity wrong: %+v", rep)
	}
	if rep.Quarantined {
		t.Error("hermetic backend has no breaker yet reports quarantined")
	}
	if res.Degraded() {
		t.Error("campaign degraded with only hermetic backends")
	}
	// Every tested task is cross-checked; nothing is ever skipped
	// (hermetic backends carry no breaker).
	if rep.Checks != res.Tests || rep.Skipped != 0 {
		t.Errorf("checks=%d skipped=%d, want checks=%d skipped=0", rep.Checks, rep.Skipped, res.Tests)
	}
	soundness := 0
	for _, b := range res.Bugs {
		if b.Kind == bugdb.Soundness {
			soundness++
		}
	}
	if soundness > 0 && rep.Disagreements == 0 {
		t.Error("SUT soundness bugs found but the identically-buggy backend never disagreed with the oracle")
	}
	for _, f := range res.BackendFindings {
		if f.Backend != "z3sim@trunk" {
			t.Errorf("finding names backend %q", f.Backend)
		}
		if f.Kind == bugdb.Disagreement && f.Observed == f.Oracle {
			t.Errorf("disagreement finding with agreeing verdicts: %+v", f)
		}
	}
	// The aggregate funnel counters must mirror the per-backend report.
	snap := tr.Snapshot()
	if got := snap.Counter("yy_backend_checks_total"); got != int64(rep.Checks) {
		t.Errorf("yy_backend_checks_total=%d, report says %d", got, rep.Checks)
	}
	if got := snap.Counter("yy_backend_disagreements_total"); got != int64(rep.Disagreements) {
		t.Errorf("yy_backend_disagreements_total=%d, report says %d", got, rep.Disagreements)
	}
	t.Logf("checks=%d disagreements=%d findings=%d (soundness bugs=%d)",
		rep.Checks, rep.Disagreements, len(res.BackendFindings), soundness)
}

// TestCampaignProcessBackendHang pins the watchdog↔backend interplay:
// a hung external solver yields per-task timeout verdicts and a
// reproducer bundle, while the campaign's own quarantine count stays
// zero — a backend failure is never an internal fault of ours.
func TestCampaignProcessBackendHang(t *testing.T) {
	dir := t.TempDir()
	cfg := smallCampaign()
	cfg.ArtifactDir = dir
	cfg.Backends = []BackendConfig{{Process: &ProcessBackendConfig{
		Name: "hangy", Path: fakesolver(t), Args: []string{"-mode", "hang"},
		Timeout: 200 * time.Millisecond, Retries: -1,
		Breaker: 1000, // keep the breaker out of this test
	}}}
	res, err := runCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Backends[0]
	if rep.Timeouts == 0 || rep.Timeouts != rep.Checks {
		t.Fatalf("hung backend: timeouts=%d checks=%d, want all checks timing out", rep.Timeouts, rep.Checks)
	}
	if res.Quarantined != 0 {
		t.Errorf("backend timeouts quarantined %d tasks; they must not", res.Quarantined)
	}
	if res.Degraded() || rep.Quarantined {
		t.Error("breaker opened despite threshold 1000")
	}
	var bundle string
	for _, f := range res.BackendFindings {
		if f.Kind != bugdb.Performance || f.Backend != "hangy" {
			t.Errorf("unexpected finding %+v", f)
		}
	}
	if len(res.BackendFindings) == 0 {
		t.Fatal("no timeout finding recorded")
	}
	for _, p := range res.Artifacts {
		m, err := ReadManifest(p)
		if err != nil {
			t.Fatal(err)
		}
		if m.Backend == "hangy" {
			bundle = p
			if m.BugType != "backend-performance" {
				t.Errorf("bundle bug_type %q, want backend-performance", m.BugType)
			}
			if len(m.BackendArgv) == 0 || m.BackendArgv[0] != fakesolverBin {
				t.Errorf("bundle backend_argv %v does not record the command line", m.BackendArgv)
			}
			if m.Observed != "timeout" {
				t.Errorf("bundle observed %q, want timeout", m.Observed)
			}
		}
	}
	if bundle == "" {
		t.Fatal("no backend bundle written")
	}
	// Replay must regenerate the fused test and name the backend, even
	// though it never re-invokes the (possibly absent) binary.
	rr, err := Replay(bundle)
	if err != nil {
		t.Fatal(err)
	}
	if !rr.FusedMatches || !rr.ResultMatches {
		t.Errorf("replay of backend bundle: %+v", rr)
	}
	if rr.Backend != "hangy" {
		t.Errorf("replay names backend %q, want hangy", rr.Backend)
	}
}

// TestCampaignBackendCrashCapture checks that a crashing external
// solver surfaces as crash findings with exit status and stderr, and
// that the circuit breaker then quarantines it: later checks are
// skipped, the campaign completes, and the result reports degraded
// mode.
func TestCampaignBackendCrashesThenBreakerDegrades(t *testing.T) {
	cfg := smallCampaign()
	cfg.Backends = []BackendConfig{{Process: &ProcessBackendConfig{
		Name: "crashy", Path: fakesolver(t),
		Args:    []string{"-mode", "crash", "-exit", "139", "-stderr", "ASSERTION VIOLATION"},
		Timeout: 5 * time.Second, Retries: -1, Breaker: 2,
	}}}
	res, err := runCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Backends[0]
	if rep.Crashes != 2 {
		t.Errorf("crashes=%d, want exactly the breaker threshold 2", rep.Crashes)
	}
	if rep.Skipped == 0 {
		t.Error("no checks skipped after the breaker opened")
	}
	if rep.Checks+rep.Skipped != res.Tests {
		t.Errorf("checks=%d skipped=%d tests=%d: every tested task must be accounted for",
			rep.Checks, rep.Skipped, res.Tests)
	}
	if !rep.Quarantined || !res.Degraded() {
		t.Error("persistently crashing backend not reported as quarantined/degraded")
	}
	found := false
	for _, f := range res.BackendFindings {
		if f.Kind == bugdb.Crash {
			found = true
			if f.ExitCode != 139 {
				t.Errorf("crash finding exit code %d, want 139", f.ExitCode)
			}
			if !strings.Contains(f.Stderr, "ASSERTION VIOLATION") {
				t.Errorf("crash finding stderr %q missing the captured message", f.Stderr)
			}
		}
	}
	if !found {
		t.Error("no crash finding recorded")
	}
}

// TestCampaignBackendFlakeRetried checks the retry path end to end: a
// backend that fails transiently on its first invocation is healed by
// the retry loop, the campaign sees only parsed verdicts, and the
// consumed retries surface in the report.
func TestCampaignBackendFlakeRetried(t *testing.T) {
	state := filepath.Join(t.TempDir(), "count")
	cfg := smallCampaign()
	cfg.Backends = []BackendConfig{{Process: &ProcessBackendConfig{
		Name: "flaky", Path: fakesolver(t),
		Args:    []string{"-mode", "flake", "-failures", "1", "-then", "unknown", "-state", state},
		Timeout: 5 * time.Second, Retries: 3,
	}}}
	res, err := runCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Backends[0]
	if rep.Retries != 1 {
		t.Errorf("retries=%d, want exactly 1 (single transient failure)", rep.Retries)
	}
	if rep.Crashes != 0 || rep.Garbled != 0 {
		t.Errorf("transient flake leaked into hard-failure tallies: %+v", rep)
	}
	if rep.Unknowns != rep.Checks {
		t.Errorf("unknowns=%d checks=%d, want every check answering unknown", rep.Unknowns, rep.Checks)
	}
	if len(res.BackendFindings) != 0 {
		t.Errorf("healed flake produced findings: %+v", res.BackendFindings)
	}
	if res.Degraded() {
		t.Error("healed flake degraded the campaign")
	}
}

// TestCampaignBackendGarbledFinding checks that unparseable output is
// contained as a garbled finding, not a crash or a campaign error.
func TestCampaignBackendGarbledFinding(t *testing.T) {
	cfg := smallCampaign()
	cfg.Backends = []BackendConfig{{Process: &ProcessBackendConfig{
		Name: "garbler", Path: fakesolver(t), Args: []string{"-mode", "garble"},
		Timeout: 5 * time.Second, Retries: -1, Breaker: 1000,
	}}}
	res, err := runCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Backends[0]
	if rep.Garbled != rep.Checks || rep.Checks == 0 {
		t.Fatalf("garbled=%d checks=%d, want every check garbled", rep.Garbled, rep.Checks)
	}
	if len(res.BackendFindings) != 1 || res.BackendFindings[0].Kind != bugdb.Garbled {
		t.Fatalf("want one deduplicated garbled finding, got %+v", res.BackendFindings)
	}
}

// TestCampaignBackendValidation checks the configuration guards.
func TestCampaignBackendValidation(t *testing.T) {
	cfg := smallCampaign()
	cfg.Backends = []BackendConfig{
		{Sim: &SimBackendConfig{SUT: "z3sim"}},
		{Sim: &SimBackendConfig{SUT: "z3sim", Release: "trunk"}},
	}
	if _, err := runCampaign(cfg); err == nil {
		t.Error("duplicate backend names accepted")
	}
	cfg.Backends = []BackendConfig{{Process: &ProcessBackendConfig{Path: "/bin/true"}}}
	if _, err := runCampaign(cfg); err == nil {
		t.Error("empty backend name accepted")
	}
}
