package backend

import (
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/bugdb"
	"repro/internal/smtlib"
	"repro/internal/solver"
)

// fakesolverBin is the path of the fixture binary, built once by
// TestMain — never checked in.
var fakesolverBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "fakesolver")
	if err != nil {
		panic(err)
	}
	fakesolverBin = filepath.Join(dir, "fakesolver")
	out, err := exec.Command("go", "build", "-o", fakesolverBin, "./fakesolver").CombinedOutput()
	if err != nil {
		panic("building fakesolver: " + err.Error() + "\n" + string(out))
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

func testScript(t *testing.T) *smtlib.Script {
	t.Helper()
	sc, err := smtlib.ParseScript(`
(set-logic QF_LIA)
(declare-fun x () Int)
(assert (> x 0))
(check-sat)
`)
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

// fake builds a ProcessBackend over the fixture with fast test timings.
func fake(t *testing.T, timeout time.Duration, retries int, args ...string) *ProcessBackend {
	t.Helper()
	return NewProcess(ProcessConfig{
		Name:    "fake",
		Path:    fakesolverBin,
		Args:    args,
		Timeout: timeout,
		Retries: retries,
		Backoff: time.Millisecond,
		Sleep:   func(time.Duration) {},
	})
}

// TestProcessVerdicts checks the happy path, including output decorated
// with everything the normalizer must tolerate.
func TestProcessVerdicts(t *testing.T) {
	sc := testScript(t)
	for _, tc := range []struct {
		mode string
		want Verdict
	}{{"sat", Sat}, {"unsat", Unsat}, {"unknown", Unknown}} {
		for _, decorate := range []bool{false, true} {
			args := []string{"-mode", tc.mode}
			if decorate {
				args = append(args, "-decorate")
			}
			out := fake(t, 5*time.Second, 0, args...).Check(sc)
			if out.Verdict != tc.want {
				t.Errorf("mode=%s decorate=%v: verdict %v, want %v (raw %q, stderr %q)",
					tc.mode, decorate, out.Verdict, tc.want, out.Raw, out.Stderr)
			}
			if out.ExitCode != 0 || out.Retries != 0 {
				t.Errorf("mode=%s decorate=%v: exit=%d retries=%d, want 0/0",
					tc.mode, decorate, out.ExitCode, out.Retries)
			}
		}
	}
}

// TestProcessTimeoutKillsAndReaps pins the hang contract: the deadline
// fires, the process group is killed, the child is reaped before Check
// returns, and the classification is Timeout — never a hang.
func TestProcessTimeoutKillsAndReaps(t *testing.T) {
	out := fake(t, 150*time.Millisecond, 0, "-mode", "hang").Check(testScript(t))
	if out.Verdict != Timeout {
		t.Fatalf("verdict %v, want timeout (%+v)", out.Verdict, out)
	}
	if out.Pid == 0 {
		t.Fatal("no pid recorded")
	}
	// Reap check: the child must be gone — not a zombie, not running.
	// After Wait reaps it, signalling the pid reports ESRCH (the pid is
	// either free or recycled by an unrelated process we cannot signal).
	deadline := time.Now().Add(2 * time.Second)
	for {
		err := syscall.Kill(out.Pid, 0)
		if err == syscall.ESRCH {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("child %d still exists after timeout kill (err=%v)", out.Pid, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestProcessCrashCapture checks that a nonzero exit is classified as a
// crash with its exit status and stderr captured.
func TestProcessCrashCapture(t *testing.T) {
	out := fake(t, 5*time.Second, 0, "-mode", "crash", "-exit", "139", "-stderr", "boom: assertion violated").Check(testScript(t))
	if out.Verdict != Crash {
		t.Fatalf("verdict %v, want crash (%+v)", out.Verdict, out)
	}
	if out.ExitCode != 139 {
		t.Errorf("exit code %d, want 139", out.ExitCode)
	}
	if !strings.Contains(out.Stderr, "boom: assertion violated") {
		t.Errorf("stderr not captured: %q", out.Stderr)
	}
	if !strings.Contains(out.Reason, "exit status 139") {
		t.Errorf("reason %q does not name the exit status", out.Reason)
	}
}

// TestProcessSignalDeath checks classification of a child dying on a
// signal of its own (not our deadline kill).
func TestProcessSignalDeath(t *testing.T) {
	out := fake(t, 5*time.Second, 0, "-mode", "sigkill").Check(testScript(t))
	if out.Verdict != Crash {
		t.Fatalf("verdict %v, want crash (%+v)", out.Verdict, out)
	}
	if out.ExitCode != -1 {
		t.Errorf("exit code %d, want -1 for signal death", out.ExitCode)
	}
	if !strings.Contains(out.Reason, "signal") {
		t.Errorf("reason %q does not mention the signal", out.Reason)
	}
}

// TestProcessGarbledAndTruncated checks that outputs with no verdict
// token classify as garbled, preserving a preview for diagnosis.
func TestProcessGarbledAndTruncated(t *testing.T) {
	for _, mode := range []string{"garble", "truncate"} {
		out := fake(t, 5*time.Second, 0, "-mode", mode).Check(testScript(t))
		if out.Verdict != Garbled {
			t.Errorf("mode=%s: verdict %v, want garbled (%+v)", mode, out.Verdict, out)
		}
		if out.Raw == "" {
			t.Errorf("mode=%s: no raw preview captured", mode)
		}
	}
}

// TestProcessSlowDrip checks both sides of the drip deadline: byte-at-
// a-time output that completes inside the deadline parses normally,
// and a drip cut off by the deadline classifies as timeout with the
// partial bytes preserved.
func TestProcessSlowDrip(t *testing.T) {
	sc := testScript(t)
	out := fake(t, 5*time.Second, 0, "-mode", "drip", "-drip-ms", "5").Check(sc)
	if out.Verdict != Unsat {
		t.Errorf("fast drip: verdict %v, want unsat (%+v)", out.Verdict, out)
	}
	out = fake(t, 200*time.Millisecond, 0, "-mode", "drip", "-drip-ms", "150").Check(sc)
	if out.Verdict != Timeout {
		t.Errorf("slow drip: verdict %v, want timeout (%+v)", out.Verdict, out)
	}
	if out.Raw == "" {
		t.Error("slow drip: partial output not preserved in Raw")
	}
}

// TestProcessEmptyOutputRetriesThenGarbled checks the transient-failure
// path: persistent empty output consumes the full retry budget and then
// classifies as garbled.
func TestProcessEmptyOutputRetriesThenGarbled(t *testing.T) {
	out := fake(t, 5*time.Second, 2, "-mode", "silent").Check(testScript(t))
	if out.Verdict != Garbled {
		t.Fatalf("verdict %v, want garbled (%+v)", out.Verdict, out)
	}
	if out.Retries != 2 {
		t.Errorf("retries %d, want 2", out.Retries)
	}
	if out.Reason != "empty output" {
		t.Errorf("reason %q, want \"empty output\"", out.Reason)
	}
}

// TestProcessFlakeRetrySucceeds checks that a transient flake (empty
// output, nonzero exit for the first N invocations) is healed by the
// retry loop: the final classification is the recovered verdict with
// the consumed retries counted.
func TestProcessFlakeRetrySucceeds(t *testing.T) {
	state := filepath.Join(t.TempDir(), "count")
	b := fake(t, 5*time.Second, 3, "-mode", "flake", "-failures", "2", "-then", "unsat", "-state", state)
	out := b.Check(testScript(t))
	if out.Verdict != Unsat {
		t.Fatalf("verdict %v, want unsat after retries (%+v)", out.Verdict, out)
	}
	if out.Retries != 2 {
		t.Errorf("retries %d, want 2", out.Retries)
	}
	if data, err := os.ReadFile(state); err != nil || string(data) != "3" {
		t.Errorf("state file = %q (err %v), want 3 invocations", data, err)
	}
}

// TestProcessSpawnErrorRetries checks that a missing binary is treated
// as a transient spawn failure, retried, then classified as a crash
// naming the spawn error.
func TestProcessSpawnErrorRetries(t *testing.T) {
	b := NewProcess(ProcessConfig{
		Name: "missing", Path: filepath.Join(t.TempDir(), "no-such-solver"),
		Timeout: time.Second, Retries: 2, Backoff: time.Millisecond,
		Sleep: func(time.Duration) {},
	})
	out := b.Check(testScript(t))
	if out.Verdict != Crash {
		t.Fatalf("verdict %v, want crash (%+v)", out.Verdict, out)
	}
	if out.Retries != 2 {
		t.Errorf("retries %d, want 2", out.Retries)
	}
	if !strings.Contains(out.Reason, "spawn") {
		t.Errorf("reason %q does not name the spawn failure", out.Reason)
	}
}

// TestBreakerQuarantines checks the circuit breaker: K consecutive
// hard failures open it, further checks are skipped with Quarantined,
// and the shared Health reports the state.
func TestBreakerQuarantines(t *testing.T) {
	spec := ProcessSpec(ProcessConfig{
		Name: "crashy", Path: fakesolverBin, Args: []string{"-mode", "crash"},
		Timeout: 5 * time.Second, Retries: -1, BreakerThreshold: 3,
		Backoff: time.Millisecond, Sleep: func(time.Duration) {},
	})
	b := spec.New(nil)
	sc := testScript(t)
	for i := 0; i < 3; i++ {
		if out := b.Check(sc); out.Verdict != Crash {
			t.Fatalf("check %d: verdict %v, want crash", i, out.Verdict)
		}
	}
	if !spec.Health.Quarantined() {
		t.Fatal("breaker not open after 3 consecutive crashes")
	}
	out := b.Check(sc)
	if out.Verdict != Quarantined {
		t.Fatalf("verdict %v, want quarantined after breaker opened", out.Verdict)
	}
	// A second instance from the same spec shares the breaker.
	b2 := spec.New(nil)
	if out := b2.Check(sc); out.Verdict != Quarantined {
		t.Fatalf("sibling instance verdict %v, want quarantined (shared Health)", out.Verdict)
	}
}

// TestBreakerResetsOnSuccess checks that a parsed verdict resets the
// failure streak: alternating failures never reach the threshold.
func TestBreakerResetsOnSuccess(t *testing.T) {
	h := NewHealth(2)
	for i := 0; i < 5; i++ {
		h.Record(Crash)
		h.Record(Unsat)
	}
	if h.Quarantined() {
		t.Fatal("alternating crash/unsat opened the breaker")
	}
	h.Record(Timeout)
	h.Record(Garbled)
	if !h.Quarantined() {
		t.Fatal("two consecutive hard failures did not open the breaker")
	}
}

// TestSimBackendMapsVerdictsAndFaults checks the hermetic adapter: the
// reference mapping of solver results, crash defects surfacing as
// Crash, and non-protocol panics as Fault (our bug, not the SUT's).
func TestSimBackendMapsVerdictsAndFaults(t *testing.T) {
	sc := testScript(t)
	clean := NewSim("ref", solver.New(solver.Config{}))
	if out := clean.Check(sc); out.Verdict != Sat {
		t.Fatalf("reference solver verdict %v, want sat", out.Verdict)
	}
	faulty := NewSim("faulty", solver.New(solver.Config{
		Defects: map[solver.Defect]bool{solver.DefFaultSyntheticPanic: true},
	}))
	if out := faulty.Check(sc); out.Verdict != Fault {
		t.Fatalf("synthetic panic verdict %v, want fault", out.Verdict)
	}
}

// TestSimBackendCrashDefect drives a catalogued crash defect through
// the adapter on a script shaped to trigger it, expecting Crash.
func TestSimBackendCrashDefect(t *testing.T) {
	defects, err := bugdb.DefectsIn(bugdb.Z3Sim, "trunk")
	if err != nil {
		t.Fatal(err)
	}
	b := NewSim("z3sim", solver.New(solver.Config{Defects: defects}))
	// The campaign-level harness tests exercise real crash triggers;
	// here it is enough that a defect-laden solver still classifies
	// cleanly on a benign script.
	if out := b.Check(testScript(t)); out.Verdict != Sat && out.Verdict != Unknown {
		t.Fatalf("unexpected verdict %v on benign script", out.Verdict)
	}
}

// TestNoGoroutineLeaks runs the whole fault matrix and checks the
// goroutine count settles back: no abandoned stdin writers, no stuck
// waiters, no timer leaks.
func TestNoGoroutineLeaks(t *testing.T) {
	sc := testScript(t)
	before := runtime.NumGoroutine()
	modes := [][]string{
		{"-mode", "sat"}, {"-mode", "unsat", "-decorate"}, {"-mode", "hang"},
		{"-mode", "crash"}, {"-mode", "garble"}, {"-mode", "truncate"},
		{"-mode", "silent"}, {"-mode", "sigkill"},
	}
	for _, args := range modes {
		timeout := 5 * time.Second
		if args[1] == "hang" {
			timeout = 100 * time.Millisecond
		}
		fake(t, timeout, 1, args...).Check(sc)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before matrix, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestOutputCaptureBounded checks the flood guard: stdout/stderr
// capture is truncated at the configured limits, through Write and
// through ReadFrom, which must still consume all of its reader; and a
// child that floods both streams far past them is captured to the
// limits and exits on its own instead of blocking on a full pipe.
func TestOutputCaptureBounded(t *testing.T) {
	var lb limitBuf
	lb.limit = 16
	for i := 0; i < 100; i++ {
		n, err := lb.Write([]byte("0123456789"))
		if n != 10 || err != nil {
			t.Fatalf("limitBuf.Write = (%d, %v), want (10, nil)", n, err)
		}
	}
	if got := lb.b.Len(); got != 16 {
		t.Fatalf("buffer holds %d bytes, want 16", got)
	}
	var rb limitBuf
	rb.limit = 16
	src := strings.NewReader(strings.Repeat("0123456789", 100))
	n, err := rb.ReadFrom(src)
	if n != 1000 || err != nil || src.Len() != 0 {
		t.Fatalf("limitBuf.ReadFrom = (%d, %v) with %d bytes unread, want (1000, nil) and none", n, err, src.Len())
	}
	if got := rb.b.String(); got != "0123456789012345" {
		t.Fatalf("buffer holds %q, want the first 16 bytes", got)
	}
	if n, err := rb.ReadFrom(strings.NewReader("more")); n != 4 || err != nil || rb.b.Len() != 16 {
		t.Fatalf("ReadFrom on a full buffer = (%d, %v), %d bytes held", n, err, rb.b.Len())
	}

	r := fake(t, 10*time.Second, 1, "-mode", "flood").runOnce("(check-sat)\n")
	if r.timedOut || r.spawnErr != nil || r.exitCode != 0 {
		t.Fatalf("flooding child: timed out %v, spawn error %v, exit %d", r.timedOut, r.spawnErr, r.exitCode)
	}
	if len(r.stdout) != maxStdout || len(r.stderr) != maxStderr {
		t.Fatalf("captured %d stdout and %d stderr bytes, want %d and %d", len(r.stdout), len(r.stderr), maxStdout, maxStderr)
	}
	if s := truncate("hello", 3); s != "hel" {
		t.Fatalf("truncate = %q", s)
	}
	_ = strconv.IntSize // keep strconv imported for the flake state assertions
}
