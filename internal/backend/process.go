package backend

import (
	"bytes"
	"fmt"
	"io"
	"os/exec"
	"sync"
	"syscall"
	"time"

	"repro/internal/ast"
	"repro/internal/smtlib"
)

// Capture limits: enough to diagnose any real solver, bounded so a
// garbage-flooding or slow-dripping binary cannot balloon the campaign.
const (
	maxStdout = 64 << 10
	maxStderr = 8 << 10
	// rawPreview is how much unparseable stdout is kept in Output.Raw.
	rawPreview = 256
)

// ProcessConfig configures one external solver backend.
type ProcessConfig struct {
	// Name labels the backend in reports, findings, and manifests.
	Name string
	// Path and Args form the command line; the script is written to the
	// process's stdin and the verdict read from its stdout.
	Path string
	Args []string
	// Timeout is the per-invocation wall-clock deadline. On expiry the
	// whole process group is SIGKILLed and the run classifies as
	// Timeout. Default 10s.
	Timeout time.Duration
	// Retries bounds how many times a transient failure (spawn error,
	// empty output) is retried before it is classified. Default 2.
	Retries int
	// Backoff is the initial retry delay; it doubles per retry and is
	// capped at BackoffCap. Defaults 50ms / 1s.
	Backoff    time.Duration
	BackoffCap time.Duration
	// BreakerThreshold is the circuit breaker's K: consecutive hard
	// failures before the backend is quarantined. Default 5.
	BreakerThreshold int
	// Sleep replaces the backoff sleep (test hook; nil = real sleep).
	Sleep func(time.Duration)
}

func (c ProcessConfig) withDefaults() ProcessConfig {
	if c.Timeout <= 0 {
		c.Timeout = 10 * time.Second
	}
	if c.Retries < 0 {
		c.Retries = 0
	} else if c.Retries == 0 {
		c.Retries = 2
	}
	if c.Backoff <= 0 {
		c.Backoff = 50 * time.Millisecond
	}
	if c.BackoffCap <= 0 {
		c.BackoffCap = time.Second
	}
	if c.BreakerThreshold == 0 {
		c.BreakerThreshold = 5
	}
	if c.Sleep == nil {
		// Referencing (not calling) time.Sleep: the backoff between
		// external solver invocations is inherently wall-clock.
		c.Sleep = time.Sleep
	}
	return c
}

// ProcessSpec builds the Spec for an external solver binary. All its
// instances share one Health, so the circuit breaker counts the
// backend's global failure streak.
func ProcessSpec(cfg ProcessConfig) Spec {
	cfg = cfg.withDefaults()
	h := NewHealth(cfg.BreakerThreshold)
	argv := append([]string{cfg.Path}, cfg.Args...)
	return Spec{
		Name:   cfg.Name,
		Argv:   argv,
		Health: h,
		New: func(*ast.Table) Backend {
			return &ProcessBackend{cfg: cfg, health: h}
		},
	}
}

// ProcessBackend drives one external SMT-LIB solver binary over
// stdin/stdout under full fault containment: per-invocation wall-clock
// deadline with process-group kill and guaranteed reap, stdout/stderr/
// exit-status capture, output normalization, bounded retry with capped
// exponential backoff for transient failures, and a shared circuit
// breaker that quarantines the backend after K consecutive hard
// failures.
type ProcessBackend struct {
	cfg    ProcessConfig
	health *Health
}

// NewProcess builds a standalone ProcessBackend (tests and tools;
// campaigns go through ProcessSpec so instances share Health).
func NewProcess(cfg ProcessConfig) *ProcessBackend {
	cfg = cfg.withDefaults()
	return &ProcessBackend{cfg: cfg, health: NewHealth(cfg.BreakerThreshold)}
}

func (b *ProcessBackend) Name() string { return b.cfg.Name }

// Health exposes the backend's breaker state.
func (b *ProcessBackend) Health() *Health { return b.health }

// Check runs the solver binary on the script. It never blocks longer
// than roughly (Retries+1) × Timeout plus the backoff sleeps, never
// leaks a child process (every spawn is reaped before Check returns),
// and always returns a classified Output.
func (b *ProcessBackend) Check(sc *smtlib.Script) Output {
	if !b.health.Allow() {
		return Output{Verdict: Quarantined, ExitCode: -1,
			Reason: "circuit breaker open: backend quarantined"}
	}
	text := smtlib.Print(sc)
	delay := b.cfg.Backoff
	var out Output
	for attempt := 0; ; attempt++ {
		out = classifyRun(b.runOnce(text))
		out.Retries = attempt
		if !out.transientFailure() || attempt >= b.cfg.Retries {
			break
		}
		b.cfg.Sleep(delay)
		delay = min(delay*2, b.cfg.BackoffCap)
	}
	b.health.Record(out.Verdict)
	return out
}

// transientFailure reports whether the classified run is worth
// retrying: the process never produced a byte of stdout and was not cut
// off by the deadline — spawn failures, startup flakes, and empty
// output, the failure modes a retry can actually fix. A timeout is
// never transient (retrying it would multiply the stall), and neither
// is any run that produced output (the answer would not change).
func (o *Output) transientFailure() bool {
	switch o.Verdict {
	case Crash, Garbled:
		return o.Raw == ""
	}
	return false
}

// rawRun is the unclassified result of one spawn.
type rawRun struct {
	spawnErr error
	timedOut bool
	exitCode int    // -1 when signaled or never ran
	signal   string // non-empty when the process died on a signal
	stdout   []byte
	stderr   []byte
	pid      int
}

// runOnce spawns the binary, writes the script, and waits for exit or
// deadline. The child runs in its own process group; on deadline the
// whole group is SIGKILLed (so grandchildren die too) and the child is
// still reaped by Wait — runOnce never returns with an un-reaped child.
func (b *ProcessBackend) runOnce(text string) rawRun {
	r := rawRun{exitCode: -1}
	cmd := exec.Command(b.cfg.Path, b.cfg.Args...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	var stdout, stderr limitBuf
	stdout.limit, stderr.limit = maxStdout, maxStderr
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		r.spawnErr = err
		return r
	}
	if err := cmd.Start(); err != nil {
		stdin.Close()
		r.spawnErr = err
		return r
	}
	r.pid = cmd.Process.Pid

	// Feed the script from a goroutine: a hung child that never reads
	// stdin must not block Check. Once the group is killed the pipe
	// write fails with EPIPE and the goroutine exits.
	go func() {
		io.WriteString(stdin, text)
		stdin.Close()
	}()

	// Deadline enforcement. The mutex-guarded done flag keeps the kill
	// strictly before the reap: once Wait has returned, the pid may be
	// recycled, so a late-firing timer must never signal it.
	var mu sync.Mutex
	done := false
	//golint:allow wall-clock — the per-invocation deadline on an external solver process; fuel cannot meter a foreign binary
	timer := time.AfterFunc(b.cfg.Timeout, func() {
		mu.Lock()
		defer mu.Unlock()
		if done {
			return
		}
		r.timedOut = true
		// Negative pid addresses the whole process group (Setpgid made
		// the child its own group leader), so helpers it spawned die
		// with it. The child stays a zombie until Wait reaps it, so the
		// pid cannot be recycled while this fires.
		syscall.Kill(-r.pid, syscall.SIGKILL)
	})
	err = cmd.Wait() // guaranteed reap: every spawned child is waited on
	mu.Lock()
	done = true
	mu.Unlock()
	timer.Stop()

	r.stdout = stdout.b.Bytes()
	r.stderr = stderr.b.Bytes()
	if state := cmd.ProcessState; state != nil {
		r.exitCode = state.ExitCode() // -1 when signaled
		if ws, ok := state.Sys().(syscall.WaitStatus); ok && ws.Signaled() {
			r.signal = ws.Signal().String()
		}
	}
	if err != nil && r.exitCode == 0 {
		// Wait failed for an I/O reason with a clean exit; treat as
		// spawn-level trouble so it is retried, not misread as garbled.
		r.spawnErr = err
	}
	return r
}

// classifyRun maps one raw spawn result into the verdict taxonomy.
func classifyRun(r rawRun) Output {
	out := Output{ExitCode: r.exitCode, Pid: r.pid, Stderr: truncate(string(r.stderr), maxStderr)}
	if r.spawnErr != nil {
		out.Verdict = Crash
		out.Reason = fmt.Sprintf("spawn: %v", r.spawnErr)
		return out
	}
	if r.timedOut {
		out.Verdict = Timeout
		out.Reason = "wall-clock deadline expired; process group killed"
		out.Raw = truncate(string(r.stdout), rawPreview)
		return out
	}
	if v, ok := ParseVerdict(string(r.stdout)); ok {
		out.Verdict = v
		out.Raw = v.String()
		return out
	}
	out.Raw = truncate(trimmed(r.stdout), rawPreview)
	switch {
	case r.signal != "":
		out.Verdict = Crash
		out.Reason = "signal: " + r.signal
	case r.exitCode != 0:
		out.Verdict = Crash
		out.Reason = fmt.Sprintf("exit status %d", r.exitCode)
	case out.Raw == "":
		out.Verdict = Garbled
		out.Reason = "empty output"
	default:
		out.Verdict = Garbled
		out.Reason = "no verdict in output"
	}
	return out
}

func trimmed(b []byte) string { return string(bytes.TrimSpace(b)) }

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n]
}

// limitBuf keeps the first limit bytes and silently drops the rest, so
// a flooding child cannot grow campaign memory; Write never errors
// (an error would kill the child's pipe mid-run). ReadFrom is the path
// os/exec's copy goroutine takes: reading straight into the buffer
// spares it a 32 KB copy buffer per stream per check.
type limitBuf struct {
	b     bytes.Buffer
	limit int
}

func (l *limitBuf) Write(p []byte) (int, error) {
	if room := l.limit - l.b.Len(); room > 0 {
		if len(p) > room {
			l.b.Write(p[:room])
		} else {
			l.b.Write(p)
		}
	}
	return len(p), nil
}

// ReadFrom reads r into the buffer up to the limit, then drains the
// rest of r, so the child never blocks on a full pipe.
func (l *limitBuf) ReadFrom(r io.Reader) (int64, error) {
	var n int64
	if room := l.limit - l.b.Len(); room > 0 {
		var err error
		if n, err = l.b.ReadFrom(io.LimitReader(r, int64(room))); err != nil {
			return n, err
		}
	}
	m, err := io.Copy(io.Discard, r)
	return n + m, err
}
