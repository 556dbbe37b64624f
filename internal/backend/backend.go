// Package backend crosses the process boundary: it abstracts "a solver
// that can check an SMT-LIB script" behind one interface with two
// families of implementations — hermetic in-process adapters over the
// simulated solvers (deterministic, the CI substrate) and supervised
// external solver binaries driven over stdin/stdout (ProcessBackend).
//
// The package is first and foremost a fault-containment layer. External
// binaries hang, crash, emit garbage, and die mid-write; every one of
// those outcomes is mapped into the closed Verdict taxonomy below, so
// the campaign's deterministic funnel only ever sees classified,
// bounded results:
//
//	sat / unsat / unknown — a parsed verdict (ParseVerdict normalizes
//	    CRLF, whitespace, comment lines, and case)
//	timeout     — the per-invocation wall-clock deadline expired; the
//	    process group was killed and reaped
//	crash       — the process exited nonzero or died on a signal
//	    (exit status and stderr are captured)
//	garbled     — the process exited zero but its output parsed to no
//	    verdict (including persistent empty output)
//	fault       — an in-process adapter panicked outside the simulated
//	    crash protocol: our bug, never the solver's
//	quarantined — the backend's circuit breaker is open; no check was
//	    performed and the campaign continues in degraded mode
//
// Transient failures (spawn errors, empty output) are retried with
// capped exponential backoff before being classified; K consecutive
// hard failures open the per-backend circuit breaker (Health) so one
// wedged binary cannot stall an entire campaign.
package backend

import (
	"repro/internal/ast"
	"repro/internal/smtlib"
	"repro/internal/solver"
)

// Verdict is the closed classification of one backend check.
type Verdict int

const (
	// Unknown is a parsed "unknown" answer.
	Unknown Verdict = iota
	// Sat is a parsed "sat" answer.
	Sat
	// Unsat is a parsed "unsat" answer.
	Unsat
	// Timeout means the check was cut off: the process deadline expired
	// (process backends) or the fuel meter drained (sim adapters).
	Timeout
	// Crash means the backend died: nonzero exit, signal death, a
	// simulated crash defect, or a spawn failure that survived retries.
	Crash
	// Garbled means the backend completed but produced no parseable
	// verdict (truncated, nonsense, or persistently empty output).
	Garbled
	// Fault marks an internal panic of an in-process adapter — the
	// testing tool's own bug, reported separately so it can never be
	// counted as a solver finding.
	Fault
	// Quarantined means the circuit breaker was open and the check was
	// skipped entirely.
	Quarantined
)

func (v Verdict) String() string {
	switch v {
	case Sat:
		return "sat"
	case Unsat:
		return "unsat"
	case Unknown:
		return "unknown"
	case Timeout:
		return "timeout"
	case Crash:
		return "crash"
	case Garbled:
		return "garbled"
	case Fault:
		return "fault"
	case Quarantined:
		return "quarantined"
	}
	return "invalid"
}

// Definite reports whether the verdict asserts satisfiability and can
// therefore be compared against an oracle.
func (v Verdict) Definite() bool { return v == Sat || v == Unsat }

// FromResult maps an in-process solver result into the backend verdict
// taxonomy (the sim adapter and cmd/solve share this mapping).
func FromResult(r solver.Result) Verdict {
	switch r {
	case solver.ResSat:
		return Sat
	case solver.ResUnsat:
		return Unsat
	case solver.ResTimeout:
		return Timeout
	}
	return Unknown
}

// Output is the fully classified result of one backend check.
type Output struct {
	Verdict Verdict
	// Reason carries diagnostic detail: the unknown reason, the crash
	// signal or spawn error, the garble description.
	Reason string
	// Raw is the normalized verdict token when parsing succeeded, or a
	// truncated copy of the raw stdout when it did not.
	Raw string
	// Stderr is the truncated captured stderr (process backends only).
	Stderr string
	// ExitCode is the process exit status; -1 when the process died on
	// a signal, was killed by the deadline, or never ran.
	ExitCode int
	// Retries counts the transient-failure retries consumed before this
	// classification.
	Retries int
	// Pid is the last spawned process id (process backends only; used
	// by the reap checks in tests).
	Pid int
}

// Backend checks scripts. Implementations are not required to be safe
// for concurrent use: the harness builds fresh instances for every task
// from a Spec, exactly as it does for solver-under-test instances.
type Backend interface {
	Name() string
	Check(sc *smtlib.Script) Output
}

// Spec describes one configured backend and builds its instances, one
// per task. Instances built from the same Spec share its Health, so the
// circuit breaker sees the backend's global failure streak.
type Spec struct {
	Name string
	// Argv is the external command line (binary path then arguments);
	// nil for in-process backends. It is recorded in reproducer
	// manifests so a finding names its backend even when the binary is
	// no longer available.
	Argv []string
	// Hermetic marks deterministic in-process backends: they preserve
	// the campaign's bit-identical thread-count invariance and are
	// exempt from the circuit breaker (their only "failures" are
	// deterministic fuel timeouts).
	Hermetic bool
	// Health is the shared breaker state (nil for hermetic backends).
	Health *Health
	// New builds one instance for one task. An in-process instance
	// builds its terms in terms, the task's table; the task's scripts
	// belong to it.
	New func(terms *ast.Table) Backend
}

// NewSim wraps an in-process simulated solver as a hermetic backend.
// The adapter contains the same two fault domains RunSolver separates:
// a *solver.CrashError panic is the simulated solver crashing (Crash),
// any other panic is our own implementation failing (Fault).
func NewSim(name string, s *solver.Solver) Backend {
	return &simBackend{name: name, s: s}
}

type simBackend struct {
	name string
	s    *solver.Solver
}

func (b *simBackend) Name() string { return b.name }

func (b *simBackend) Check(sc *smtlib.Script) (out Output) {
	out.ExitCode = -1
	defer func() {
		if r := recover(); r != nil {
			if ce, ok := r.(*solver.CrashError); ok {
				out.Verdict = Crash
				out.Reason = ce.Error()
			} else {
				out.Verdict = Fault
				out.Reason = "internal panic in sim backend"
			}
		}
	}()
	res := b.s.SolveScript(sc)
	out.Verdict = FromResult(res.Result)
	out.Reason = res.Reason
	out.Raw = out.Verdict.String()
	out.ExitCode = 0
	return out
}
