// Package watchdog is the repository's single wall-clock escape hatch:
// an opt-in backstop that bounds a function call by real time. The
// fuel meter (internal/fuel) is the primary deadline — deterministic
// and thread-count invariant — so nothing in the solver or harness
// *classifies* by wall-clock. The watchdog exists for the residual
// risk the meter cannot cover (a genuine infinite loop introduced by a
// future defect outside any metered engine): a run it cuts off is
// quarantined by the harness, never counted as a finding.
//
// This package is the only non-benchmark code allowed to use package
// time; the golint wall-clock rule allowlists exactly this directory
// and fails the build-time lint anywhere else.
package watchdog

import "time"

// Run executes f, waiting at most d for it to finish. It reports
// whether f completed; with d <= 0 it runs f inline and reports true.
// On timeout, Run returns with f still executing in its abandoned
// goroutine — the caller must not reuse any state f touches (the
// harness builds a solver per task, so the timed-out task's solver is
// simply dropped). The abandoned goroutine exits once f returns; with
// a fuel-limited solver that is guaranteed to happen.
func Run(d time.Duration, f func()) bool {
	if d <= 0 {
		f()
		return true
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	//golint:allow wall-clock — the watchdog IS the wall-clock backstop: fuel cannot bound a loop that forgot to charge fuel
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-done:
		return true
	case <-t.C:
		return false
	}
}
