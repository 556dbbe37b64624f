package backend

import "sync"

// Health is one backend's shared supervision state: the circuit
// breaker over consecutive hard failures. All instances built from one
// Spec (one per task) share one Health, so the breaker sees the
// backend's global failure streak, not one task's slice of it.
//
// The breaker exists so a wedged binary degrades the campaign instead
// of stalling it: after Threshold consecutive hard failures (timeout,
// crash, garbled — every classification that consumed the full
// deadline or retry budget without producing a verdict), Allow starts
// returning false, checks are skipped with Verdict Quarantined, and
// the campaign finishes with an explicit per-backend health summary.
// Any parsed verdict resets the streak.
//
// Health is intentionally wall-clock- and scheduling-dependent (the
// failures it counts are), so it is only attached to process backends;
// hermetic backends keep the campaign's determinism guarantees and
// carry a nil Health.
type Health struct {
	mu        sync.Mutex
	threshold int
	streak    int
	open      bool
}

// NewHealth returns breaker state that opens after threshold
// consecutive hard failures (values < 1 mean 1).
func NewHealth(threshold int) *Health {
	if threshold < 1 {
		threshold = 1
	}
	return &Health{threshold: threshold}
}

// Allow reports whether a check may run. A nil Health always allows.
func (h *Health) Allow() bool {
	if h == nil {
		return true
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return !h.open
}

// Record folds one classified check into the breaker state.
func (h *Health) Record(v Verdict) {
	if h == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	switch v {
	case Timeout, Crash, Garbled:
		// Hard failures: the check consumed its full deadline or retry
		// budget without producing a verdict.
		h.streak++
		if h.streak >= h.threshold {
			h.open = true
		}
	case Sat, Unsat, Unknown:
		// A parsed verdict proves the binary is alive; the streak resets.
		h.streak = 0
	default:
		// Fault and Quarantined are deliberate no-ops, by decision rather
		// than omission. A Fault is our own adapter's panic — no evidence
		// about the external binary either way, and crucially it must not
		// reset the streak of a wedged binary. A Quarantined verdict means
		// no check ran at all (the breaker was already open), so there is
		// nothing to fold in; counting it would double-charge the streak.
	}
}

// State exports the breaker's mutable state for campaign
// checkpointing. A nil Health reports a zero state.
func (h *Health) State() (streak int, open bool) {
	if h == nil {
		return 0, false
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.streak, h.open
}

// Restore overwrites the breaker's mutable state: campaign resume
// rehydrates each backend's failure streak so a breaker that was about
// to open does not get a fresh allowance. A nil Health no-ops.
func (h *Health) Restore(streak int, open bool) {
	if h == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.streak = streak
	h.open = open
}

// Quarantined reports whether the breaker is open.
func (h *Health) Quarantined() bool {
	if h == nil {
		return false
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.open
}
