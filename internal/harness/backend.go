package harness

import (
	"repro/internal/backend"
	"repro/internal/bugdb"
	"repro/internal/smtlib"
	"repro/internal/solver"
	"repro/internal/telemetry"
)

// Backend cross-check funnel counters. These aggregate over every
// configured backend (per-name registration would collide across
// campaigns — counter names are global); the per-backend breakdown
// lives in Result.Backends. All increments happen in the in-order
// classification stage, so totals for hermetic backends are
// bit-identical for any thread count.
var (
	cbChecks   = telemetry.NewCounter("yy_backend_checks_total", "cross-check backend invocations performed")
	cbSkipped  = telemetry.NewCounter("yy_backend_skipped_total", "cross-checks skipped because the backend was quarantined")
	cbTimeouts = telemetry.NewCounter("yy_backend_timeouts_total", "backend checks cut off by the wall-clock deadline or fuel meter")
	cbCrashes  = telemetry.NewCounter("yy_backend_crashes_total", "backend checks that died (nonzero exit, signal, spawn failure)")
	cbGarbled  = telemetry.NewCounter("yy_backend_garbled_total", "backend checks that completed with no parseable verdict")
	cbFaults   = telemetry.NewCounter("yy_backend_faults_total", "in-process backend adapters that panicked (our bug, not the solver's)")
	cbRetries  = telemetry.NewCounter("yy_backend_retries_total", "transient-failure retries consumed by backend checks")
	cbDisagree = telemetry.NewCounter("yy_backend_disagreements_total", "backend verdicts contradicting the known-status oracle")
	cbFindings = telemetry.NewCounter("yy_backend_findings_total", "deduplicated backend findings recorded")
)

// BackendReport is one backend's per-campaign health summary: how many
// checks ran, how they classified, and whether the circuit breaker
// quarantined the backend (degraded mode).
type BackendReport struct {
	Name     string
	Hermetic bool
	// Checks counts performed invocations; Skipped counts tasks whose
	// check was suppressed by an open circuit breaker.
	Checks  int
	Skipped int
	// Verdict tallies over the performed checks.
	Sat      int
	Unsat    int
	Unknowns int
	Timeouts int
	Crashes  int
	Garbled  int
	Faults   int
	// Retries sums the transient-failure retries consumed.
	Retries int
	// Disagreements counts definite verdicts contradicting the
	// known-status oracle (including re-triggers of deduplicated
	// findings).
	Disagreements int
	// Outvoted counts this backend's definite verdicts outvoted by the
	// majority policy's consensus; Violations counts its metamorphic
	// pair violations. Both include re-triggers of deduplicated
	// findings. omitempty keeps known-policy checkpoints, fingerprints,
	// and the pre-consensus fuzz corpus byte-identical.
	Outvoted   int `json:"Outvoted,omitempty"`
	Violations int `json:"Violations,omitempty"`
	// Quarantined reports the breaker state at campaign end.
	Quarantined bool
}

// BackendFinding is one deduplicated cross-check observation: a
// disagreement with the known-status oracle, or a contained failure of
// the backend itself (timeout, crash, garbled output). Backend findings
// are reported separately from Result.Bugs — they implicate the
// backend solver (or the cross-check harness), not a catalogued defect
// of the solver under test.
type BackendFinding struct {
	// Backend names the implicated voter; the pseudo-name "sut" marks a
	// consensus finding attributed to the solver under test itself.
	Backend string
	Kind    bugdb.BugType // Disagreement, Crash, Garbled, Performance (timeout), MajorityDisagreement, or MetamorphicViolation
	Logic   string
	// Oracle is the reference the observation contradicts: the known
	// status for Disagreement, the consensus verdict for
	// MajorityDisagreement, the pair relation for MetamorphicViolation.
	// Observed is the backend's classified verdict (for metamorphic
	// findings, the "orig/variant" verdict pair).
	Oracle   string
	Observed string
	Reason   string
	// Defect names the catalogued defect fired on a consensus finding
	// attributed to the SUT ("" otherwise). omitempty keeps the
	// pre-consensus fuzz corpus decodable unchanged.
	Defect string `json:"Defect,omitempty"`
	// ExitCode and Stderr carry the process post-mortem for external
	// backends (-1/"" for in-process adapters).
	ExitCode int
	Stderr   string
	Retries  int
	Task     int // global task index, for trace correlation
}

// bkKey dedups backend findings: one bundle per (backend, kind,
// observed-vs-oracle shape); re-triggers only bump the report tallies.
type bkKey struct {
	backend  string
	kind     bugdb.BugType
	oracle   string
	observed string
}

// findingKey is the dedup key of a finding — the only place one is
// built, shared by classification, the state fold, and the artifact
// merge. The oracle participates only for the disagreement-shaped
// kinds: a hang or garble is the same failure whatever the expected
// status, but an outvoted verdict or pair violation is a distinct
// observation per reference it contradicts.
func findingKey(f BackendFinding) bkKey {
	key := bkKey{backend: f.Backend, kind: f.Kind, observed: f.Observed}
	if f.Kind == bugdb.Disagreement || f.Kind == bugdb.MajorityDisagreement || f.Kind == bugdb.MetamorphicViolation {
		key.oracle = f.Oracle
	}
	return key
}

// fileFinding files one backend finding, the one path of the
// differential, majority and metamorphic oracles: a re-trigger of a
// recorded finding (same dedup key) changes nothing here, a new one is
// recorded and, during live classification, gets its reproducer
// bundle. idx is the implicated voter's backend index (-1 for the
// SUT); the finding's post-mortem fields go to the manifest only for a
// backend. edit, when set, adds to the manifest what only the filing
// oracle knows, and may return extra bundle files.
func (st *runState) fileFinding(rec *taskRecord, lv *live, idx int, f BackendFinding, edit func(*Manifest) map[string]string) {
	key := findingKey(f)
	if _, dup := st.seen[key]; dup {
		return
	}
	st.seen[key] = f.Task
	st.res.BackendFindings = append(st.res.BackendFindings, f)
	st.tr.Inc(cbFindings)
	if st.aw == nil || lv == nil {
		return
	}
	m := manifestFor(st.cfg, rec, lv, "backend-"+string(f.Kind), solver.Defect(f.Defect))
	m.Backend = f.Backend
	if idx >= 0 {
		m.BackendArgv = st.cfg.specs[idx].Argv
		m.BackendExit, m.BackendStderr, m.BackendRetries = f.ExitCode, f.Stderr, f.Retries
	}
	m.Oracle, m.Observed, m.Reason = f.Oracle, f.Observed, f.Reason
	var extra map[string]string
	if edit != nil {
		extra = edit(&m)
	}
	st.aw.writeExtra(m, lv.ancestors, lv.script, int(rec.Task), extra)
}

// runBackends performs the cross-checks for one task. Called on the
// worker, off the classification path, so external solver latency
// overlaps across workers like SUT solves do.
func runBackends(bks []backend.Backend, sc *smtlib.Script) []backendRun {
	if len(bks) == 0 {
		return nil
	}
	runs := make([]backendRun, len(bks))
	for i, b := range bks {
		o := b.Check(sc)
		runs[i] = backendRun{Verdict: o.Verdict, Reason: o.Reason, ExitCode: o.ExitCode, Stderr: o.Stderr, Retries: o.Retries}
	}
	return runs
}

// classifyBackends folds one task's backend outputs into the result:
// report tallies, deduplicated findings, and reproducer bundles. It
// runs in the in-order fold, so finding order and artifact contents
// are deterministic for hermetic backends.
func (st *runState) classifyBackends(rec *taskRecord, lv *live) {
	cfg := st.cfg
	f := rec.Facts
	for i, o := range f.Backends {
		kind, skipped := st.tallyBackend(i, o)
		if skipped {
			continue
		}
		if contradicts(o.Verdict, rec.Oracle) {
			st.res.Backends[i].Disagreements++
			st.tr.Inc(cbDisagree)
			kind = bugdb.Disagreement
		}
		if kind == "" {
			continue
		}
		st.fileFinding(rec, lv, i, BackendFinding{
			Backend:  cfg.specs[i].Name,
			Kind:     kind,
			Logic:    cfg.Logics[int(rec.Task)/cfg.Iterations],
			Oracle:   rec.Oracle.String(),
			Observed: o.Verdict.String(),
			Reason:   o.Reason,
			ExitCode: o.ExitCode,
			Stderr:   o.Stderr,
			Retries:  o.Retries,
			Task:     int(rec.Task),
		}, nil)
	}
	// Metamorphic-variant solves consume the same backend budget as
	// primary checks, so their verdicts are tallied into the reports.
	// They NEVER produce findings here: a variant script has no known
	// status for the differential oracle to check against — violations
	// of the pair relation are classifyConsensus's business.
	if f.Variant != nil {
		for i, o := range f.Variant.Backends {
			st.tallyBackend(i, o)
		}
	}
}

// tallyBackend folds backend i's output into its report tallies and
// returns the contained-failure kind it classifies as ("" for parsed
// verdicts) plus whether the check was suppressed by an open breaker.
func (st *runState) tallyBackend(i int, o backendRun) (kind bugdb.BugType, skipped bool) {
	rep := &st.res.Backends[i]
	if o.Verdict == backend.Quarantined {
		rep.Skipped++
		st.tr.Inc(cbSkipped)
		return "", true
	}
	rep.Checks++
	st.tr.Inc(cbChecks)
	rep.Retries += o.Retries
	st.tr.Add(cbRetries, int64(o.Retries))
	switch o.Verdict {
	case backend.Sat:
		rep.Sat++
	case backend.Unsat:
		rep.Unsat++
	case backend.Unknown:
		rep.Unknowns++
	case backend.Timeout:
		rep.Timeouts++
		st.tr.Inc(cbTimeouts)
		kind = bugdb.Performance
	case backend.Crash:
		rep.Crashes++
		st.tr.Inc(cbCrashes)
		kind = bugdb.Crash
	case backend.Garbled:
		rep.Garbled++
		st.tr.Inc(cbGarbled)
		kind = bugdb.Garbled
	case backend.Fault:
		rep.Faults++ // our adapter's bug: tallied, never a finding
		st.tr.Inc(cbFaults)
	}
	return kind, false
}

// Degraded reports whether any backend ended the campaign quarantined:
// the campaign completed, but with that backend's cross-checks
// suppressed from the first breaker opening onward.
func (r *Result) Degraded() bool {
	for _, rep := range r.Backends {
		if rep.Quarantined {
			return true
		}
	}
	return false
}
