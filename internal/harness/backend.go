package harness

import (
	"repro/internal/backend"
	"repro/internal/bugdb"
	"repro/internal/core"
	"repro/internal/smtlib"
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

// counts lists the report's counters (everything but the identity and
// the breaker state).
func (r *BackendReport) counts() []namedCount {
	return []namedCount{
		{"Checks", &r.Checks}, {"Skipped", &r.Skipped}, {"Sat", &r.Sat},
		{"Unsat", &r.Unsat}, {"Unknowns", &r.Unknowns}, {"Timeouts", &r.Timeouts},
		{"Crashes", &r.Crashes}, {"Garbled", &r.Garbled}, {"Faults", &r.Faults},
		{"Retries", &r.Retries}, {"Disagreements", &r.Disagreements},
		{"Outvoted", &r.Outvoted}, {"Violations", &r.Violations},
	}
}

// add folds another tally of the same backend into r: counters sum, and
// the backend is quarantined if either side saw its breaker open.
func (r *BackendReport) add(o BackendReport) {
	addCounts(r.counts(), o.counts())
	r.Quarantined = r.Quarantined || o.Quarantined
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

// seenFinding reports whether a finding's dedup key is already
// recorded: a re-trigger, which only bumps the report tallies.
func (st *runState) seenFinding(f BackendFinding) bool {
	_, dup := st.seen[findingKey(f)]
	return dup
}

// recordFinding records a new finding under its dedup key.
func (st *runState) recordFinding(f BackendFinding) {
	st.seen[findingKey(f)] = f.Task
	st.res.BackendFindings = append(st.res.BackendFindings, f)
	st.tr.Inc(cbFindings)
}

// runBackends performs the cross-checks for one task. Called on the
// worker, off the classification path, so external solver latency
// overlaps across workers like SUT solves do.
func runBackends(bks []backend.Backend, sc *smtlib.Script) []backend.Output {
	if len(bks) == 0 {
		return nil
	}
	outs := make([]backend.Output, len(bks))
	for i, b := range bks {
		outs[i] = b.Check(sc)
	}
	return outs
}

// classifyBackends folds one task's backend outputs into the result:
// report tallies, deduplicated findings, and reproducer bundles. It
// runs in the in-order classification stage, so finding order and
// artifact contents are deterministic for hermetic backends.
func (st *runState) classifyBackends(out *taskOutcome) {
	cfg := st.cfg
	oracle := out.oracle()
	for i, o := range out.backendRuns {
		kind, skipped := st.tallyBackend(i, o)
		if skipped {
			continue
		}
		if o.Verdict.Definite() && backendContradicts(o.Verdict, oracle) {
			st.res.Backends[i].Disagreements++
			st.tr.Inc(cbDisagree)
			kind = bugdb.Disagreement
		}
		if kind == "" {
			continue
		}
		f := BackendFinding{
			Backend:  cfg.specs[i].Name,
			Kind:     kind,
			Logic:    cfg.Logics[out.id/cfg.Iterations],
			Oracle:   oracle.String(),
			Observed: o.Verdict.String(),
			Reason:   o.Reason,
			ExitCode: o.ExitCode,
			Stderr:   o.Stderr,
			Retries:  o.Retries,
			Task:     out.id,
		}
		if st.seenFinding(f) {
			continue
		}
		st.recordFinding(f)
		if st.aw != nil {
			m := manifestFor(cfg, *out, "backend-"+string(kind), "")
			m.Backend = f.Backend
			m.BackendArgv = cfg.specs[i].Argv
			m.BackendExit = o.ExitCode
			m.BackendStderr = o.Stderr
			m.BackendRetries = o.Retries
			m.Observed = f.Observed
			m.Reason = f.Reason
			st.aw.write(m, out.ancestors, out.testScript(), out.id)
		}
	}
	// Metamorphic-variant solves consume the same backend budget as
	// primary checks, so their verdicts are tallied into the reports.
	// They NEVER produce findings here: a variant script has no known
	// status for the differential oracle to check against — violations
	// of the pair relation are classifyConsensus's business.
	for i, o := range out.variantBackends {
		st.tallyBackend(i, o)
	}
}

// tallyBackend folds backend i's output into its report tallies and
// returns the contained-failure kind it classifies as ("" for parsed
// verdicts) plus whether the check was suppressed by an open breaker.
func (st *runState) tallyBackend(i int, o backend.Output) (kind bugdb.BugType, skipped bool) {
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

// backendContradicts reports whether a backend verdict refutes the
// ground truth. Mirrors verdictContradicts: only a definite verdict on
// a definite oracle contradicts — an unknown-status test abstains. The
// earlier predicate `(v == Sat) != (oracle == StatusSat)` collapsed
// StatusUnknown into the unsat arm, charging every sat backend verdict
// on an unknown-status input as a disagreement.
func backendContradicts(v backend.Verdict, oracle core.Status) bool {
	switch oracle {
	case core.StatusSat:
		return v == backend.Unsat
	case core.StatusUnsat:
		return v == backend.Sat
	default:
		return false
	}
}

// finishBackends fills the end-of-campaign breaker states into the
// per-backend reports.
func finishBackends(res *Result, cfg *campaign) {
	for i := range res.Backends {
		res.Backends[i].Quarantined = cfg.specs[i].Health.Quarantined()
	}
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
