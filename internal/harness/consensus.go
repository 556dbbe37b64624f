package harness

import (
	"fmt"

	"repro/internal/backend"
	"repro/internal/bugdb"
	"repro/internal/core"
	"repro/internal/mutate"
	"repro/internal/smtlib"
	"repro/internal/solver"
	"repro/internal/telemetry"
)

// Consensus-oracle funnel counters. Like the yy_backend_* family they
// aggregate over all voters and are incremented only by the in-order
// classification stage, so the totals are bit-identical for any thread
// count. Every counter is per-occurrence (re-triggers included), so a
// K-shard merge reproduces them by plain summation.
var (
	coVotes     = telemetry.NewCounter("yy_oracle_votes_total", "definite verdicts cast by consensus voters on unknown-status tasks")
	coConsensus = telemetry.NewCounter("yy_oracle_consensus_total", "unknown-status tasks where the majority policy reached a consensus")
	coAbstained = telemetry.NewCounter("yy_oracle_abstained_total", "unknown-status tasks where the majority policy abstained (quorum unmet or tie)")
	coOutvoted  = telemetry.NewCounter("yy_oracle_outvoted_total", "definite verdicts outvoted by a majority consensus, SUT included")
	coPairs     = telemetry.NewCounter("yy_oracle_pairs_total", "metamorphic variant pairs derived and solved")
	coPairSkips = telemetry.NewCounter("yy_oracle_pair_skips_total", "unknown-status tasks with no relation-preserving variant")
	coViolation = telemetry.NewCounter("yy_oracle_violations_total", "metamorphic pair-relation violations observed, SUT included")
)

// voter is one participant in a consensus vote: the solver under test
// (idx -1, pseudo-name "sut") or a cross-check backend, with its
// classified verdict for the task plus the post-mortem fields a
// finding would carry.
type voter struct {
	idx      int // backend index; -1 for the SUT
	name     string
	verdict  string // classified verdict label, as traced
	definite bool
	vote     core.Status // valid only when definite
	exitCode int
	stderr   string
	retries  int
}

// sutVote classifies a SUT run as a consensus vote: a definite verdict
// or an abstention.
func sutVote(observed solver.Result, crashed bool) (vote core.Status, definite bool) {
	switch {
	case crashed:
		return 0, false
	case observed == solver.ResSat:
		return core.StatusSat, true
	case observed == solver.ResUnsat:
		return core.StatusUnsat, true
	default:
		return 0, false
	}
}

// backendStatus classifies a backend output as a consensus vote.
func backendStatus(v backend.Verdict) (vote core.Status, definite bool) {
	switch v {
	case backend.Sat:
		return core.StatusSat, true
	case backend.Unsat:
		return core.StatusUnsat, true
	default:
		return 0, false
	}
}

// voters assembles the task's vote vector in canonical order: the SUT
// first, then the backends in configuration order. Every voter appears
// — abstainers included — so the manifest records the full vector.
func voters(cfg *campaign, rec *taskRecord) []voter {
	bks := rec.Facts.Backends
	vs := make([]voter, 0, 1+len(bks))
	run := rec.Facts
	vote, def := sutVote(run.Observed, run.Crashed)
	vs = append(vs, voter{idx: -1, name: "sut", verdict: sutLabel(run.Observed, run.Crashed),
		definite: def, vote: vote, exitCode: -1})
	for i, o := range bks {
		vote, def := backendStatus(o.Verdict)
		vs = append(vs, voter{idx: i, name: cfg.specs[i].Name,
			verdict: o.Verdict.String(), definite: def, vote: vote,
			exitCode: o.ExitCode, stderr: o.Stderr,
			retries: o.Retries})
	}
	return vs
}

// voteVector renders the full vote vector for the reproducer manifest.
func voteVector(vs []voter) []string {
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = v.name + "=" + v.verdict
	}
	return out
}

// variantVector renders the variant solve's verdict vector (SUT first,
// then backends) for metamorphic finding manifests.
func variantVector(cfg *campaign, v *variantRecord) []string {
	vec := make([]string, 0, 1+len(v.Backends))
	vec = append(vec, "sut="+sutLabel(v.Observed, v.Crashed))
	for i, o := range v.Backends {
		vec = append(vec, cfg.specs[i].Name+"="+o.Verdict.String())
	}
	return vec
}

// classifyConsensus applies the configured consensus policies to one
// unknown-status task. It runs after classify/classifyBackends in the
// fold — known-status tasks (and the known policy) never reach the
// body, so the legacy funnel is untouched.
func (st *runState) classifyConsensus(rec *taskRecord, live *taskOutcome, fl *taskFlags) {
	if rec.Oracle != core.StatusUnknown {
		return
	}
	if st.cfg.Oracle == OracleMajority || st.cfg.Oracle == OracleAuto {
		fl.consensus = st.classifyMajority(rec, live)
	}
	if st.cfg.Oracle == OracleMetamorphic || st.cfg.Oracle == OracleAuto {
		st.classifyMetamorphic(rec, live)
	}
}

// classifyMajority folds all voters' definite verdicts into a
// consensus and attributes a finding to each outvoted voter. A vote
// with fewer than Quorum definite verdicts — or a tie — abstains: an
// abstention is a statement about the vote, not about any solver, so
// it produces no finding. It returns the vote's outcome: "sat",
// "unsat", or "abstained".
func (st *runState) classifyMajority(rec *taskRecord, live *taskOutcome) string {
	cfg, res := st.cfg, st.res
	vs := voters(cfg, rec)
	sat, unsat := 0, 0
	for _, v := range vs {
		if !v.definite {
			continue
		}
		res.OracleVotes++
		st.tr.Inc(coVotes)
		if v.vote == core.StatusSat {
			sat++
		} else {
			unsat++
		}
	}
	if sat+unsat < cfg.Quorum || sat == unsat {
		res.OracleAbstained++
		st.tr.Inc(coAbstained)
		return "abstained"
	}
	consensus, winners, losers := core.StatusSat, sat, unsat
	if unsat > sat {
		consensus, winners, losers = core.StatusUnsat, unsat, sat
	}
	res.OracleConsensus++
	st.tr.Inc(coConsensus)
	label := consensus.String()
	for _, v := range vs {
		if !v.definite || v.vote == consensus {
			continue
		}
		if v.idx < 0 {
			res.SutOutvoted++
		} else {
			res.Backends[v.idx].Outvoted++
		}
		st.tr.Inc(coOutvoted)
		f := BackendFinding{
			Backend:  v.name,
			Kind:     bugdb.MajorityDisagreement,
			Logic:    cfg.Logics[int(rec.Task)/cfg.Iterations],
			Oracle:   label,
			Observed: v.verdict,
			ExitCode: v.exitCode,
			Stderr:   v.stderr,
			Retries:  v.retries,
			Task:     int(rec.Task),
		}
		if st.seenFinding(f) {
			continue
		}
		f.Reason = fmt.Sprintf("voted %s, outvoted %d-%d under quorum %d", v.verdict, winners, losers, cfg.Quorum)
		var defect solver.Defect
		if v.idx < 0 {
			// The SUT lost the vote: triage the bundle to the catalogued
			// defect the run fired, like a known-status soundness finding.
			if d, ok := primaryDefect(rec.Facts.Fired, bugdb.Soundness); ok {
				defect = d
				f.Defect = string(d)
			}
		}
		st.recordFinding(f)
		if st.aw != nil && live != nil {
			m := manifestFor(cfg, live, "backend-"+string(f.Kind), defect)
			m.Backend = f.Backend
			if v.idx >= 0 {
				m.BackendArgv = cfg.specs[v.idx].Argv
				m.BackendExit = v.exitCode
				m.BackendStderr = v.stderr
				m.BackendRetries = v.retries
			}
			m.Observed = f.Observed
			m.Reason = f.Reason
			m.Oracle = label
			m.Votes = voteVector(vs)
			m.Consensus = label
			st.aw.write(m, live.ancestors, live.testScript(), int(rec.Task))
		}
	}
	return label
}

// relationViolated reports whether a definite (orig, variant) verdict
// pair contradicts the derivation relation.
func relationViolated(rel mutate.Relation, orig, variant core.Status) bool {
	switch rel {
	case mutate.RelEquivalent:
		return orig != variant
	case mutate.RelWeakened:
		// original ⇒ variant: a sat original forces a sat variant.
		return orig == core.StatusSat && variant == core.StatusUnsat
	default: // RelStrengthened
		// variant ⇒ original: a sat variant forces a sat original.
		return variant == core.StatusSat && orig == core.StatusUnsat
	}
}

// classifyMetamorphic checks every voter's verdict pair against the
// variant's derivation relation. Each voter is compared only against
// itself — solver-vs-solver discrepancies are the majority policy's
// business — so a violation implicates exactly one solver with no
// reference solver in the loop.
func (st *runState) classifyMetamorphic(rec *taskRecord, live *taskOutcome) {
	cfg, res := st.cfg, st.res
	v := rec.Facts.Variant
	if v == nil {
		return
	}
	if v.Skip {
		res.MetamorphicSkips++
		st.tr.Inc(coPairSkips)
		return
	}
	res.MetamorphicPairs++
	st.tr.Inc(coPairs)
	rel := v.Relation

	record := func(idx int, name, origV, varV, reason string, exitCode int, stderr string, retries int) {
		if idx < 0 {
			res.SutViolations++
		} else {
			res.Backends[idx].Violations++
		}
		st.tr.Inc(coViolation)
		f := BackendFinding{
			Backend:  name,
			Kind:     bugdb.MetamorphicViolation,
			Logic:    cfg.Logics[int(rec.Task)/cfg.Iterations],
			Oracle:   rel.String(),
			Observed: origV + "/" + varV,
			Reason:   reason,
			ExitCode: exitCode,
			Stderr:   stderr,
			Retries:  retries,
			Task:     int(rec.Task),
		}
		if st.seenFinding(f) {
			return
		}
		var defect solver.Defect
		if idx < 0 {
			if d, ok := primaryDefect(append(append([]solver.Defect(nil), rec.Facts.Fired...), v.Fired...), bugdb.Soundness); ok {
				defect = d
				f.Defect = string(d)
			}
		}
		st.recordFinding(f)
		if st.aw == nil || live == nil {
			return
		}
		m := manifestFor(cfg, live, "backend-"+string(f.Kind), defect)
		m.Backend = f.Backend
		if idx >= 0 {
			m.BackendArgv = cfg.specs[idx].Argv
			m.BackendExit = exitCode
			m.BackendStderr = stderr
			m.BackendRetries = retries
		}
		m.Observed = f.Observed
		m.Reason = f.Reason
		m.Oracle = rel.String()
		m.MetaRelation = rel.String()
		m.MetaRules = live.variant.Rules
		m.VariantVerdicts = variantVector(cfg, v)
		st.aw.writeExtra(m, live.ancestors, live.testScript(), int(rec.Task),
			map[string]string{"variant.smt2": smtlib.Print(live.variant.Script)})
	}

	// The SUT checked against itself.
	run := rec.Facts
	oVote, oDef := sutVote(run.Observed, run.Crashed)
	vVote, vDef := sutVote(v.Observed, v.Crashed)
	if oDef && vDef && relationViolated(rel, oVote, vVote) {
		oLabel, vLabel := sutLabel(run.Observed, run.Crashed), sutLabel(v.Observed, v.Crashed)
		reason := fmt.Sprintf("verdict pair %s/%s violates %s relation", oLabel, vLabel, rel)
		record(-1, "sut", oLabel, vLabel, reason, -1, "", 0)
	}
	// Each backend checked against itself. The variant run can carry
	// fewer outputs than the primary (breaker opened between the two
	// solves); such pairs are incomplete and cannot violate.
	for i, o := range rec.Facts.Backends {
		if i >= len(v.Backends) {
			break
		}
		vo := v.Backends[i]
		oVote, oDef := backendStatus(o.Verdict)
		vVote, vDef := backendStatus(vo.Verdict)
		if !oDef || !vDef || !relationViolated(rel, oVote, vVote) {
			continue
		}
		reason := fmt.Sprintf("verdict pair %s/%s violates %s relation", o.Verdict.String(), vo.Verdict.String(), rel)
		record(i, cfg.specs[i].Name, o.Verdict.String(), vo.Verdict.String(),
			reason, vo.ExitCode, vo.Stderr, o.Retries+vo.Retries)
	}
}
