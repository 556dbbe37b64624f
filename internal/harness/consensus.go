package harness

import (
	"fmt"
	"slices"

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

// voter is one participant in a consensus vote on one solve: the
// solver under test (idx -1, pseudo-name "sut", exit code -1) or a
// cross-check backend, with its output for the solve — the classified
// verdict plus the post-mortem fields a finding would carry.
type voter struct {
	idx  int // backend index; -1 for the SUT
	name string
	out  backendRun
}

// voters appends a solve's vote vector to dst in canonical order: the
// SUT first, then the backends in configuration order. Every voter
// appears — abstainers included — so the manifest records the full
// vector. Callers pass a small stack array's slice as dst, so a vote
// allocates nothing for up to three backends.
func voters(dst []voter, cfg *campaign, observed solver.Result, crashed bool, bks []backendRun) []voter {
	dst = append(dst, voter{idx: -1, name: "sut", out: backendRun{Verdict: sutVerdict(observed, crashed), ExitCode: -1}})
	for i, o := range bks {
		dst = append(dst, voter{idx: i, name: cfg.specs[i].Name, out: o})
	}
	return dst
}

// voteVector renders a vote vector ("voter=verdict") for the
// reproducer manifest.
func voteVector(vs []voter) []string {
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = v.name + "=" + v.out.Verdict.String()
	}
	return out
}

// classifyConsensus applies the configured consensus policies to one
// unknown-status task. It runs after classify/classifyBackends in the
// fold — known-status tasks (and the known policy) never reach the
// body, so the legacy funnel is untouched.
func (st *runState) classifyConsensus(rec *taskRecord, lv *live, fl *taskFlags) {
	if rec.Oracle != core.StatusUnknown {
		return
	}
	if st.cfg.Oracle == OracleMajority || st.cfg.Oracle == OracleAuto {
		fl.consensus = st.classifyMajority(rec, lv)
	}
	if st.cfg.Oracle == OracleMetamorphic || st.cfg.Oracle == OracleAuto {
		st.classifyMetamorphic(rec, lv)
	}
}

// classifyMajority folds all voters' definite verdicts into a
// consensus and attributes a finding to each outvoted voter. A vote
// with fewer than Quorum definite verdicts — or a tie — abstains: an
// abstention is a statement about the vote, not about any solver, so
// it produces no finding. It returns the vote's outcome: "sat",
// "unsat", or "abstained".
func (st *runState) classifyMajority(rec *taskRecord, lv *live) string {
	cfg, res := st.cfg, st.res
	run := rec.Facts
	var buf [4]voter
	vs := voters(buf[:0], cfg, run.Observed, run.Crashed, run.Backends)
	sat, unsat := 0, 0
	for _, v := range vs {
		if !v.out.Verdict.Definite() {
			continue
		}
		res.OracleVotes++
		st.tr.Inc(coVotes)
		if v.out.Verdict == backend.Sat {
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
	consensus, winners, losers := backend.Sat, sat, unsat
	if unsat > sat {
		consensus, winners, losers = backend.Unsat, unsat, sat
	}
	res.OracleConsensus++
	st.tr.Inc(coConsensus)
	label := consensus.String()
	for _, v := range vs {
		if !v.out.Verdict.Definite() || v.out.Verdict == consensus {
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
			Observed: v.out.Verdict.String(),
			Reason:   fmt.Sprintf("voted %s, outvoted %d-%d under quorum %d", v.out.Verdict, winners, losers, cfg.Quorum),
			ExitCode: v.out.ExitCode,
			Stderr:   v.out.Stderr,
			Retries:  v.out.Retries,
			Task:     int(rec.Task),
		}
		if v.idx < 0 {
			// The SUT lost the vote: triage the bundle to the catalogued
			// defect the run fired, like a known-status soundness finding.
			if d, ok := primaryDefect(run.Fired, bugdb.Soundness); ok {
				f.Defect = string(d)
			}
		}
		st.fileFinding(rec, lv, v.idx, f, func(m *Manifest) map[string]string {
			m.Votes, m.Consensus = voteVector(vs), label
			return nil
		})
	}
	return label
}

// relationViolated reports whether a definite (orig, variant) verdict
// pair contradicts the derivation relation.
func relationViolated(rel mutate.Relation, orig, variant backend.Verdict) bool {
	switch rel {
	case mutate.RelEquivalent:
		return orig != variant
	case mutate.RelWeakened:
		// original ⇒ variant: a sat original forces a sat variant.
		return orig == backend.Sat && variant == backend.Unsat
	default: // RelStrengthened
		// variant ⇒ original: a sat variant forces a sat original.
		return variant == backend.Sat && orig == backend.Unsat
	}
}

// classifyMetamorphic checks every voter's verdict pair against the
// variant's derivation relation. Each voter is compared only against
// itself — solver-vs-solver discrepancies are the majority policy's
// business — so a violation implicates exactly one solver with no
// reference solver in the loop.
func (st *runState) classifyMetamorphic(rec *taskRecord, lv *live) {
	cfg, res := st.cfg, st.res
	run, v := rec.Facts, rec.Facts.Variant
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
	var pbuf, vbuf [4]voter
	prim := voters(pbuf[:0], cfg, run.Observed, run.Crashed, run.Backends)
	vars := voters(vbuf[:0], cfg, v.Observed, v.Crashed, v.Backends)
	for i, p := range prim {
		// A record carries either no variant backend outputs or one per
		// backend (a breaker-skipped check is a Quarantined verdict, not
		// a missing entry); a voter without a variant output has no pair.
		if i >= len(vars) {
			break
		}
		q := vars[i]
		if !p.out.Verdict.Definite() || !q.out.Verdict.Definite() || !relationViolated(rel, p.out.Verdict, q.out.Verdict) {
			continue
		}
		if p.idx < 0 {
			res.SutViolations++
		} else {
			res.Backends[p.idx].Violations++
		}
		st.tr.Inc(coViolation)
		f := BackendFinding{
			Backend:  p.name,
			Kind:     bugdb.MetamorphicViolation,
			Logic:    cfg.Logics[int(rec.Task)/cfg.Iterations],
			Oracle:   rel.String(),
			Observed: p.out.Verdict.String() + "/" + q.out.Verdict.String(),
			Reason:   fmt.Sprintf("verdict pair %s/%s violates %s relation", p.out.Verdict, q.out.Verdict, rel),
			ExitCode: q.out.ExitCode,
			Stderr:   q.out.Stderr,
			Retries:  p.out.Retries + q.out.Retries,
			Task:     int(rec.Task),
		}
		if p.idx < 0 {
			if d, ok := primaryDefect(slices.Concat(run.Fired, v.Fired), bugdb.Soundness); ok {
				f.Defect = string(d)
			}
		}
		st.fileFinding(rec, lv, p.idx, f, func(m *Manifest) map[string]string {
			m.MetaRelation, m.MetaRules, m.VariantVerdicts = rel.String(), lv.variant.Rules, voteVector(vars)
			return map[string]string{"variant.smt2": smtlib.Print(lv.variant.Script)}
		})
	}
}
