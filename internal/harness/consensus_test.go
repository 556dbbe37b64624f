package harness

import (
	"bytes"
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/backend"
	"repro/internal/bugdb"
	"repro/internal/core"
	"repro/internal/solver"
	"repro/internal/telemetry"
)

// consensusCC is the shared consensus-acceptance campaign: a wild-mode
// (unknown ground truth) QF_NRA campaign whose SUT is an otherwise
// clean cvc4sim 1.5 seeded with the guard-collapse soundness defect,
// cross-checked by two clean sibling releases. The model-validation
// oracle is off, so the consensus policies are the only oracles in
// play. At this seed the SUT loses the majority vote on several tasks
// — all with the same verdict signature, so they dedup to exactly one
// finding — and violates the metamorphic relation on several variant
// pairs.
func consensusCC() CampaignConfig {
	return CampaignConfig{
		SUT:               "cvc4sim",
		Release:           "1.5",
		Logics:            []string{"QF_NRA"},
		Iterations:        150,
		SeedPool:          8,
		Seed:              31,
		Mode:              "wild",
		Oracle:            "majority",
		DisableModelCheck: true,
		InjectDefects:     []string{string(solver.DefLeGuardCollapse)},
		Backends: []BackendConfig{
			{Sim: &SimBackendConfig{SUT: "cvc4sim", Release: "1.6"}},
			{Sim: &SimBackendConfig{SUT: "cvc4sim", Release: "1.7"}},
		},
	}
}

// TestMajorityOutvotesSeededDissenter is the majority-policy
// acceptance test: the seeded dissenter (the SUT itself) is outvoted
// by the clean backends on several tasks, all deduplicating to exactly
// one majority-disagreement finding triaged to the injected defect,
// with a replayable reproducer bundle recording the full vote vector.
func TestMajorityOutvotesSeededDissenter(t *testing.T) {
	cc := consensusCC()
	cc.ArtifactDir = t.TempDir()
	out, _ := runToCompletion(t, cc)
	res := out.Result

	if res.Tests == 0 || res.Quarantined != 0 {
		t.Fatalf("campaign shape off: tests=%d quarantined=%d", res.Tests, res.Quarantined)
	}
	// Every tested task has unknown status in wild mode, so the
	// majority policy voted on all of them: each either reached a
	// consensus or abstained.
	if res.OracleConsensus+res.OracleAbstained != res.Tests {
		t.Errorf("consensus %d + abstained %d != tests %d",
			res.OracleConsensus, res.OracleAbstained, res.Tests)
	}
	if res.OracleVotes == 0 || res.OracleConsensus == 0 {
		t.Fatalf("majority policy cast no votes: votes=%d consensus=%d", res.OracleVotes, res.OracleConsensus)
	}
	if res.SutOutvoted < 2 {
		t.Fatalf("SUT outvoted %d times, want several re-triggers to exercise dedup", res.SutOutvoted)
	}
	// The known-status funnel must stay untouched: unknown ground
	// truth means no soundness classification and no legacy
	// disagreements.
	if len(res.Bugs) != 0 || res.ReferenceDisagreements != 0 {
		t.Errorf("known-status funnel fired on unknown-status tasks: bugs=%d refDisagreements=%d",
			len(res.Bugs), res.ReferenceDisagreements)
	}
	for _, rep := range res.Backends {
		if rep.Disagreements != 0 || rep.Outvoted != 0 {
			t.Errorf("clean backend %s blamed: disagreements=%d outvoted=%d",
				rep.Name, rep.Disagreements, rep.Outvoted)
		}
	}

	// All re-triggers dedup to exactly one finding, against the SUT.
	if len(res.BackendFindings) != 1 {
		t.Fatalf("want exactly one deduplicated finding, got %+v", res.BackendFindings)
	}
	f := res.BackendFindings[0]
	if f.Kind != bugdb.MajorityDisagreement || f.Backend != "sut" {
		t.Fatalf("finding misattributed: %+v", f)
	}
	if f.Oracle != "unsat" || f.Observed != "sat" {
		t.Errorf("finding verdicts: oracle=%s observed=%s, want unsat/sat", f.Oracle, f.Observed)
	}
	if f.Defect != string(solver.DefLeGuardCollapse) {
		t.Errorf("SUT finding triaged to %q, want the injected defect", f.Defect)
	}
	if !strings.Contains(f.Reason, "outvoted") || !strings.Contains(f.Reason, "quorum 2") {
		t.Errorf("finding reason %q does not describe the vote", f.Reason)
	}

	// The funnel counters mirror the Result exactly.
	for name, want := range map[string]int{
		"yy_oracle_votes_total":     res.OracleVotes,
		"yy_oracle_consensus_total": res.OracleConsensus,
		"yy_oracle_abstained_total": res.OracleAbstained,
		"yy_oracle_outvoted_total":  res.SutOutvoted,
		"yy_backend_findings_total": len(res.BackendFindings),
	} {
		if got := out.Telemetry.Counter(name); got != int64(want) {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}

	// The reproducer bundle records the full vote vector and replays
	// exactly: same derived test, same verdict, same defect firing.
	if len(res.Artifacts) != 1 {
		t.Fatalf("want one bundle, got %v", res.Artifacts)
	}
	m, err := ReadManifest(res.Artifacts[0])
	if err != nil {
		t.Fatal(err)
	}
	if m.BugType != "backend-majority-disagreement" || m.Campaign.Oracle != "majority" {
		t.Errorf("manifest bug_type=%q oracle=%q", m.BugType, m.Campaign.Oracle)
	}
	if m.Campaign.Quorum != 2 || m.Consensus != "unsat" {
		t.Errorf("manifest quorum=%d consensus=%q, want 2/unsat", m.Campaign.Quorum, m.Consensus)
	}
	if len(m.Votes) != 3 || m.Votes[0] != "sut=sat" {
		t.Errorf("manifest votes %v do not record the full vector SUT-first", m.Votes)
	}
	rr, err := Replay(res.Artifacts[0])
	if err != nil {
		t.Fatal(err)
	}
	if !rr.Exact() {
		t.Errorf("majority bundle replay not exact: %+v", rr)
	}
}

// TestMajorityDeterminismAcrossThreadsResumeShards pins the consensus
// oracle's determinism contract: fingerprint, telemetry, JSONL trace,
// and bundle tree are byte-identical across worker counts, across a
// kill-and-resume cut, and across a 3-way shard/merge re-fold — the
// cross-shard finding dedup included.
func TestMajorityDeterminismAcrossThreadsResumeShards(t *testing.T) {
	cc := consensusCC()
	refCC := cc
	refCC.ArtifactDir = t.TempDir()
	ref, refTrace := runToCompletion(t, refCC)
	refTree := dirSnapshot(t, refCC.ArtifactDir)
	if len(ref.Result.BackendFindings) != 1 {
		t.Fatalf("reference campaign findings: %+v", ref.Result.BackendFindings)
	}

	// The trace carries the consensus annotations (schema 2).
	recs, err := DecodeTrace(bytes.NewReader(refTrace))
	if err != nil {
		t.Fatal(err)
	}
	consensused, abstained := 0, 0
	for _, rec := range recs {
		if rec.Schema != TraceSchema {
			t.Fatalf("trace record schema %d, want %d", rec.Schema, TraceSchema)
		}
		if rec.Status != "tested" {
			continue
		}
		if rec.OraclePolicy != "majority" {
			t.Fatalf("tested record missing oracle_policy: %+v", rec)
		}
		switch rec.Consensus {
		case "abstained":
			abstained++
		case "sat", "unsat":
			consensused++
		default:
			t.Fatalf("tested record consensus %q", rec.Consensus)
		}
	}
	if consensused != ref.Result.OracleConsensus || abstained != ref.Result.OracleAbstained {
		t.Errorf("trace consensus annotations %d/%d, result says %d/%d",
			consensused, abstained, ref.Result.OracleConsensus, ref.Result.OracleAbstained)
	}

	// Worker counts are a pure speedup.
	for _, threads := range []int{2, 4} {
		tc := cc
		tc.Threads = threads
		tc.ArtifactDir = t.TempDir()
		got, gotTrace := runToCompletion(t, tc)
		if !bytes.Equal(got.Result.Fingerprint(), ref.Result.Fingerprint()) {
			t.Errorf("threads=%d fingerprint diverged", threads)
		}
		if !reflect.DeepEqual(got.Telemetry, ref.Telemetry) {
			t.Errorf("threads=%d telemetry diverged", threads)
		}
		if !bytes.Equal(gotTrace, refTrace) {
			t.Errorf("threads=%d trace diverged", threads)
		}
		if tree := dirSnapshot(t, tc.ArtifactDir); !reflect.DeepEqual(tree, refTree) {
			t.Errorf("threads=%d bundle tree diverged", threads)
		}
	}

	// Kill-and-resume across the recording frontier: the checkpoint
	// round-trips the consensus scalars and the dedup set, so the
	// resumed leg neither loses nor re-records the finding.
	t.Run("resume", func(t *testing.T) {
		rc := cc
		rc.ArtifactDir = t.TempDir()
		var tb bytes.Buffer
		paused, err := Start(rc, RunOptions{Telemetry: telemetry.NewTracker(), Trace: &tb, StopAfter: 70})
		if err != nil {
			t.Fatal(err)
		}
		if !paused.Paused {
			t.Fatal("campaign did not pause")
		}
		data, err := EncodeCheckpoint(paused.Checkpoint)
		if err != nil {
			t.Fatal(err)
		}
		cp, err := DecodeCheckpoint(data)
		if err != nil {
			t.Fatal(err)
		}
		// Each leg gets a fresh tracker: the checkpoint carries the
		// accumulated telemetry, and the final outcome reports the total.
		done, err := Resume(cp, RunOptions{Telemetry: telemetry.NewTracker(), Trace: &tb, Threads: 3})
		if err != nil {
			t.Fatal(err)
		}
		if done.Paused {
			t.Fatal("resumed campaign paused again")
		}
		if !bytes.Equal(done.Result.Fingerprint(), ref.Result.Fingerprint()) {
			t.Errorf("resumed fingerprint diverged")
		}
		if !reflect.DeepEqual(done.Telemetry, ref.Telemetry) {
			t.Errorf("resumed telemetry diverged")
		}
		if !bytes.Equal(tb.Bytes(), refTrace) {
			t.Errorf("concatenated leg traces diverged (%d vs %d bytes)", tb.Len(), len(refTrace))
		}
		if tree := dirSnapshot(t, rc.ArtifactDir); !reflect.DeepEqual(tree, refTree) {
			t.Errorf("resumed bundle tree diverged")
		}
	})

	// 3-shard split, merged: the merge re-fold dedups the finding
	// re-triggers across shards and re-sums the consensus scalars.
	t.Run("shard-merge", func(t *testing.T) {
		const k = 3
		shardRoot := t.TempDir()
		envs := make([]*Envelope, k)
		for s := 0; s < k; s++ {
			sc := cc
			sc.Shards, sc.Shard = k, s
			sc.ArtifactDir = filepath.Join(shardRoot, fmt.Sprintf("sh%d", s))
			var tb bytes.Buffer
			out, err := Start(sc, RunOptions{Telemetry: telemetry.NewTracker(), Trace: &tb, Threads: s + 1})
			if err != nil {
				t.Fatalf("shard %d: %v", s, err)
			}
			envs[s] = out.Envelope
		}
		mergedDir := t.TempDir()
		m, err := Merge(envs, mergedDir)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(m.Result.Fingerprint(), ref.Result.Fingerprint()) {
			t.Errorf("merged fingerprint diverged:\nref %s\ngot %s",
				ref.Result.Fingerprint(), m.Result.Fingerprint())
		}
		if !reflect.DeepEqual(m.Telemetry, ref.Telemetry) {
			t.Errorf("merged telemetry diverged")
		}
		if !bytes.Equal(m.Trace, refTrace) {
			t.Errorf("merged trace diverged")
		}
		if tree := dirSnapshot(t, mergedDir); !reflect.DeepEqual(tree, refTree) {
			t.Errorf("merged bundle tree diverged:\nref %v\ngot %v", keysOf(refTree), keysOf(tree))
		}
	})
}

// TestMetamorphicFindsDefectKnownControlMisses is the metamorphic
// acceptance test: on unknown-ground-truth formulas the metamorphic
// policy reproduces the injected catalogued defect through
// relation-violating verdict pairs, while the known-policy control on
// the same coordinates finds nothing at all.
func TestMetamorphicFindsDefectKnownControlMisses(t *testing.T) {
	cc := consensusCC()
	cc.Oracle = "metamorphic"
	cc.Backends = nil
	cc.ArtifactDir = t.TempDir()
	out, _ := runToCompletion(t, cc)
	res := out.Result

	if res.MetamorphicPairs+res.MetamorphicSkips != res.Tests {
		t.Errorf("pairs %d + skips %d != tests %d", res.MetamorphicPairs, res.MetamorphicSkips, res.Tests)
	}
	if res.MetamorphicPairs == 0 || res.SutViolations == 0 {
		t.Fatalf("metamorphic policy inert: pairs=%d violations=%d", res.MetamorphicPairs, res.SutViolations)
	}
	if len(res.BackendFindings) == 0 {
		t.Fatal("violations recorded no findings")
	}
	reproduced := false
	for _, f := range res.BackendFindings {
		if f.Kind != bugdb.MetamorphicViolation || f.Backend != "sut" {
			t.Fatalf("unexpected finding %+v", f)
		}
		orig, variant, ok := strings.Cut(f.Observed, "/")
		if !ok || orig == variant {
			t.Errorf("finding observed %q is not a violating verdict pair", f.Observed)
		}
		if f.Defect == string(solver.DefLeGuardCollapse) {
			reproduced = true
		}
	}
	if !reproduced {
		t.Error("no violation triaged to the injected catalogued defect")
	}
	for name, want := range map[string]int{
		"yy_oracle_pairs_total":      res.MetamorphicPairs,
		"yy_oracle_pair_skips_total": res.MetamorphicSkips,
		"yy_oracle_violations_total": res.SutViolations,
	} {
		if got := out.Telemetry.Counter(name); got != int64(want) {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}

	// Each bundle ships the variant script and replays exactly —
	// including re-deriving the same variant from the meta seed.
	if len(res.Artifacts) == 0 {
		t.Fatal("no bundles written")
	}
	for _, p := range res.Artifacts {
		m, err := ReadManifest(p)
		if err != nil {
			t.Fatal(err)
		}
		if m.Campaign.Oracle != "metamorphic" || m.MetaRelation == "" || len(m.VariantVerdicts) == 0 {
			t.Errorf("bundle manifest missing metamorphic fields: %+v", m)
		}
		rr, err := Replay(p)
		if err != nil {
			t.Fatal(err)
		}
		if !rr.VariantMatches {
			t.Errorf("replay did not re-derive the recorded variant: %+v", rr)
		}
		if !rr.Exact() {
			t.Errorf("metamorphic bundle replay not exact: %+v", rr)
		}
	}

	// The control arm: same campaign coordinates, known-status policy.
	ctl := consensusCC()
	ctl.Oracle = "known"
	ctl.Backends = nil
	ctlOut, _ := runToCompletion(t, ctl)
	if n := len(ctlOut.Result.Bugs) + len(ctlOut.Result.BackendFindings); n != 0 {
		t.Errorf("known-policy control found %d findings on unknown-status formulas", n)
	}
	for _, name := range []string{"yy_oracle_pairs_total", "yy_oracle_violations_total", "yy_oracle_votes_total"} {
		if got := ctlOut.Telemetry.Counter(name); got != 0 {
			t.Errorf("control run incremented %s to %d", name, got)
		}
	}
}

// TestUnknownOracleBackendAbstains is the regression test for the
// disagreement predicate: a definite backend verdict on a task with
// unknown ground truth is not a disagreement — there is nothing to
// disagree with. The buggy predicate ((verdict==sat) != (oracle==sat))
// flagged every sat verdict on an unknown-status task.
func TestUnknownOracleBackendAbstains(t *testing.T) {
	cfg := CampaignConfig{
		SUT:        "cvc4sim",
		Release:    "1.5",
		Logics:     []string{"QF_NRA"},
		Iterations: 60,
		SeedPool:   8,
		Seed:       5,
		Threads:    2,
		Mode:       ModeWild,
		Backends:   []BackendConfig{{Sim: &SimBackendConfig{SUT: "cvc4sim", Release: "1.6"}}},
	}
	res, err := runCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Backends[0]
	if rep.Sat == 0 {
		t.Fatal("backend never answered sat; the regression is not exercised")
	}
	if rep.Disagreements != 0 {
		t.Errorf("backend charged %d disagreements against unknown ground truth", rep.Disagreements)
	}
	for _, f := range res.BackendFindings {
		if f.Kind == bugdb.Disagreement {
			t.Errorf("disagreement finding on an unknown-status task: %+v", f)
		}
	}
}

// TestContradictionPredicates pins the one tri-state contradiction
// predicate over every voter: SUT results through sutVerdict, and
// backend verdicts. Contradiction requires a definite oracle and the
// opposite definite verdict; unknown on either side abstains, and so
// do crashes, timeouts and the backend failure verdicts. It also pins
// sutVerdict's label, which traces, votes and manifests print, for
// every solver result, crashed or not.
func TestContradictionPredicates(t *testing.T) {
	sut := func(r solver.Result) backend.Verdict { return sutVerdict(r, false) }
	cases := []struct {
		v      backend.Verdict
		oracle core.Status
		want   bool
	}{
		{sut(solver.ResSat), core.StatusUnsat, true},
		{sut(solver.ResUnsat), core.StatusSat, true},
		{sut(solver.ResSat), core.StatusSat, false},
		{sut(solver.ResUnsat), core.StatusUnsat, false},
		{sut(solver.ResSat), core.StatusUnknown, false},
		{sut(solver.ResUnsat), core.StatusUnknown, false},
		{sut(solver.ResUnknown), core.StatusSat, false},
		{sut(solver.ResTimeout), core.StatusUnsat, false},
		{sutVerdict(solver.ResSat, true), core.StatusUnsat, false},
		{sutVerdict(solver.ResUnsat, true), core.StatusSat, false},
		{backend.Sat, core.StatusUnsat, true},
		{backend.Unsat, core.StatusSat, true},
		{backend.Sat, core.StatusSat, false},
		{backend.Unsat, core.StatusUnsat, false},
		{backend.Sat, core.StatusUnknown, false},
		{backend.Unsat, core.StatusUnknown, false},
		{backend.Unknown, core.StatusSat, false},
		{backend.Timeout, core.StatusUnsat, false},
		{backend.Crash, core.StatusSat, false},
		{backend.Garbled, core.StatusUnsat, false},
		{backend.Fault, core.StatusSat, false},
		{backend.Quarantined, core.StatusUnsat, false},
	}
	for _, c := range cases {
		if got := contradicts(c.v, c.oracle); got != c.want {
			t.Errorf("contradicts(%v, %v) = %v, want %v", c.v, c.oracle, got, c.want)
		}
	}
	labels := []struct {
		res     solver.Result
		crashed bool
		want    string
	}{
		{solver.ResSat, false, "sat"},
		{solver.ResUnsat, false, "unsat"},
		{solver.ResUnknown, false, "unknown"},
		{solver.ResTimeout, false, "timeout"},
		{solver.ResSat, true, "crash"},
		{solver.ResUnsat, true, "crash"},
		{solver.ResUnknown, true, "crash"},
		{solver.ResTimeout, true, "crash"},
	}
	for _, c := range labels {
		if got := sutVerdict(c.res, c.crashed).String(); got != c.want {
			t.Errorf("sutVerdict(%v, %v) = %q, want %q", c.res, c.crashed, got, c.want)
		}
	}
}

// TestQuorumGatesConsensus: a quorum larger than the voter pool makes
// every vote abstain, so the majority policy reports nothing at all.
func TestQuorumGatesConsensus(t *testing.T) {
	cc := consensusCC()
	cc.Quorum = 4 // three voters can never meet it
	out, _ := runToCompletion(t, cc)
	res := out.Result
	if res.OracleConsensus != 0 || res.SutOutvoted != 0 {
		t.Errorf("consensus reached under unmeetable quorum: consensus=%d outvoted=%d",
			res.OracleConsensus, res.SutOutvoted)
	}
	if res.OracleAbstained != res.Tests {
		t.Errorf("abstained=%d, want every tested task (%d)", res.OracleAbstained, res.Tests)
	}
	if len(res.BackendFindings) != 0 {
		t.Errorf("findings under unmeetable quorum: %+v", res.BackendFindings)
	}
}

// TestConsensusValidation covers the new configuration guards at both
// config layers: unknown policies, negative quorums, and the reserved
// voter name "sut".
func TestConsensusValidation(t *testing.T) {
	bad := consensusCC()
	bad.Oracle = "plurality"
	if err := bad.Validate(); err == nil {
		t.Error("unknown oracle policy accepted")
	}
	bad = consensusCC()
	bad.Quorum = -1
	if err := bad.Validate(); err == nil {
		t.Error("negative quorum accepted")
	}
	bad = consensusCC()
	bad.Backends = append(bad.Backends, BackendConfig{Process: &ProcessBackendConfig{Name: "sut", Path: "/bin/true"}})
	if err := bad.Validate(); err == nil {
		t.Error("reserved backend name sut accepted")
	}

	cfg := CampaignConfig{SUT: "z3sim", Iterations: 2, SeedPool: 2, Seed: 1, Oracle: "plurality"}
	if _, err := runCampaign(cfg); err == nil {
		t.Error("harness accepted unknown oracle policy")
	}
	cfg = CampaignConfig{SUT: "z3sim", Iterations: 2, SeedPool: 2, Seed: 1, Quorum: -2}
	if _, err := runCampaign(cfg); err == nil {
		t.Error("harness accepted negative quorum")
	}
	cfg = CampaignConfig{SUT: "z3sim", Iterations: 2, SeedPool: 2, Seed: 1,
		Backends: []BackendConfig{{Process: &ProcessBackendConfig{Name: "sut", Path: "/bin/true"}}}}
	if _, err := runCampaign(cfg); err == nil {
		t.Error("harness accepted reserved backend name sut")
	}
}

// TestOracleCounterInvariants is the counter↔report invariant suite:
// for every thread count, and for a shard/merge re-fold, the
// yy_backend_* and yy_oracle_* counter totals equal the corresponding
// Result field sums exactly — each counter is incremented next to the
// field it mirrors in the in-order classification stage, so any drift
// means a counting path bypassed it.
func TestOracleCounterInvariants(t *testing.T) {
	cc := consensusCC()
	cc.Oracle = "auto" // both policies live, all counters in play

	check := func(t *testing.T, res *Result, snap telemetry.Snapshot) {
		t.Helper()
		var checks, skipped, timeouts, crashes, garbled, retries, disagreements, outvoted, violations int
		for _, rep := range res.Backends {
			checks += rep.Checks
			skipped += rep.Skipped
			timeouts += rep.Timeouts
			crashes += rep.Crashes
			garbled += rep.Garbled
			retries += rep.Retries
			disagreements += rep.Disagreements
			outvoted += rep.Outvoted
			violations += rep.Violations
		}
		for name, want := range map[string]int{
			"yy_backend_checks_total":        checks,
			"yy_backend_skipped_total":       skipped,
			"yy_backend_timeouts_total":      timeouts,
			"yy_backend_crashes_total":       crashes,
			"yy_backend_garbled_total":       garbled,
			"yy_backend_retries_total":       retries,
			"yy_backend_disagreements_total": disagreements,
			"yy_backend_findings_total":      len(res.BackendFindings),
			"yy_oracle_votes_total":          res.OracleVotes,
			"yy_oracle_consensus_total":      res.OracleConsensus,
			"yy_oracle_abstained_total":      res.OracleAbstained,
			"yy_oracle_outvoted_total":       res.SutOutvoted + outvoted,
			"yy_oracle_pairs_total":          res.MetamorphicPairs,
			"yy_oracle_pair_skips_total":     res.MetamorphicSkips,
			"yy_oracle_violations_total":     res.SutViolations + violations,
		} {
			if got := snap.Counter(name); got != int64(want) {
				t.Errorf("%s = %d, want %d", name, got, want)
			}
		}
	}

	for _, threads := range []int{1, 2, 4} {
		tc := cc
		tc.Threads = threads
		out, _ := runToCompletion(t, tc)
		t.Run(fmt.Sprintf("threads=%d", threads), func(t *testing.T) {
			if out.Result.MetamorphicPairs == 0 || out.Result.OracleVotes == 0 {
				t.Fatal("auto policy inert; the invariants are vacuous")
			}
			check(t, out.Result, out.Telemetry)
		})
	}

	t.Run("shard-merge", func(t *testing.T) {
		const k = 3
		envs := make([]*Envelope, k)
		for s := 0; s < k; s++ {
			sc := cc
			sc.Shards, sc.Shard = k, s
			out, err := Start(sc, RunOptions{Telemetry: telemetry.NewTracker()})
			if err != nil {
				t.Fatalf("shard %d: %v", s, err)
			}
			envs[s] = out.Envelope
		}
		m, err := Merge(envs, "")
		if err != nil {
			t.Fatal(err)
		}
		check(t, m.Result, m.Telemetry)
	})
}
