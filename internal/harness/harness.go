// Package harness implements YinYang's testing loop (the paper's
// Algorithm 1) and the full experiment suite: seed-pool management,
// fusion or concatenation of random seed pairs, running a solver under
// test with crash capture and resource classification, triaging
// findings into deduplicated bugs, and parallel campaign execution.
package harness

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"runtime/debug"
	"sort"
	"sync"

	"repro/internal/analysis"
	"repro/internal/backend"
	"repro/internal/bugdb"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/gen"
	"repro/internal/mutate"
	"repro/internal/smtlib"
	"repro/internal/solver"
	"repro/internal/telemetry"
	"repro/internal/watchdog"
)

// RunResult is one solver-under-test invocation with crash capture.
type RunResult struct {
	Result solver.Result
	// Model is the solver's reported witness when Result is sat; the
	// model-validation oracle evaluates it against the input script.
	Model        eval.Model
	Reason       string
	Crashed      bool
	CrashMsg     string
	DefectsFired []solver.Defect
	// InternalFault marks a panic that was NOT a simulated solver crash
	// (*solver.CrashError): our own solver implementation failing. Such
	// runs must never count toward the crash-bug totals — they are our
	// bug, not the SUT's — so the harness quarantines the input instead.
	InternalFault bool
	FaultMsg      string
	FaultStack    string
}

// RunSolver invokes the solver on a script, recovering crash-defect
// panics the way the paper's harness observes solver segfaults. Any
// other panic is the testing tool itself failing; it is captured with
// its stack and reported as an internal fault, not a finding.
func RunSolver(s *solver.Solver, sc *smtlib.Script) (out RunResult) {
	defer func() {
		if r := recover(); r != nil {
			if ce, ok := r.(*solver.CrashError); ok {
				out.Crashed = true
				out.CrashMsg = ce.Error()
				out.DefectsFired = append(out.DefectsFired, ce.Site)
			} else {
				out.InternalFault = true
				out.FaultMsg = fmt.Sprint(r)
				out.FaultStack = string(debug.Stack())
			}
		}
	}()
	res := s.SolveScript(sc)
	return RunResult{
		Result:       res.Result,
		Model:        res.Model,
		Reason:       res.Reason,
		DefectsFired: res.DefectsFired,
	}
}

// Bug is one deduplicated finding.
type Bug struct {
	Defect   solver.Defect
	Kind     bugdb.BugType
	Logic    gen.Logic
	Oracle   core.Status
	Observed solver.Result
	Script   *smtlib.Script
	// Ancestors are the two seeds whose fusion triggered the bug
	// (used by the RQ4 retrigger experiment). Mutation findings carry
	// their single ancestor in both slots.
	Ancestors [2]*core.Seed
	// Mode is the fusion mode that triggered the bug (fusion tasks only).
	Mode core.Mode
	// Rules lists the applied mutation rules (mutation tasks only).
	Rules []string
	// Tasks lists every global task id that triggered this defect, in
	// classification order: Tasks[0] is the recording trigger, the rest
	// are the re-triggers counted in Result.Duplicates. Checkpoints and
	// shard merging rely on these to reconstruct dedup state exactly.
	Tasks []int
}

// Campaign modes: how a campaign derives test cases from seeds
// (CampaignConfig.Mode).
const (
	// ModeFusion runs the paper's semantic-fusion pipeline (default).
	ModeFusion = "fusion"
	// ModeMutate runs type-aware operator mutation of single seeds.
	ModeMutate = "mutate"
	// ModeWild mutates single seeds with the polarity constraint
	// removed: the derived test's satisfiability is unknown by
	// construction, so the known-status oracle abstains and only the
	// consensus policies (majority, metamorphic) can judge it.
	ModeWild = "wild"
)

// Oracle policies: how tested tasks are judged (CampaignConfig.Oracle).
// The known-status oracle always applies where it can; the consensus
// policies add coverage for tasks whose ground truth no generator
// constructed (oracle "unknown" — wild mutants), where the known-status
// oracle abstains.
const (
	// OracleKnown judges only against constructed ground truth
	// (default). Unknown-status tasks pass through unjudged.
	OracleKnown = "known"
	// OracleMajority folds all definite verdicts per unknown-status
	// task — the SUT's and every backend's — and attributes a
	// MajorityDisagreement finding to each outvoted voter, subject to
	// CampaignConfig.Quorum.
	OracleMajority = "majority"
	// OracleMetamorphic derives a variant with a known sat/unsat-
	// preserving relation for each unknown-status task and flags any
	// solver whose verdict pair violates the relation against itself.
	OracleMetamorphic = "metamorphic"
	// OracleAuto runs both consensus policies on unknown-status tasks.
	OracleAuto = "auto"
)

// Tally is the campaign's scalar books: every per-occurrence counter
// the in-order classification stage keeps. Result and the saved
// classification state embed it, so a counter has one definition, one
// JSON layout (encoding/json inlines the embedded struct, tags and
// field order included), one validation rule, and one sum.
type Tally struct {
	Tests    int `json:"tests"`
	Unknowns int `json:"unknowns,omitempty"`
	// Duplicates counts additional triggers of already-found defects.
	Duplicates int `json:"duplicates,omitempty"`
	// ReferenceDisagreements counts oracle mismatches with no defect
	// fired — these would indicate a bug in the reference solver itself
	// and must be zero.
	ReferenceDisagreements int `json:"reference_disagreements,omitempty"`
	// InvalidInputs counts fused scripts rejected by the static
	// verification gate (internal/analysis) — generator or fusion
	// defects triaged separately from solver verdicts.
	InvalidInputs int `json:"invalid_inputs,omitempty"`
	// Timeouts counts solves halted by fuel exhaustion. Those caused by
	// a performance defect also surface as Performance bugs; the rest
	// are genuinely hard instances.
	Timeouts int `json:"timeouts,omitempty"`
	// Quarantined counts inputs withdrawn from classification: internal
	// faults of our own solver, and runs cut off by the wall-clock
	// watchdog. They never count as findings.
	Quarantined int `json:"quarantined,omitempty"`

	// Majority-policy tallies (unknown-status tasks only). OracleVotes
	// sums the definite votes cast; each judged task counts once under
	// either OracleConsensus or OracleAbstained; SutOutvoted counts the
	// SUT's outvoted verdicts, re-triggers included (the per-backend
	// analogue lives in BackendReport.Outvoted). omitempty keeps
	// known-policy documents byte-identical to pre-consensus ones.
	OracleVotes     int `json:"oracle_votes,omitempty"`
	OracleConsensus int `json:"oracle_consensus,omitempty"`
	OracleAbstained int `json:"oracle_abstained,omitempty"`
	SutOutvoted     int `json:"sut_outvoted,omitempty"`
	// Metamorphic-policy tallies. MetamorphicPairs counts tasks with a
	// derived variant pair; MetamorphicSkips counts unknown-status tasks
	// where no relation-preserving variant could be derived;
	// SutViolations counts the SUT's pair-relation violations,
	// re-triggers included (per-backend: BackendReport.Violations).
	MetamorphicPairs int `json:"metamorphic_pairs,omitempty"`
	MetamorphicSkips int `json:"metamorphic_skips,omitempty"`
	SutViolations    int `json:"sut_violations,omitempty"`
}

// namedCount addresses one counter of a tally or report by its
// serialized name, for validation and summation.
type namedCount struct {
	name string
	v    *int
}

// counts lists every counter of the tally; adding a counter to Tally
// means adding it here too.
func (t *Tally) counts() []namedCount {
	return []namedCount{
		{"tests", &t.Tests}, {"unknowns", &t.Unknowns}, {"duplicates", &t.Duplicates},
		{"reference_disagreements", &t.ReferenceDisagreements},
		{"invalid_inputs", &t.InvalidInputs}, {"timeouts", &t.Timeouts},
		{"quarantined", &t.Quarantined},
		{"oracle_votes", &t.OracleVotes}, {"oracle_consensus", &t.OracleConsensus},
		{"oracle_abstained", &t.OracleAbstained}, {"sut_outvoted", &t.SutOutvoted},
		{"metamorphic_pairs", &t.MetamorphicPairs},
		{"metamorphic_skips", &t.MetamorphicSkips},
		{"sut_violations", &t.SutViolations},
	}
}

// addCounts sums src into dst, counter by counter; both lists come
// from the same counts method.
func addCounts(dst, src []namedCount) {
	for i := range dst {
		*dst[i].v += *src[i].v
	}
}

func (t *Tally) add(o Tally) { addCounts(t.counts(), o.counts()) }

// Result is the outcome of a campaign.
type Result struct {
	Tally
	Bugs []Bug // deduplicated by defect site
	// Artifacts lists reproducer bundle directories written this
	// campaign (empty unless CampaignConfig.ArtifactDir is set).
	Artifacts []string
	// Backends holds one health summary per configured cross-check
	// backend, in CampaignConfig.Backends order.
	Backends []BackendReport
	// BackendFindings lists the deduplicated cross-check observations:
	// verdict disagreements, contained backend failures, and consensus-
	// oracle findings. They are kept apart from Bugs — they implicate a
	// specific solver (a backend, or the SUT as the "sut" pseudo-voter),
	// not only a catalogued defect of the SUT.
	BackendFindings []BackendFinding
}

// BugByDefect returns the bug for a defect, if found.
func (r *Result) BugByDefect(d solver.Defect) (Bug, bool) {
	for _, b := range r.Bugs {
		if b.Defect == d {
			return b, true
		}
	}
	return Bug{}, false
}

// Deterministic seed derivation. Every random stream in a campaign is
// keyed by (campaign seed, logic-name hash, role, index) through a
// splitmix-style finalizer, so pool contents and per-task streams are
// functions of the configuration alone — never of scheduling, thread
// count, or execution order. Hashing the logic *name* (rather than its
// length, as an earlier version did) keeps equal-length logics such as
// QF_LIA/QF_LRA/QF_NRA on distinct streams.
const (
	seedDomainPool uint64 = 0x706f6f6c // "pool"
	seedDomainTask uint64 = 0x7461736b // "task"
	seedDomainMeta uint64 = 0x6d657461 // "meta" — metamorphic variant derivation
)

func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

func hashName(s string) uint64 {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * 1099511628211
	}
	return h
}

// logicSeed derives the base stream for a logic within a campaign.
func logicSeed(seed int64, logic gen.Logic) int64 {
	return int64(mix64(uint64(seed) ^ hashName(string(logic))))
}

// poolSeed keys the generator for one corpus slot (a sat or unsat seed
// position), so vetting can run on any worker in any order.
func poolSeed(seed int64, logic gen.Logic, slot int, status core.Status) int64 {
	h := uint64(seed) ^ hashName(string(logic)) ^ seedDomainPool
	idx := uint64(slot) << 1
	if status == core.StatusUnsat {
		idx |= 1
	}
	return int64(mix64(mix64(h) + idx*0x9e3779b97f4a7c15))
}

// taskSeed keys the RNG of one fusion+solve task.
func taskSeed(seed int64, logic gen.Logic, iter int) int64 {
	h := uint64(seed) ^ hashName(string(logic)) ^ seedDomainTask
	return int64(mix64(mix64(h) + uint64(iter)*0x9e3779b97f4a7c15))
}

// metaSeed keys the RNG of a task's metamorphic variant derivation — a
// separate domain, so arming the metamorphic policy never perturbs the
// task's own stream (the primary test stays byte-identical to a
// known-policy run of the same configuration).
func metaSeed(seed int64, logic gen.Logic, iter int) int64 {
	h := uint64(seed) ^ hashName(string(logic)) ^ seedDomainMeta
	return int64(mix64(mix64(h) + uint64(iter)*0x9e3779b97f4a7c15))
}

// mutation reports whether the campaign's tasks derive by (single-seed)
// mutation rather than fusion.
func (c *campaign) mutation() bool { return c.Mode == ModeMutate || c.Mode == ModeWild }

// familyKey identifies the seed family of a task: two tasks are in the
// same family exactly when they derive their tests from the same
// seed(s) of the same logic. The scheduler batches a family onto one
// worker so the solver's warm caches carry shared seed structure from
// one variant to the next.
type familyKey struct {
	logicIdx int
	oracle   core.Status
	s1, s2   int // pool pick indices; s2 is -1 for mutation tasks
}

// familyOf computes a task's family key by replaying the prefix of its
// RNG stream that selects the oracle and the seed-pool indices. The
// replay recreates the task RNG from its seed and discards it, so the
// task's own stream — rebuilt from the same seed in runTaskInner — is
// untouched: per-task RNG coordinates are exactly those of the
// unbatched scheduler, draw for draw.
func familyOf(cfg *campaign, id int) familyKey {
	logicIdx, iter := id/cfg.Iterations, id%cfg.Iterations
	rng := rand.New(rand.NewSource(taskSeed(cfg.Seed, gen.Logic(cfg.Logics[logicIdx]), iter)))
	k := familyKey{logicIdx: logicIdx, oracle: core.StatusSat, s2: -1}
	if rng.Intn(2) == 1 {
		k.oracle = core.StatusUnsat
	}
	// Mirror seedPool.pick's draws: one Intn(SeedPool) per picked seed.
	k.s1 = rng.Intn(cfg.SeedPool)
	if !cfg.mutation() {
		k.s2 = rng.Intn(cfg.SeedPool)
	}
	return k
}

// buildFamilies groups the task ids [0, total) into per-seed families.
// Ids stay in ascending order inside each family, and families are
// ordered by their first task id, so the schedule is a pure function of
// the campaign configuration — never of thread count or timing.
func buildFamilies(cfg *campaign, total int) [][]int {
	index := map[familyKey]int{}
	var fams [][]int
	for id := 0; id < total; id++ {
		k := familyOf(cfg, id)
		fi, ok := index[k]
		if !ok {
			fi = len(fams)
			index[k] = fi
			fams = append(fams, nil)
		}
		fams[fi] = append(fams[fi], id)
	}
	return fams
}

// taskOutcome is the raw result of one fusion+solve task, produced by
// any worker and classified later in deterministic task order.
type taskOutcome struct {
	id      int
	invalid bool // test derivation rejected by the static gate
	tested  bool // a test script was produced and solved
	// Exactly one of fused/mutant is set on a tested outcome.
	fused     *core.Fused
	mutant    *mutate.Mutant
	ancestors [2]*core.Seed
	run       RunResult
	// wallTimeout marks a run cut off by the wall-clock watchdog; the
	// worker's solver instance is tainted and must be replaced.
	wallTimeout bool
	// delta holds the task's engine-counter increments (empty on a
	// wall-timeout: the abandoned goroutine still owns that tracker).
	delta telemetry.Snapshot
	// backendRuns holds the cross-check outputs, one per configured
	// backend (nil when the task was not tested, was quarantined, or
	// the campaign has no backends).
	backendRuns []backend.Output
	// Metamorphic-policy fields (unknown-status tasks under the
	// metamorphic or auto policy only). variantSkip marks a task where
	// no relation-preserving variant could be derived; otherwise
	// variant/variantRun/variantBackends mirror the primary triple.
	variant         *mutate.Variant
	variantRun      RunResult
	variantBackends []backend.Output
	variantSkip     bool
	// consensus is the majority policy's per-task annotation ("sat",
	// "unsat", or "abstained"), written by the classification stage and
	// read by the trace recorder, like finding (this task recorded a
	// bug) and duplicate (it re-triggered one).
	consensus          string
	finding, duplicate bool
}

// quarantined reports whether the task is withdrawn from all
// classification: a watchdog cut-off or an internal fault of our own
// solver on either the primary or the variant solve.
func (o *taskOutcome) quarantined() bool {
	return o.wallTimeout || o.run.InternalFault || o.variantRun.InternalFault
}

// testScript is the script that was handed to the solver under test.
func (o *taskOutcome) testScript() *smtlib.Script {
	if o.mutant != nil {
		return o.mutant.Script
	}
	return o.fused.Script
}

// oracle is the expected verdict of the test script.
func (o *taskOutcome) oracle() core.Status {
	if o.mutant != nil {
		return o.mutant.Oracle
	}
	return o.fused.Oracle
}

// makeSUT builds one solver-under-test instance for a campaign worker:
// the campaign's defect set under its fuel limit, recording step
// counters into tr (nil = none).
func makeSUT(cfg *campaign, tr *telemetry.Tracker) *solver.Solver {
	return solver.New(solver.Config{Defects: cfg.defects, Limits: fuelLimits(cfg.Fuel), Telemetry: tr})
}

// fuelLimits maps a config's Fuel (0 solver default, >0 override, <0
// unlimited) to solver limits.
func fuelLimits(fuel int64) solver.Limits {
	lim := solver.DefaultLimits()
	if fuel > 0 {
		lim.Fuel = fuel
	} else if fuel < 0 {
		lim.Fuel = 0
	}
	return lim
}

// runControls tunes one exec leg of a campaign: pause triggers and
// observation hooks. The zero value runs the leg to completion.
type runControls struct {
	// stopAfter, when positive, pauses the leg once that many more
	// tasks have been classified.
	stopAfter int
	// stop is polled after every classified task; returning true pauses
	// the leg at that frontier.
	stop func() bool
	// progress observes (classified so far, campaign total) after every
	// classified task, called from the classification goroutine. When
	// set, the trace writer is flushed first, so a live reader observes
	// every record up to the reported position.
	progress func(done, total int)
	// trace, when non-nil, receives one JSONL TraceRecord per classified
	// task, in task order.
	trace io.Writer
	// suppressVet drops the corpus-vetting telemetry: resume legs and
	// non-zero shards rebuild the corpus (it is a pure function of the
	// configuration), but only the first leg of shard 0 may count it —
	// otherwise the merged funnel would double-count seed generation.
	suppressVet bool
}

// runState is the campaign state that survives a pause: everything the
// in-order classification stage has folded so far. Bugs stay in
// recording order until finish sorts them, so a checkpoint taken at any
// frontier serializes the exact dedup state. The classification methods
// hang off it: each Result or BackendReport increment sits next to its
// funnel counter increment on the campaign tracker.
type runState struct {
	cfg   *campaign
	res   *Result
	found map[solver.Defect]int // defect → index into res.Bugs
	seen  map[bkKey]int         // backend finding key → recording task
	aw    *artifactWriter
	// tr receives the campaign's aggregated metrics: engine step
	// counters merged per task plus the funnel counters, all written by
	// the in-order classification stage. nil records nothing.
	tr *telemetry.Tracker
	// done counts classified tasks, cumulative across resume legs.
	done int
}

func newRunState(cfg *campaign, tr *telemetry.Tracker) *runState {
	res := &Result{}
	res.Backends = make([]BackendReport, len(cfg.specs))
	for i, spec := range cfg.specs {
		res.Backends[i] = BackendReport{Name: spec.Name, Hermetic: spec.Hermetic}
	}
	st := &runState{
		cfg:   cfg,
		res:   res,
		found: map[solver.Defect]int{},
		seen:  map[bkKey]int{},
		tr:    tr,
	}
	if cfg.ArtifactDir != "" {
		st.aw = newArtifactWriter(cfg.ArtifactDir)
	}
	return st
}

// finish finalizes a completed (or paused, for its partial Result)
// campaign: sorts the findings, fills breaker states, and surfaces the
// first artifact-write error.
func finish(st *runState) (*Result, error) {
	res := st.res
	sortBugs(res.Bugs)
	finishBackends(res, st.cfg)
	if st.aw != nil {
		if st.aw.err != nil {
			return nil, fmt.Errorf("harness: writing artifacts: %w", st.aw.err)
		}
		res.Artifacts = st.aw.paths
	}
	return res, nil
}

// runLeg runs one leg of a campaign as a shared-corpus, work-stealing
// pipeline:
//
//  1. The seed corpus is built once per logic, with solver vetting of
//     the slots spread across the worker pool. Each slot has its own
//     generator stream, so the corpus is identical however the vetting
//     work is scheduled.
//  2. The tasks listed in include (strictly ascending global ids) are
//     drawn from a shared queue by workers. Each task seeds its RNG
//     from (campaign seed, logic, iteration), so its test is a pure
//     function of the configuration.
//  3. Outcomes are classified into st sequentially in task order,
//     making bug dedup and duplicate counting order-independent.
//
// Consequently a campaign's findings are bit-identical for any Threads
// value: parallelism is a pure speedup, not a different experiment.
// Tasks outside include that precede an included task within its
// family are warm-replayed — run and discarded — so every included
// task sees exactly the warm-cache state (and hence telemetry deltas)
// it would have seen in an uninterrupted single-process run. Returns
// true when a control paused the leg before include was exhausted.
func runLeg(st *runState, include []int, ctl runControls) (bool, error) {
	cfg := st.cfg
	rec := &recorder{tr: st.tr, suppressVet: ctl.suppressVet}
	if ctl.trace != nil {
		rec.jw = telemetry.NewJSONLWriter(ctl.trace)
	}

	// One solver instance per worker: instances are deterministic per
	// Solve call but not safe for concurrent use. Each worker likewise
	// owns its telemetry tracker; per-task deltas are folded into the
	// campaign tracker by the in-order classification stage.
	suts := make([]*solver.Solver, cfg.Threads)
	trackers := make([]*telemetry.Tracker, cfg.Threads)
	for w := range suts {
		if rec.active() {
			trackers[w] = telemetry.NewTracker()
		}
		suts[w] = makeSUT(cfg, trackers[w])
	}

	// Cross-check backends follow the same per-worker instance model as
	// SUTs: instances are not required to be concurrency-safe, but all
	// instances of one external backend share its Spec's Health, so the
	// circuit breaker counts the backend's global failure streak.
	workerBackends := make([][]backend.Backend, cfg.Threads)
	for w := range workerBackends {
		for _, spec := range cfg.specs {
			b, err := spec.New()
			if err != nil {
				return false, fmt.Errorf("harness: backend %q: %w", spec.Name, err)
			}
			workerBackends[w] = append(workerBackends[w], b)
		}
	}

	pools, err := buildCorpus(cfg, suts, trackers, rec)
	if err != nil {
		return false, err
	}

	// Tasks are dispatched as per-seed families: all variants of one
	// seed (pair) run on the same worker, in ascending task order, with
	// the solver's warm caches reset at each family boundary. Verdicts
	// and models are unaffected (the caches are semantically
	// transparent); what batching buys is cross-variant cache reuse,
	// and what the reset buys is thread-invariance — each task's
	// telemetry delta is a function of its in-family predecessors only,
	// never of which worker ran the family or what ran there before.
	//
	// emit marks the included ids. Families are always computed over
	// the full task space, trimmed to their last included member: the
	// untrimmed prefix is the warm-replay work that reconstructs the
	// in-family cache state an included task depends on. Workers read
	// emit concurrently; it is immutable once built.
	total := len(cfg.Logics) * cfg.Iterations
	emit := make([]bool, total)
	for _, id := range include {
		emit[id] = true
	}
	var jobs [][]int
	for _, fam := range buildFamilies(cfg, total) {
		last := -1
		for i, id := range fam {
			if emit[id] {
				last = i
			}
		}
		if last >= 0 {
			jobs = append(jobs, fam[:last+1])
		}
	}

	taskCh := make(chan []int, cfg.Threads)
	outCh := make(chan taskOutcome, cfg.Threads)
	quit := make(chan struct{})

	var wg sync.WaitGroup
	for w := 0; w < cfg.Threads; w++ {
		wg.Add(1)
		go func(sut *solver.Solver, bks []backend.Backend, tr *telemetry.Tracker) {
			defer wg.Done()
			// Replayed (non-emitted) tasks drive only the warm-state
			// backends: hermetic adapters own per-instance caches whose
			// state the replay must reconstruct, while external process
			// backends carry no warm state (and cost real solver time),
			// so a resumed campaign never re-invokes them for
			// already-classified work.
			var warmBks []backend.Backend
			for _, b := range bks {
				if _, ok := b.(backend.Resetter); ok {
					warmBks = append(warmBks, b)
				}
			}
			for fam := range taskCh {
				sut.ResetWarm()
				// Hermetic backends carry the same warm-cache contract as
				// the SUT: reset at family boundaries, so their verdict
				// stream is a function of the family alone.
				for _, b := range bks {
					if r, ok := b.(backend.Resetter); ok {
						r.ResetWarm()
					}
				}
				for _, id := range fam {
					runBks := bks
					if !emit[id] {
						runBks = warmBks
					}
					out := runTask(cfg, pools, sut, runBks, tr, id)
					if out.wallTimeout {
						// The watchdog abandoned a solve mid-flight: that
						// solver instance may hold inconsistent state, so
						// replace it — together with its tracker, which the
						// abandoned goroutine may still be writing.
						if tr != nil {
							tr = telemetry.NewTracker()
						}
						sut = makeSUT(cfg, tr)
					}
					if emit[id] {
						outCh <- out
					}
				}
			}
		}(suts[w], workerBackends[w], trackers[w])
	}
	go func() {
		defer func() {
			close(taskCh)
			wg.Wait()
			close(outCh)
		}()
		for _, fam := range jobs {
			select {
			case taskCh <- fam:
			case <-quit:
				return
			}
		}
	}()

	// In-order classification: outcomes arrive in completion order but
	// are applied in task order, buffering only the out-of-order window.
	// After a pause triggers, the feeder is stopped and the channel
	// drained; outcomes past the frontier are discarded — resume re-runs
	// them deterministically.
	totalInclude := st.done + len(include)
	idx := 0
	budget := ctl.stopAfter
	paused := false
	quitClosed := false
	stopFeeding := func() {
		if !quitClosed {
			close(quit)
			quitClosed = true
		}
	}
	pending := map[int]taskOutcome{}
	for out := range outCh {
		if paused {
			continue
		}
		pending[out.id] = out
		for idx < len(include) {
			cur, ok := pending[include[idx]]
			if !ok {
				break
			}
			delete(pending, include[idx])
			idx++
			st.applyOutcome(&cur)
			rec.task(cfg, cur)
			st.done++
			if ctl.progress != nil {
				rec.flush()
				ctl.progress(st.done, totalInclude)
			}
			if budget > 0 {
				budget--
				if budget == 0 {
					paused = true
				}
			}
			if !paused && ctl.stop != nil && ctl.stop() {
				paused = true
			}
			if paused {
				stopFeeding()
				break
			}
		}
	}
	if idx == len(include) {
		// The pause trigger fired on the last task: nothing remains, so
		// the leg completed after all.
		paused = false
	}
	if err := rec.jw.Close(); err != nil {
		return false, fmt.Errorf("harness: writing trace: %w", err)
	}
	return paused, nil
}

// runTask executes one derive+solve task — fusion of a seed pair or
// mutation of a single seed, depending on the campaign mode. Everything
// random in the task flows from its own deterministic RNG, so campaigns
// stay bit-identical for any thread count.
func runTask(cfg *campaign, pools []*seedPool, sut *solver.Solver, bks []backend.Backend, tr *telemetry.Tracker, id int) taskOutcome {
	before := tr.Snapshot()
	out := runTaskInner(cfg, pools, sut, bks, id)
	if !out.wallTimeout {
		// On a wall-timeout the abandoned goroutine may still be writing
		// tr, so the tracker is surrendered with it instead of read.
		out.delta = tr.Snapshot().Diff(before)
	}
	return out
}

func runTaskInner(cfg *campaign, pools []*seedPool, sut *solver.Solver, bks []backend.Backend, id int) taskOutcome {
	logicIdx, iter := id/cfg.Iterations, id%cfg.Iterations
	logic := gen.Logic(cfg.Logics[logicIdx])
	rng := rand.New(rand.NewSource(taskSeed(cfg.Seed, logic, iter)))
	oracle := core.StatusSat
	if rng.Intn(2) == 1 {
		oracle = core.StatusUnsat
	}
	pool := pools[logicIdx]
	out := taskOutcome{id: id}
	if cfg.mutation() {
		s1 := pool.pick(oracle, rng)
		var mut *mutate.Mutant
		var err error
		if cfg.Mode == ModeWild {
			// Wild mutation leaves the polarity-soundness envelope: the
			// oracle coin and pool pick above replay identically, but the
			// derived test's ground truth is unknown by construction.
			mut, err = mutate.Wild(s1, rng, mutate.Options{})
		} else {
			mut, err = mutate.Mutate(s1, rng, mutate.Options{})
		}
		if err != nil {
			// A seed with no applicable mutation site is a skip, not a
			// defect; a lost witness or gate rejection is a mutation-engine
			// failure triaged like an invalid fusion.
			var ge *analysis.GateError
			invalid := errors.As(err, &ge) || errors.Is(err, mutate.ErrWitnessLost)
			return taskOutcome{id: id, invalid: invalid}
		}
		out.mutant = mut
		out.ancestors = [2]*core.Seed{s1, s1}
	} else {
		s1, s2 := pool.pick(oracle, rng), pool.pick(oracle, rng)
		var fused *core.Fused
		var err error
		if cfg.ConcatOnly {
			fused, err = core.Concat(s1, s2, rng)
		} else {
			fused, err = core.Fuse(s1, s2, rng, cfg.fusion)
		}
		if err != nil {
			var ge *analysis.GateError
			return taskOutcome{id: id, invalid: errors.As(err, &ge)}
		}
		out.fused = fused
		out.ancestors = [2]*core.Seed{s1, s2}
	}
	out.tested = true
	script := out.testScript()
	if cfg.WallTimeout > 0 {
		completed := watchdog.Run(cfg.WallTimeout, func() {
			out.run = RunSolver(sut, script)
		})
		if !completed {
			// The solve is still executing in the abandoned goroutine,
			// which owns out.run; build the quarantine report from the
			// untouched fields only.
			return taskOutcome{id: id, tested: true, fused: out.fused,
				mutant: out.mutant, ancestors: out.ancestors, wallTimeout: true}
		}
	} else {
		out.run = RunSolver(sut, script)
	}
	// Cross-check backends run after a completed SUT solve, on the
	// worker, so external solver latency overlaps across workers. A
	// quarantined task (internal fault) is withdrawn from all oracles,
	// the differential one included. Process backends enforce their own
	// deadline; the watchdog never wraps them.
	if !out.run.InternalFault {
		out.backendRuns = runBackends(bks, script)
	}
	// Metamorphic leg: an unknown-status test has no ground truth to
	// check against, so derive a relation-preserving variant and solve it
	// on the same worker. The variant's randomness comes from its own
	// seed domain — reordering or disabling the policy never perturbs
	// the primary task stream.
	if (cfg.Oracle == OracleMetamorphic || cfg.Oracle == OracleAuto) &&
		out.oracle() == core.StatusUnknown && !out.run.InternalFault {
		vrng := rand.New(rand.NewSource(metaSeed(cfg.Seed, logic, iter)))
		v, err := mutate.DeriveVariant(script, vrng, mutate.Options{})
		if err != nil {
			// No relation-preserving site (or the gate rejected the
			// variant): the pair is skipped, never charged as a finding.
			out.variantSkip = true
			return out
		}
		out.variant = v
		if cfg.WallTimeout > 0 {
			completed := watchdog.Run(cfg.WallTimeout, func() {
				out.variantRun = RunSolver(sut, v.Script)
			})
			if !completed {
				// Same taint rule as the primary solve: the abandoned
				// goroutine owns out.variantRun, so rebuild the outcome
				// from the untouched fields.
				return taskOutcome{id: id, tested: true, fused: out.fused,
					mutant: out.mutant, ancestors: out.ancestors, wallTimeout: true}
			}
		} else {
			out.variantRun = RunSolver(sut, v.Script)
		}
		if !out.variantRun.InternalFault {
			out.variantBackends = runBackends(bks, v.Script)
		}
	}
	return out
}

// applyOutcome classifies one task outcome into the campaign state.
func (st *runState) applyOutcome(out *taskOutcome) {
	res, aw := st.res, st.aw
	if out.invalid {
		res.InvalidInputs++
		st.tr.Inc(cfInvalid)
		return
	}
	if !out.tested {
		st.tr.Inc(cfSkipped)
		return // no fusable pair: skip
	}
	st.tr.Inc(cfDerived)
	// Quarantine before classification: a watchdog cut-off or an
	// internal fault of our own solver — on either the primary or the
	// metamorphic-variant solve — is never a finding. The campaign
	// continues; the offending input is preserved for debugging.
	if out.quarantined() {
		res.Quarantined++
		st.tr.Inc(cfQuarantined)
		if aw != nil {
			m := manifestFor(st.cfg, *out, "quarantine", "")
			switch {
			case out.wallTimeout:
				m.Observed = "wall-timeout"
				m.Reason = "wall-clock watchdog expired"
			case out.run.InternalFault:
				m.Observed = "internal-fault"
				m.FaultMsg = out.run.FaultMsg
				m.FaultStack = out.run.FaultStack
			default:
				m.Observed = "internal-fault"
				m.FaultMsg = out.variantRun.FaultMsg
				m.FaultStack = out.variantRun.FaultStack
			}
			aw.write(m, out.ancestors, out.testScript(), out.id)
		}
		return
	}
	res.Tests++
	st.tr.Inc(cfSolved)
	st.tr.Observe(hTaskFuel, out.delta.Counter(solver.MetricSolveFuelSpent))
	st.classify(out)
	st.classifyBackends(out)
	st.classifyConsensus(out)
}

// manifestFor assembles the replay coordinates of one task outcome.
func manifestFor(cfg *campaign, out taskOutcome, bugType string, defect solver.Defect) Manifest {
	fired := make([]string, 0, len(out.run.DefectsFired))
	for _, d := range out.run.DefectsFired {
		fired = append(fired, string(d))
	}
	// The per-process fields are cleared, so a bundle's bytes do not
	// depend on where or how the campaign ran.
	cc := cfg.CampaignConfig
	cc.Threads, cc.ArtifactDir, cc.Shard, cc.Shards = 0, "", 0, 0
	m := Manifest{
		Schema:       ManifestSchema,
		Campaign:     cc,
		BugType:      bugType,
		Defect:       string(defect),
		Observed:     out.run.Result.String(),
		Reason:       out.run.Reason,
		DefectsFired: fired,
		Logic:        cfg.Logics[out.id/cfg.Iterations],
		Iteration:    out.id % cfg.Iterations,
	}
	if out.fused != nil {
		m.Oracle = out.fused.Oracle.String()
		m.Mode = out.fused.Mode.String()
	}
	if out.mutant != nil {
		m.Oracle = out.mutant.Oracle.String()
		m.Mode = "mutation"
		m.MutationRules = out.mutant.Rules
	}
	if out.run.Crashed {
		m.Observed = "crash"
		m.Reason = out.run.CrashMsg
	}
	return m
}

// classify implements the incorrects/crashes bookkeeping of
// Algorithm 1, extended with performance-defect observation, timeout
// triage, and duplicate triage by defect site.
func (st *runState) classify(out *taskOutcome) {
	cfg, res := st.cfg, st.res
	ancestors, run := out.ancestors, out.run
	script, oracle := out.testScript(), out.oracle()
	// record triages the observation to its defect; reason, when set,
	// replaces the run's reason in the reproducer manifest only.
	record := func(kind bugdb.BugType, reason string) {
		primary, ok := primaryDefect(run.DefectsFired, kind)
		if !ok {
			res.ReferenceDisagreements++
			st.tr.Inc(cfRefDisagree)
			return
		}
		if i, ok := st.found[primary]; ok {
			res.Duplicates++
			st.tr.Inc(cfDuplicates)
			res.Bugs[i].Tasks = append(res.Bugs[i].Tasks, out.id)
			out.duplicate = true
			return
		}
		st.found[primary] = len(res.Bugs)
		b := Bug{
			Defect:    primary,
			Kind:      kind,
			Logic:     gen.Logic(cfg.Logics[out.id/cfg.Iterations]),
			Oracle:    oracle,
			Observed:  run.Result,
			Script:    script,
			Ancestors: ancestors,
			Tasks:     []int{out.id},
		}
		if out.mutant != nil {
			b.Rules = out.mutant.Rules
		} else {
			b.Mode = out.fused.Mode
		}
		res.Bugs = append(res.Bugs, b)
		st.tr.Inc(cfFindings)
		out.finding = true
		if st.aw != nil {
			m := manifestFor(cfg, *out, string(kind), primary)
			if reason != "" {
				m.Reason = reason
			}
			st.aw.write(m, ancestors, script, out.id)
		}
	}

	switch {
	case run.Crashed:
		record(bugdb.Crash, "")
	case run.Result == solver.ResTimeout:
		// Fuel exhaustion. With a performance defect fired this is the
		// paper's performance-bug observation; otherwise the instance
		// was genuinely hard and only the timeout is counted. This case
		// must precede the oracle-mismatch check: a timeout carries no
		// verdict, so it can never be a soundness observation.
		res.Timeouts++
		st.tr.Inc(cfTimeouts)
		if _, ok := primaryDefect(run.DefectsFired, bugdb.Performance); ok {
			record(bugdb.Performance, "")
		}
	case run.Result == solver.ResUnknown:
		res.Unknowns++
		st.tr.Inc(cfUnknowns)
		// A performance defect firing on the way to unknown is still
		// the paper's "performance bug" observation; this path is taken
		// when the campaign runs with the fuel meter disabled, where
		// draining is a no-op and no timeout verdict exists.
		if _, ok := primaryDefect(run.DefectsFired, bugdb.Performance); ok {
			record(bugdb.Performance, "")
		}
	default:
		// A definite verdict: compared against the oracle.
		st.tr.Inc(cfOracleChecked)
		switch {
		case verdictContradicts(run.Result, oracle):
			record(bugdb.Soundness, "")
		case run.Result == solver.ResSat && !cfg.DisableModelCheck:
			// The verdict agrees with the oracle, but the reported witness
			// must still satisfy the formula: this is the only oracle that
			// can see post-certification model corruption.
			if ok, reason := ValidateModel(script, run.Model); !ok {
				record(bugdb.InvalidModel, reason)
			}
		}
	}
}

// verdictContradicts reports whether a SUT verdict refutes the ground
// truth. Only a definite verdict on a definite oracle can contradict:
// an unknown-status test (wild mutation) has nothing to refute, so it
// abstains rather than being treated as implicitly unsat. The earlier
// predicate `(res == ResSat) != (oracle == StatusSat)` collapsed
// StatusUnknown into the unsat arm and charged every sat verdict on an
// unknown-status input as a soundness bug.
func verdictContradicts(res solver.Result, oracle core.Status) bool {
	switch oracle {
	case core.StatusSat:
		return res == solver.ResUnsat
	case core.StatusUnsat:
		return res == solver.ResSat
	default:
		return false
	}
}

// primaryDefect picks the fired defect matching the observed bug kind
// (triaging the report to its root cause, like the paper's interaction
// with the solver developers).
func primaryDefect(fired []solver.Defect, kind bugdb.BugType) (solver.Defect, bool) {
	var fallback solver.Defect
	haveFallback := false
	for _, d := range fired {
		e, ok := bugdb.Find(d)
		if !ok {
			continue
		}
		if e.Type == kind {
			return d, true
		}
		// Model-corruption sites run after the verdict is fixed, so they
		// can never root an observation of any other kind.
		if !haveFallback && e.Type != bugdb.InvalidModel {
			fallback, haveFallback = d, true
		}
	}
	// A soundness observation can be rooted in any wrong-transformation
	// defect even if catalogued under another logic, and so can an
	// invalid model: the solver certifies its model against the
	// *rewritten* asserts, so a wrong rewrite yields a witness of the
	// wrong formula. Crashes must match a crash site.
	if (kind == bugdb.Soundness || kind == bugdb.InvalidModel) && haveFallback {
		return fallback, true
	}
	return "", false
}

func sortBugs(bugs []Bug) {
	sort.Slice(bugs, func(i, j int) bool { return bugs[i].Defect < bugs[j].Defect })
}

// pool holds per-status seed lists.
type seedPool struct {
	sat   []*core.Seed
	unsat []*core.Seed
}

// buildCorpus generates the shared seed corpus, one pool per logic,
// exactly once per campaign. Mirroring the paper's setup — the SMT-LIB
// benchmarks "are unlikely to trigger bugs in Z3 and CVC4 since they
// have already been run on them" — seeds on which the solver under test
// misbehaves (wrong result or crash) are discarded and regenerated, so
// every finding requires combining seeds.
//
// Vetting (the expensive part: up to 10 solver runs per slot) is spread
// across the worker pool. Each slot owns a generator stream keyed by
// (campaign seed, logic, slot, status), so the resulting corpus does
// not depend on which worker vets which slot.
func buildCorpus(cfg *campaign, suts []*solver.Solver, trackers []*telemetry.Tracker, rec *recorder) ([]*seedPool, error) {
	pools := make([]*seedPool, len(cfg.Logics))
	for i := range pools {
		pools[i] = &seedPool{
			sat:   make([]*core.Seed, cfg.SeedPool),
			unsat: make([]*core.Seed, cfg.SeedPool),
		}
	}

	// Job j addresses one slot: (logic, slot index, sat/unsat).
	perLogic := cfg.SeedPool * 2
	total := len(cfg.Logics) * perLogic
	jobs := make(chan int, len(suts))
	errs := make([]error, len(suts))
	// Per-job vetting telemetry, merged into the campaign tracker in
	// job order after the barrier. Each entry is written by exactly one
	// job (like the pool slots), so no locking is needed and the merge
	// order is independent of scheduling.
	tries := make([]int, total)
	deltas := make([]telemetry.Snapshot, total)
	var wg sync.WaitGroup
	for w := range suts {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sut := suts[w]
			var tr *telemetry.Tracker
			if trackers != nil {
				tr = trackers[w]
			}
			for j := range jobs {
				logicIdx := j / perLogic
				rest := j % perLogic
				slot := rest >> 1
				status := core.StatusSat
				if rest&1 == 1 {
					status = core.StatusUnsat
				}
				// Fresh warm state per slot: a slot's vetting telemetry
				// must depend on the slot alone, not on which worker
				// happened to vet (or solve) something else first.
				sut.ResetWarm()
				before := tr.Snapshot()
				s, n, err := vetSlot(cfg.Seed, gen.Logic(cfg.Logics[logicIdx]), slot, status, sut)
				tries[j] = n
				deltas[j] = tr.Snapshot().Diff(before)
				if err != nil {
					if errs[w] == nil {
						errs[w] = err
					}
					continue
				}
				// Each slot is written by exactly one job: no locking.
				if status == core.StatusSat {
					pools[logicIdx].sat[slot] = s
				} else {
					pools[logicIdx].unsat[slot] = s
				}
			}
		}(w)
	}
	for j := 0; j < total; j++ {
		jobs <- j
	}
	close(jobs)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	if rec != nil {
		rec.vetted(tries, deltas)
	}
	return pools, nil
}

// vetSlot generates one vetted seed from the slot's own stream. The
// second result is the number of generation attempts consumed.
func vetSlot(seed int64, logic gen.Logic, slot int, status core.Status, sut *solver.Solver) (*core.Seed, int, error) {
	g, err := gen.New(logic, poolSeed(seed, logic, slot, status))
	if err != nil {
		return nil, 0, err
	}
	for try := 0; try < 10; try++ {
		s := g.Generate(status)
		if sut == nil {
			return s, try + 1, nil
		}
		run := RunSolver(sut, s.Script)
		// Discard seeds the SUT already misbehaves on — crashes, wrong
		// verdicts, fuel exhaustion, or faults in our own solver — so
		// every campaign finding requires combining seeds.
		if run.Crashed || run.InternalFault || run.Result == solver.ResTimeout {
			continue
		}
		if run.Result != solver.ResUnknown &&
			(run.Result == solver.ResSat) != (status == core.StatusSat) {
			continue
		}
		return s, try + 1, nil
	}
	return g.Generate(status), 11, nil
}

func (p *seedPool) pick(status core.Status, rng *rand.Rand) *core.Seed {
	if status == core.StatusSat {
		return p.sat[rng.Intn(len(p.sat))]
	}
	return p.unsat[rng.Intn(len(p.unsat))]
}
