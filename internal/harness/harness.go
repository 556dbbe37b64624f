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
	"slices"
	"sort"
	"sync"

	"repro/internal/analysis"
	"repro/internal/ast"
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
	// are the re-triggers counted in Result.Duplicates.
	Tasks []int
}

// ReproducedBy reports whether run, a solve of sc, shows b again: b's
// defect fires with b's misbehaviour. This is the one reproduction rule
// of the RQ4 retrigger experiment and of the reducers. oracle is sc's
// expected verdict: the constructed status of a derived test, or, when
// shrinking, the reference solver's verdict (OracleOf). A soundness bug
// needs a definite oracle that b's observed verdict contradicts, so a
// reference that timed out or gave up confirms nothing.
func (b Bug) ReproducedBy(run RunResult, sc *smtlib.Script, oracle core.Status) bool {
	if !slices.Contains(run.DefectsFired, b.Defect) {
		return false
	}
	switch b.Kind {
	case bugdb.Crash:
		return run.Crashed
	case bugdb.Soundness:
		return run.Result == b.Observed && contradicts(sutVerdict(run.Result, run.Crashed), oracle)
	case bugdb.InvalidModel:
		if run.Result != solver.ResSat {
			return false
		}
		valid, _ := ValidateModel(sc, run.Model)
		return !valid
	default:
		// Performance: fuel exhaustion, or unknown with the meter off.
		return run.Result == solver.ResTimeout || run.Result == solver.ResUnknown
	}
}

// OracleOf is the oracle a verdict stands for: sat and unsat are
// definite, unknown and timeout decide nothing.
func OracleOf(r solver.Result) core.Status {
	switch r {
	case solver.ResSat:
		return core.StatusSat
	case solver.ResUnsat:
		return core.StatusUnsat
	}
	return core.StatusUnknown
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
// the classification fold keeps. Result and its fingerprint embed it,
// so a counter has one definition and one JSON layout (encoding/json
// inlines the embedded struct, tags and field order included).
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

// live is what a task's reproducer bundles need beyond its record,
// handed from the worker to the fold next to the record: the test
// script the SUT was given, its two ancestors (one seed twice for a
// mutant), the mutation rules, and the metamorphic variant. A
// quarantined task's fault stack and its SUT run's reason, which the
// record's Reason gives up to the fault message, ride along for the
// quarantine bundle.
type live struct {
	script     *smtlib.Script
	ancestors  [2]*core.Seed
	rules      []string
	variant    *mutate.Variant
	reason     string
	faultStack string
}

// finished is a worker's output for one task.
type finished struct {
	rec  taskRecord
	live live
}

// makeSUT builds one solver-under-test instance for one task or
// corpus-vetting slot: the campaign's defect set under its fuel limit,
// building terms in tb and recording step counters into tr (nil =
// none).
func makeSUT(cfg *campaign, tb *ast.Table, tr *telemetry.Tracker) *solver.Solver {
	return solver.New(solver.Config{Defects: cfg.defects, Fuel: cfg.Fuel, Telemetry: tr, Terms: tb})
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
	// suppressVet drops the corpus-vetting telemetry: later legs and
	// non-zero shards rebuild the corpus (it is a pure function of the
	// configuration), but only the leg of shard 0 that classifies its
	// first task may count it — otherwise the merged funnel would
	// double-count seed generation.
	suppressVet bool
}

// runState is the fold of a campaign's task records: the records
// themselves, in task order, and everything classification derives
// from them. Bugs stay in recording order until finish sorts them. The
// classification methods hang off it: each Result or BackendReport
// increment sits next to its funnel counter increment on the campaign
// tracker.
type runState struct {
	cfg   *campaign
	res   *Result
	found map[solver.Defect]int // defect → index into res.Bugs
	seen  map[bkKey]int         // backend finding key → recording task
	aw    *artifactWriter
	// tr receives the campaign's aggregated metrics: the corpus-vetting
	// telemetry, each record's engine-counter increments and the funnel
	// counters.
	tr *telemetry.Tracker
	// records holds every classified task's record, cumulative across
	// resume legs; vetting the corpus-vetting telemetry (empty on
	// non-zero shards).
	records []taskRecord
	vetting telemetry.Snapshot
	// plain interns the records' plain facts: most tasks of a campaign
	// share their verdict, reason and fired defects with another.
	plain map[plainFacts]*taskFacts
}

// newRunState starts an empty fold. A nil tracker is replaced by a
// private one: the metrics are part of every document.
func newRunState(cfg *campaign, tr *telemetry.Tracker) *runState {
	res := &Result{}
	res.Backends = make([]BackendReport, len(cfg.specs))
	for i, spec := range cfg.specs {
		res.Backends[i] = BackendReport{Name: spec.Name, Hermetic: spec.Hermetic}
	}
	if tr == nil {
		tr = telemetry.NewTracker()
	}
	n, _, _ := cfg.shardSpan()
	return &runState{
		cfg:     cfg,
		res:     res,
		found:   map[solver.Defect]int{},
		seen:    map[bkKey]int{},
		tr:      tr,
		records: make([]taskRecord, 0, n),
		plain:   map[plainFacts]*taskFacts{},
	}
}

// taskFlags are the fold's per-task outputs that a trace line shows:
// whether the task recorded a bug or re-triggered one, and the
// majority vote's outcome ("sat", "unsat", "abstained", or "").
type taskFlags struct {
	finding, duplicate bool
	consensus          string
}

// apply appends one record and folds it: the one classification step
// shared by live classification (lv is what the task's reproducer
// bundles need) and replay (lv is nil). jw, when set, receives the
// record's trace line.
func (st *runState) apply(rec taskRecord, lv *live, jw *telemetry.JSONLWriter) (taskFlags, error) {
	if rec.Facts != nil {
		if p, ok := rec.Facts.plain(); ok {
			if shared, ok := st.plain[p]; ok {
				rec.Facts = shared
			} else {
				st.plain[p] = rec.Facts
			}
		}
	}
	st.records = append(st.records, rec)
	r := &st.records[len(st.records)-1]
	fl, err := st.fold(r, lv)
	if err != nil {
		return fl, fmt.Errorf("task %d: %v", r.Task, err)
	}
	if r.Facts != nil && r.Facts.Witness != nil && !fl.finding {
		// A witness stays only on its bug's recording trigger: a shard's
		// first trigger of a defect can be a duplicate once merged.
		f := *r.Facts
		f.Witness = nil
		r.Facts = &f
	}
	if jw != nil {
		jw.Emit(traceLine(st.cfg, r, fl))
	}
	return fl, nil
}

// replay folds a document's records, in task order, into st. Replay
// never writes to a record, so the documents' records stay shared.
func (st *runState) replay(recs []taskRecord, jw *telemetry.JSONLWriter) error {
	for _, r := range recs {
		if _, err := st.apply(r, nil, jw); err != nil {
			return err
		}
	}
	return nil
}

// finish finalizes a completed (or paused, for its partial Result)
// campaign: sorts the findings, fills the backends' breaker states,
// and surfaces the first artifact-write error.
func finish(st *runState, breakers []breakerState) (*Result, error) {
	res := st.res
	sortBugs(res.Bugs)
	for i, br := range breakers {
		res.Backends[i].Quarantined = br.Open
	}
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
//  3. Task records are folded into st sequentially in task order,
//     making bug dedup and duplicate counting order-independent.
//
// Consequently a campaign's findings are bit-identical for any Threads
// value: parallelism is a pure speedup, not a different experiment.
// Workers keep no solver state: every task builds its own solver,
// backends and tracker, so a task's record is the same whichever worker
// runs it and whatever ran there before, and a leg runs only the tasks
// it includes. A worker's one piece of reused state is its term
// table's storage: each task starts from an emptied table over the
// frozen corpus table. Returns true when a control paused the leg
// before include was exhausted.
func runLeg(st *runState, include []int, ctl runControls) (bool, error) {
	cfg := st.cfg
	var jw *telemetry.JSONLWriter
	if ctl.trace != nil {
		jw = telemetry.NewJSONLWriter(ctl.trace)
	}

	var vet *telemetry.Tracker
	if !ctl.suppressVet {
		vet = telemetry.NewTracker()
	}
	pools, corpus, err := buildCorpus(cfg, vet)
	if err != nil {
		return false, err
	}
	if vet != nil {
		st.vetting = vet.Snapshot()
		st.tr.Merge(st.vetting)
	}

	taskCh := make(chan int, cfg.Threads)
	outCh := make(chan finished, cfg.Threads)
	quit := make(chan struct{})

	var wg sync.WaitGroup
	for w := 0; w < cfg.Threads; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tb := ast.NewTable(corpus)
			for id := range taskCh {
				tb.Reset()
				rec, lv := runTask(cfg, pools, tb, id)
				if rec.Status == statusWallTimeout {
					// The abandoned solve goroutine still builds in tb.
					tb = ast.NewTable(corpus)
				}
				outCh <- finished{rec, lv}
			}
		}()
	}
	go func() {
		defer func() {
			close(taskCh)
			wg.Wait()
			close(outCh)
		}()
		for _, id := range include {
			select {
			case taskCh <- id:
			case <-quit:
				return
			}
		}
	}()

	// In-order classification: records arrive in completion order but
	// are applied in task order, buffering only the out-of-order window.
	// After a pause triggers, the feeder is stopped and the channel
	// drained; records past the frontier are discarded — resume re-runs
	// them deterministically.
	totalInclude := len(st.records) + len(include)
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
	pending := map[int]finished{}
	for out := range outCh {
		if paused {
			continue
		}
		pending[int(out.rec.Task)] = out
		for idx < len(include) {
			cur, ok := pending[include[idx]]
			if !ok {
				break
			}
			delete(pending, include[idx])
			idx++
			// Live records always fold: a new bug takes its witness from
			// the task's live half.
			st.apply(cur.rec, &cur.live, jw) //nolint:errcheck
			if ctl.progress != nil {
				jw.Flush()
				ctl.progress(len(st.records), totalInclude)
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
	if err := jw.Close(); err != nil {
		return false, fmt.Errorf("harness: writing trace: %w", err)
	}
	return paused, nil
}

// runTask executes one derive+solve task — fusion of a seed pair or
// mutation of a single seed, depending on the campaign mode — and
// returns its record plus what its reproducer bundles need beyond it.
// The task builds its own solver under test, tracker and backend
// instances, and everything random in it flows from its own
// deterministic RNG, so its record is a function of (campaign, pools,
// id) alone and campaigns stay bit-identical for any thread count.
// Instances of one external backend share its Spec's Health, so the
// circuit breaker still counts the backend's global failure streak.
// Every term of the task is built in tb, a table over the corpus's.
func runTask(cfg *campaign, pools []*seedPool, tb *ast.Table, id int) (taskRecord, live) {
	tr := telemetry.NewTracker()
	bks := make([]backend.Backend, len(cfg.specs))
	for i, spec := range cfg.specs {
		bks[i] = spec.New(tb)
	}
	rec, lv := runTaskInner(cfg, pools, tb, makeSUT(cfg, tb, tr), bks, id)
	if rec.Status != statusWallTimeout {
		// On a wall-timeout the abandoned goroutine may still be writing
		// tr, so the tracker is left to it instead of read.
		rec.Counters = tr.Delta()
	}
	return rec, lv
}

func runTaskInner(cfg *campaign, pools []*seedPool, tb *ast.Table, sut *solver.Solver, bks []backend.Backend, id int) (taskRecord, live) {
	rec := taskRecord{Task: int32(id)}
	var lv live
	logicIdx, iter := id/cfg.Iterations, id%cfg.Iterations
	logic := gen.Logic(cfg.Logics[logicIdx])
	rng := rand.New(rand.NewSource(taskSeed(cfg.Seed, logic, iter)))
	oracle := core.StatusSat
	if rng.Intn(2) == 1 {
		oracle = core.StatusUnsat
	}
	pool := pools[logicIdx]
	if cfg.mutation() {
		s1 := pool.pick(oracle, rng)
		var mut *mutate.Mutant
		var err error
		if cfg.Mode == ModeWild {
			// Wild mutation leaves the polarity-soundness envelope: the
			// oracle coin and pool pick above replay identically, but the
			// derived test's ground truth is unknown by construction.
			mut, err = mutate.Wild(tb, s1, rng, mutate.Options{})
		} else {
			mut, err = mutate.Mutate(tb, s1, rng, mutate.Options{})
		}
		if err != nil {
			// A seed with no applicable mutation site is a skip, not a
			// defect; a lost witness or gate rejection is a mutation-engine
			// failure triaged like an invalid fusion.
			var ge *analysis.GateError
			rec.Status = statusSkipped
			if errors.As(err, &ge) || errors.Is(err, mutate.ErrWitnessLost) {
				rec.Status = statusInvalid
			}
			return rec, lv
		}
		rec.Oracle = mut.Oracle
		lv = live{script: mut.Script, ancestors: [2]*core.Seed{s1, s1}, rules: mut.Rules}
	} else {
		s1, s2 := pool.pick(oracle, rng), pool.pick(oracle, rng)
		var fused *core.Fused
		var err error
		if cfg.ConcatOnly {
			fused, err = core.Concat(tb, s1, s2, rng)
		} else {
			fused, err = core.Fuse(tb, s1, s2, rng, cfg.fusion)
		}
		if err != nil {
			var ge *analysis.GateError
			rec.Status = statusSkipped
			if errors.As(err, &ge) {
				rec.Status = statusInvalid
			}
			return rec, lv
		}
		rec.Oracle, rec.Mode = fused.Oracle, fused.Mode
		lv = live{script: fused.Script, ancestors: [2]*core.Seed{s1, s2}}
	}
	var run RunResult
	// watchdog.Run solves inline when no wall timeout is armed.
	if !watchdog.Run(cfg.WallTimeout, func() { run = RunSolver(sut, lv.script) }) {
		// The solve is still executing in the abandoned goroutine, which
		// owns run: the quarantine record takes nothing from it.
		rec.Status, rec.Facts = statusWallTimeout, &taskFacts{}
		return rec, lv
	}
	f := &taskFacts{Observed: run.Result, Crashed: run.Crashed, Reason: run.Reason, Fired: run.DefectsFired}
	if run.Crashed {
		f.Reason = run.CrashMsg
	}
	rec.Facts = f
	if run.InternalFault {
		// A quarantined task is withdrawn from all oracles, the
		// differential one included.
		rec.Status = statusFault
		lv.reason, f.Reason, lv.faultStack = f.Reason, run.FaultMsg, run.FaultStack
		return rec, lv
	}
	// Cross-check backends run after a completed SUT solve, on the
	// worker, so external solver latency overlaps across workers.
	// Process backends enforce their own deadline; the watchdog never
	// wraps them.
	f.Backends = runBackends(bks, lv.script)
	// Metamorphic leg: an unknown-status test has no ground truth to
	// check against, so derive a relation-preserving variant and solve it
	// on the same worker. The variant's randomness comes from its own
	// seed domain — reordering or disabling the policy never perturbs
	// the primary task stream.
	if (cfg.Oracle == OracleMetamorphic || cfg.Oracle == OracleAuto) && rec.Oracle == core.StatusUnknown {
		vrng := rand.New(rand.NewSource(metaSeed(cfg.Seed, logic, iter)))
		v, err := mutate.DeriveVariant(tb, lv.script, vrng, mutate.Options{})
		if err != nil {
			// No relation-preserving site (or the gate rejected the
			// variant): the pair is skipped, never charged as a finding.
			f.Variant = &variantRecord{Skip: true}
		} else {
			var vr RunResult
			if !watchdog.Run(cfg.WallTimeout, func() { vr = RunSolver(sut, v.Script) }) {
				// Same taint rule as the primary solve: the abandoned
				// goroutine owns vr.
				rec.Status, rec.Facts = statusWallTimeout, &taskFacts{}
				return rec, lv
			}
			lv.variant = v
			f.Variant = &variantRecord{Relation: v.Rel, Observed: vr.Result, Crashed: vr.Crashed, Fired: vr.DefectsFired}
			if vr.InternalFault {
				rec.Status = statusVariantFault
				lv.reason, f.Reason, lv.faultStack = f.Reason, vr.FaultMsg, vr.FaultStack
				return rec, lv
			}
			f.Variant.Backends = runBackends(bks, v.Script)
		}
	}
	if !cfg.DisableModelCheck && run.Result == solver.ResSat && !contradicts(backend.Sat, rec.Oracle) {
		// The verdict agrees with the oracle, but the reported witness
		// must still satisfy the formula: this is the only oracle that
		// can see post-certification model corruption.
		if ok, reason := ValidateModel(lv.script, run.Model); !ok {
			f.ModelFail = reason
		}
	}
	return rec, lv
}

// fold classifies one task record into the campaign state. lv is the
// task's live half during live classification (nil on replay): it is
// read only to write reproducer bundles and to take a new bug's
// witness, never to decide anything.
func (st *runState) fold(rec *taskRecord, lv *live) (taskFlags, error) {
	var fl taskFlags
	res := st.res
	st.tr.AddDelta(rec.Counters)
	switch rec.Status {
	case statusInvalid:
		res.InvalidInputs++
		st.tr.Inc(cfInvalid)
		return fl, nil
	case statusSkipped:
		st.tr.Inc(cfSkipped)
		return fl, nil // no fusable pair: skip
	}
	st.tr.Inc(cfDerived)
	// Quarantine before classification: a watchdog cut-off or an
	// internal fault of our own solver — on either the primary or the
	// metamorphic-variant solve — is never a finding. The campaign
	// continues; the offending input is preserved for debugging.
	if rec.Status.quarantined() {
		res.Quarantined++
		st.tr.Inc(cfQuarantined)
		if st.aw != nil && lv != nil {
			m := manifestFor(st.cfg, rec, lv, "quarantine", "")
			if rec.Status == statusWallTimeout {
				m.Observed, m.Reason = "wall-timeout", "wall-clock watchdog expired"
			} else {
				m.Observed, m.Reason, m.FaultMsg, m.FaultStack = "internal-fault", lv.reason, rec.Facts.Reason, lv.faultStack
			}
			st.aw.write(m, lv.ancestors, lv.script, int(rec.Task))
		}
		return fl, nil
	}
	res.Tests++
	st.tr.Inc(cfSolved)
	st.tr.Observe(hTaskFuel, rec.Counters.Counter(solver.FuelSpentCounter))
	if err := st.classify(rec, lv, &fl); err != nil {
		return fl, err
	}
	st.classifyBackends(rec, lv)
	st.classifyConsensus(rec, lv, &fl)
	return fl, nil
}

// manifestFor assembles the replay coordinates of one task record.
func manifestFor(cfg *campaign, rec *taskRecord, lv *live, bugType string, defect solver.Defect) Manifest {
	// The per-process fields are cleared, so a bundle's bytes do not
	// depend on where or how the campaign ran.
	cc := cfg.CampaignConfig
	cc.Threads, cc.ArtifactDir, cc.Shard, cc.Shards = 0, "", 0, 0
	f := rec.Facts
	m := Manifest{
		Schema:        ManifestSchema,
		Campaign:      cc,
		BugType:       bugType,
		Defect:        string(defect),
		Oracle:        rec.Oracle.String(),
		Observed:      sutVerdict(f.Observed, f.Crashed).String(),
		Reason:        f.Reason,
		DefectsFired:  defectNames(f.Fired),
		Logic:         cfg.Logics[int(rec.Task)/cfg.Iterations],
		Iteration:     int(rec.Task) % cfg.Iterations,
		Mode:          rec.Mode.String(),
		MutationRules: lv.rules,
	}
	if cfg.mutation() {
		m.Mode = "mutation"
	}
	return m
}

// classify implements the incorrects/crashes bookkeeping of
// Algorithm 1, extended with performance-defect observation, timeout
// triage, and duplicate triage by defect site. A live task that
// records a new bug gets its witness attached; a replayed one must
// carry it.
func (st *runState) classify(rec *taskRecord, lv *live, fl *taskFlags) error {
	cfg, res := st.cfg, st.res
	// record triages the observation to its defect; reason, when set,
	// replaces the run's reason in the reproducer manifest only.
	record := func(kind bugdb.BugType, reason string) error {
		primary, ok := primaryDefect(rec.Facts.Fired, kind)
		if !ok {
			res.ReferenceDisagreements++
			st.tr.Inc(cfRefDisagree)
			return nil
		}
		if i, ok := st.found[primary]; ok {
			res.Duplicates++
			st.tr.Inc(cfDuplicates)
			res.Bugs[i].Tasks = append(res.Bugs[i].Tasks, int(rec.Task))
			fl.duplicate = true
			return nil
		}
		b := Bug{
			Defect:   primary,
			Kind:     kind,
			Logic:    gen.Logic(cfg.Logics[int(rec.Task)/cfg.Iterations]),
			Oracle:   rec.Oracle,
			Observed: rec.Facts.Observed,
			Mode:     rec.Mode,
			Tasks:    []int{int(rec.Task)},
		}
		w := rec.Facts.Witness
		if lv != nil {
			// The live record carries the bug's witness from here on. Its
			// facts may be shared, so they are copied, never written.
			w = &witness{script: lv.script, seeds: lv.ancestors, rules: lv.rules}
			f := *rec.Facts
			f.Witness = w
			rec.Facts = &f
		} else if w == nil {
			return fmt.Errorf("records bug %s without a witness", primary)
		}
		b.Script, b.Ancestors, b.Rules = w.script, w.seeds, w.rules
		st.found[primary] = len(res.Bugs)
		res.Bugs = append(res.Bugs, b)
		st.tr.Inc(cfFindings)
		fl.finding = true
		if st.aw != nil && lv != nil {
			m := manifestFor(cfg, rec, lv, string(kind), primary)
			if reason != "" {
				m.Reason = reason
			}
			st.aw.write(m, lv.ancestors, lv.script, int(rec.Task))
		}
		return nil
	}

	run := rec.Facts
	switch {
	case run.Crashed:
		return record(bugdb.Crash, "")
	case run.Observed == solver.ResTimeout:
		// Fuel exhaustion. With a performance defect fired this is the
		// paper's performance-bug observation; otherwise the instance
		// was genuinely hard and only the timeout is counted. This case
		// must precede the oracle-mismatch check: a timeout carries no
		// verdict, so it can never be a soundness observation.
		res.Timeouts++
		st.tr.Inc(cfTimeouts)
		if _, ok := primaryDefect(run.Fired, bugdb.Performance); ok {
			return record(bugdb.Performance, "")
		}
	case run.Observed == solver.ResUnknown:
		res.Unknowns++
		st.tr.Inc(cfUnknowns)
		// A performance defect firing on the way to unknown is still
		// the paper's "performance bug" observation; this path is taken
		// when the campaign runs with the fuel meter disabled, where
		// draining is a no-op and no timeout verdict exists.
		if _, ok := primaryDefect(run.Fired, bugdb.Performance); ok {
			return record(bugdb.Performance, "")
		}
	default:
		// A definite verdict: compared against the oracle, then its
		// model checked (recordOf ran the model-validation oracle).
		st.tr.Inc(cfOracleChecked)
		switch {
		case contradicts(sutVerdict(run.Observed, run.Crashed), rec.Oracle):
			return record(bugdb.Soundness, "")
		case run.ModelFail != "":
			return record(bugdb.InvalidModel, run.ModelFail)
		}
	}
	return nil
}

// sutVerdict classifies a SUT run in the backend verdict taxonomy, so
// the solver under test votes, contradicts and is labelled like any
// backend: a crash, or the run's result.
func sutVerdict(observed solver.Result, crashed bool) backend.Verdict {
	if crashed {
		return backend.Crash
	}
	return backend.FromResult(observed)
}

// contradicts reports whether a verdict refutes the ground truth: the
// one contradiction predicate of the known-status and differential
// oracles, for the SUT (through sutVerdict) and backends alike. Only a
// definite verdict on a definite oracle can contradict: an
// unknown-status test (wild mutation) has nothing to refute, so it
// abstains rather than being treated as implicitly unsat.
func contradicts(v backend.Verdict, oracle core.Status) bool {
	switch oracle {
	case core.StatusSat:
		return v == backend.Unsat
	case core.StatusUnsat:
		return v == backend.Sat
	}
	return false
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
// across cfg.Threads workers. Each slot owns a generator stream keyed
// by (campaign seed, logic, slot, status) and its own solver, so the
// resulting corpus and its telemetry do not depend on which worker vets
// which slot. vet, when set, receives the vetting telemetry.
//
// Each vetting worker generates and vets in one term table, emptied
// for each slot. After the barrier the vetted seeds are imported, in
// job order, into one corpus table, which is returned frozen: tasks
// read it concurrently, each through a table of its own.
func buildCorpus(cfg *campaign, vet *telemetry.Tracker) ([]*seedPool, *ast.Table, error) {
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
	jobs := make(chan int, cfg.Threads)
	errs := make([]error, cfg.Threads)
	// Per-job vetting telemetry, merged into the campaign tracker in
	// job order after the barrier. Each entry is written by exactly one
	// job (like the pool slots), so no locking is needed and the merge
	// order is independent of scheduling.
	tries := make([]int, total)
	deltas := make([]telemetry.Delta, total)
	var wg sync.WaitGroup
	for w := range errs {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tb := ast.NewTable(nil)
			for j := range jobs {
				logicIdx := j / perLogic
				rest := j % perLogic
				slot := rest >> 1
				status := core.StatusSat
				if rest&1 == 1 {
					status = core.StatusUnsat
				}
				var tr *telemetry.Tracker
				if vet != nil {
					tr = telemetry.NewTracker()
				}
				tb.Reset()
				s, n, err := vetSlot(cfg, tb, gen.Logic(cfg.Logics[logicIdx]), slot, status, tr)
				tries[j] = n
				deltas[j] = tr.Delta()
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
			return nil, nil, err
		}
	}
	corpus := ast.NewTable(nil)
	imp := func(s *core.Seed) *core.Seed {
		return &core.Seed{Script: s.Script.Import(corpus), Status: s.Status, Witness: s.Witness}
	}
	for _, p := range pools {
		for i := range p.sat { // job order: slot i's sat seed, then its unsat seed
			p.sat[i], p.unsat[i] = imp(p.sat[i]), imp(p.unsat[i])
		}
	}
	corpus.Freeze()
	// vet receives the vetting telemetry in job order: per-slot
	// engine-counter increments and generation tries.
	if vet != nil {
		for j := range tries {
			vet.AddDelta(deltas[j])
			vet.Add(cfSeedGenerated, int64(tries[j]))
			vet.Inc(cfSeedVetted)
		}
	}
	return pools, corpus, nil
}

// vetSlot generates one vetted seed from the slot's own stream in tb,
// vetting it with a solver under test that records into tr. The second
// result is the number of generation attempts consumed.
func vetSlot(cfg *campaign, tb *ast.Table, logic gen.Logic, slot int, status core.Status, tr *telemetry.Tracker) (*core.Seed, int, error) {
	g, err := gen.NewIn(tb, logic, poolSeed(cfg.Seed, logic, slot, status))
	if err != nil {
		return nil, 0, err
	}
	sut := makeSUT(cfg, tb, tr)
	for try := 0; try < 10; try++ {
		s := g.Generate(status)
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
