// Package solver implements the reference SMT solver: a rewriting
// front end, if-then-else lifting, quantifier normalization with
// positive-existential skolemization, boolean (Tseitin) abstraction
// over a CDCL SAT core, and lazy theory checking through the linear
// arithmetic and string procedures. The solver certifies every sat
// answer by evaluating the model against the (rewritten) formula, and
// reports unsat only from theory-valid lemmas — so the *defect-free*
// configuration is sound by construction, while configured defects
// reproduce the bug classes the paper found in Z3 and CVC4.
package solver

import (
	"fmt"
	"runtime/debug"

	"repro/internal/ast"
	"repro/internal/coverage"
	"repro/internal/eval"
	"repro/internal/fuel"
	"repro/internal/smtlib"
	"repro/internal/telemetry"
)

// Solver-level metrics: one solves increment per Solve call, and the
// meter's total charge added when the call ends — through a defer, so
// crash-defect panics still account the work performed before the
// unwind.
var (
	cSolves = telemetry.NewCounter("yy_solves_total", "solver Solve calls")
	// FuelSpentCounter is the fuel-consumption counter; the harness
	// reads it out of per-task counter deltas for traces and histograms.
	FuelSpentCounter = telemetry.NewCounter("yy_solve_fuel_spent_total", "fuel steps consumed across all solves")
)

// Result is the solver's answer.
type Result int8

const (
	ResUnknown Result = iota
	ResSat
	ResUnsat
	// ResTimeout means the unified fuel deadline (Config.Fuel) expired
	// before the solver could certify an answer — the deterministic
	// analogue of the paper's wall-clock solver timeouts.
	ResTimeout
)

func (r Result) String() string {
	switch r {
	case ResSat:
		return "sat"
	case ResUnsat:
		return "unsat"
	case ResTimeout:
		return "timeout"
	default:
		return "unknown"
	}
}

// Outcome is the full result of a solve call.
type Outcome struct {
	Result Result
	Model  eval.Model // set when Result == ResSat
	Reason string     // set when Result == ResUnknown
	// DefectsFired lists the injected-defect sites whose code path ran
	// during this solve — the triage signal the harness uses to
	// deduplicate bug reports (standing in for the paper's root-cause
	// analysis on the solver's issue tracker).
	DefectsFired []Defect
	// FuelSpent is the number of fuel steps the solve consumed — the
	// step-based effort measure recorded in telemetry and traces.
	FuelSpent int64
}

// Defect identifies one injected bug site. The catalogue with metadata
// (solver under test, bug type, logic, affected releases) lives in
// internal/bugdb; this package implements the sites.
type Defect string

// Rewriter defects (wrong transformations; can corrupt either answer).
const (
	DefStrToIntEmpty      Defect = "rw-str-to-int-empty"
	DefStrReplaceEmptyPat Defect = "rw-str-replace-empty-pattern"
	DefStrAtOutOfRange    Defect = "rw-str-at-out-of-range"
	DefStrSubstrNegLen    Defect = "rw-str-substr-neg-len"
	DefStrLenConcatDrop   Defect = "rw-str-len-concat-drop"
	DefStrSuffixEmpty     Defect = "rw-str-suffix-empty"
	DefStrContainsSelf    Defect = "rw-str-contains-self"
	DefIntDivNegRound     Defect = "rw-int-div-neg-round"
	DefModZero            Defect = "rw-mod-zero"
	DefRealDivCancel      Defect = "rw-real-div-cancel"
	DefMulSignFold        Defect = "rw-mul-sign-fold"
	DefIteLiftSwap        Defect = "rw-ite-lift-swap"
	DefQuantNegPush       Defect = "rw-quant-neg-push"
	DefDistinctPairDrop   Defect = "rw-distinct-pair-drop"
	DefGeZeroStrengthen   Defect = "rw-ge-zero-strengthen"
	DefAbsNegFold         Defect = "rw-abs-neg-fold"
	DefConcatAssocDrop    Defect = "rw-concat-assoc-drop"
	DefIndexOfEmptyNeedle Defect = "rw-indexof-empty-needle"
	// The fusion-pattern cancellation family: these sites guard the
	// rewrites that fused formulas exercise through their inverted
	// fusion constraints (x = (x·y) div y, y = replace(x++y, x, ""), …).
	DefIntDivMulCancel    Defect = "rw-int-div-mul-cancel"
	DefSubstrConcatPrefix Defect = "rw-substr-concat-prefix"
	DefReplaceConcatDrop  Defect = "rw-replace-concat-drop"
	// Inversion-shape defects: fire on the term shapes SAT fusion's
	// inversion substitution introduces (replace(z, x, "") with variable
	// operands; comparisons over div terms), over-constraining the
	// formula — the wrong-unsat answers the paper saw on φsat.
	DefReplaceVarNoop Defect = "rw-replace-var-noop"
	DefDivMulThrough  Defect = "rw-div-mul-through"
	// DefLeGuardCollapse drops a (distinct a b) conjunct sitting next to
	// a non-strict bound over the same pair — the shape the mutation
	// engine's <→≤-with-guard rewrite builds and plain fusion never
	// does, so only mutation campaigns reach this site.
	DefLeGuardCollapse Defect = "rw-le-guard-collapse"
)

// Model-corruption defects (invalid models behind a correct sat
// verdict). These sites run in Solve after the model has been
// certified against the rewritten formula, simulating model
// finalization/printing bugs: the verdict stays right, so neither the
// solver's own certification nor a verdict-only equisatisfiability
// oracle can see them — only harness-side model validation catches
// them.
const (
	DefModelStaleSimplex   Defect = "md-stale-simplex-assignment"
	DefModelStrLenTruncate Defect = "md-strlen-witness-truncate"
	DefModelRealFloor      Defect = "md-real-model-floor"
)

// Theory defects (wrong inferences; corrupt unsat answers).
const (
	DefLenAbsPrefixFlip  Defect = "th-len-abs-prefix-flip"
	DefRegexMinLenStrict Defect = "th-regex-min-len-strict"
	DefBoundConflictEq   Defect = "th-bound-conflict-eq"
)

// Crash defects (panics on specific shapes).
const (
	DefCrashDeepNonlinear Defect = "cr-deep-nonlinear-rewrite"
	DefCrashSelfDivision  Defect = "cr-self-division"
	DefCrashRangeBounds   Defect = "cr-range-bounds"
	DefCrashBigSubstr     Defect = "cr-big-substr-index"
)

// Performance defects (resource exhaustion → timeout). All four sites
// simulate their blowup by draining the solve's fuel meter: the
// observable signature is identical to a genuine non-terminating
// search — a deterministic ResTimeout — without the wall-clock cost.
const (
	DefPerfRegexBlowup  Defect = "pf-regex-derivative-blowup"
	DefPerfBnBBlowup    Defect = "pf-branch-and-bound-blowup"
	DefHangStringsDFS   Defect = "pf-strings-dfs-hang"
	DefHangSimplexCycle Defect = "pf-simplex-cycle-hang"
)

// DefFaultSyntheticPanic is a fault-injection hook for the harness's
// own containment tests: when enabled, the solver panics with a plain
// error (not a *CrashError) on its first theory check, simulating a
// bug in our infrastructure rather than in a solver under test. It is
// deliberately absent from AllDefects and the bugdb catalogue — it is
// not a defect of the simulated solvers.
const DefFaultSyntheticPanic Defect = "if-synthetic-panic"

// AllDefects lists every implemented defect site.
var AllDefects = []Defect{
	DefStrToIntEmpty, DefStrReplaceEmptyPat, DefStrAtOutOfRange,
	DefStrSubstrNegLen, DefStrLenConcatDrop, DefStrSuffixEmpty,
	DefStrContainsSelf, DefIntDivNegRound, DefModZero, DefRealDivCancel,
	DefMulSignFold, DefIteLiftSwap, DefQuantNegPush, DefDistinctPairDrop,
	DefGeZeroStrengthen, DefAbsNegFold, DefConcatAssocDrop,
	DefIndexOfEmptyNeedle, DefIntDivMulCancel, DefSubstrConcatPrefix,
	DefReplaceConcatDrop, DefReplaceVarNoop, DefDivMulThrough,
	DefLeGuardCollapse,
	DefModelStaleSimplex, DefModelStrLenTruncate, DefModelRealFloor,
	DefLenAbsPrefixFlip, DefRegexMinLenStrict, DefBoundConflictEq,
	DefCrashDeepNonlinear, DefCrashSelfDivision, DefCrashRangeBounds,
	DefCrashBigSubstr,
	DefPerfRegexBlowup, DefPerfBnBBlowup,
	DefHangStringsDFS, DefHangSimplexCycle,
}

// Per-engine effort bounds (counters, not wall-clock, so runs are
// deterministic). The strings search uses strings.DefaultLimits.
const (
	// arithNodeBudget bounds branch-and-bound nodes per theory check.
	arithNodeBudget = 300
)

// ownTermsMax caps the table of a solver built without Config.Terms:
// a solve that starts over it empties it first (size-based, like the
// rewrite memo's cap), so a long-lived solver keeps bounded memory.
const ownTermsMax = 1 << 16

// DefaultFuel is the per-solve step budget of a zero Config.Fuel: far
// above what any generated or fused formula needs under the per-engine
// bounds (measured in the low hundreds of thousands), yet finite, so
// every default-configured solve provably halts.
const DefaultFuel int64 = 10_000_000

// Config configures a solver instance.
type Config struct {
	// Defects enables injected bug sites (nil = reference behaviour).
	Defects map[Defect]bool
	// Coverage records probe hits when non-nil.
	Coverage *coverage.Tracker
	// Telemetry records step counters (CDCL conflicts, simplex pivots,
	// DFS nodes, …) when non-nil. Like the fuel meter, a tracker is not
	// safe for concurrent use: one per solver instance.
	Telemetry *telemetry.Tracker
	// Fuel is the unified step budget for one Solve call: every engine
	// — CDCL conflicts and decisions, simplex pivots, branch-and-bound
	// nodes, interval-refinement passes, strings DFS nodes, and regex
	// derivative constructions — spends from one meter, and exhaustion
	// turns an uncertified answer into ResTimeout. 0 means DefaultFuel,
	// a positive value overrides it, and a negative value disables the
	// meter. Campaign configs and the CLIs pass their fuel setting
	// through unchanged.
	Fuel int64
	// Terms is the table the solved scripts are built in; the solver
	// builds its rewritten and preprocessed terms there too, so
	// structurally equal terms stay one node. Nil gives the solver a
	// table of its own, into which each solve first imports its input;
	// that table is emptied once it holds ownTermsMax terms.
	Terms *ast.Table
}

// Has reports whether a defect is enabled.
func (c *Config) Has(d Defect) bool { return c.Defects[d] }

// Solver is a configured solver instance. It is safe to reuse
// sequentially; create one per goroutine for parallel use.
type Solver struct {
	cfg    Config
	fired  map[Defect]bool
	defLog []defEntry // definitional inlinings recorded by preprocess
	// meter is the per-Solve fuel meter; fresh per call, so solver
	// reuse across tasks carries no deadline state.
	meter *fuel.Meter
	// freshCounter numbers skolem/ite-lift variables. Per-solver (not
	// package-global) so parallel campaigns neither race on it nor let
	// shard interleaving leak into generated names.
	freshCounter int
	// warm holds the semantically transparent caches reused across
	// Solve calls (see warm.go) for the solver's lifetime: the harness
	// builds one solver per task.
	warm warmState
	// memo is the current solve's literal memo (see litmemo.go): nil
	// until the solve's first arith theory call, dropped when it ends.
	memo *litMemo
	// terms is the table every term the solver builds goes to; own
	// means the solver made it and imports its input there.
	terms *ast.Table
	own   bool
}

// New returns a solver with the given configuration.
func New(cfg Config) *Solver {
	s := &Solver{cfg: cfg, terms: cfg.Terms}
	if s.terms == nil {
		s.terms, s.own = ast.NewTable(nil), true
	}
	return s
}

// meterLimit maps Config.Fuel to a fuel.Meter limit (0 = unlimited).
func (c *Config) meterLimit() int64 {
	switch {
	case c.Fuel == 0:
		return DefaultFuel
	case c.Fuel < 0:
		return 0
	}
	return c.Fuel
}

// NewReference returns the defect-free reference solver.
func NewReference() *Solver { return New(Config{}) }

// hit records a coverage probe.
func (s *Solver) hit(p *coverage.Probe) { s.cfg.Coverage.Hit(p) }

// defect reports whether a defect site is active, recording it as fired
// when it is. Call exactly at the site's trigger point.
func (s *Solver) defect(d Defect) bool {
	if !s.cfg.Has(d) {
		return false
	}
	if s.fired == nil {
		s.fired = map[Defect]bool{}
	}
	s.fired[d] = true
	return true
}

// CrashError is the panic value raised by crash-defect sites; the
// harness recovers it and classifies the result as a crash.
type CrashError struct {
	Site Defect
	Msg  string
}

func (e *CrashError) Error() string {
	return fmt.Sprintf("internal error at %s: %s", e.Site, e.Msg)
}

func (s *Solver) crash(d Defect, msg string) {
	panic(&CrashError{Site: d, Msg: msg})
}

// Panic is a panic recovered from a solve, sorted by the one rule that
// separates the two fault domains: a *CrashError is the solver under
// test crashing at a crash-defect site, which is a finding; any other
// value is this implementation failing, which never is.
type Panic struct {
	Crash *CrashError // the SUT crashed; nil for an internal fault
	Value any         // the recovered value
	Stack string      // the panicking stack of an internal fault
}

// SolveRecovered is SolveScript with a panic of the solve recovered
// and sorted; p is nil when the solve returned.
func (s *Solver) SolveRecovered(sc *smtlib.Script) (out Outcome, p *Panic) {
	defer func() {
		if r := recover(); r != nil {
			p = &Panic{Value: r}
			if p.Crash, _ = r.(*CrashError); p.Crash == nil {
				p.Stack = string(debug.Stack())
			}
		}
	}()
	return s.SolveScript(sc), nil
}

// SolveScript solves the conjunction of a script's asserts.
func (s *Solver) SolveScript(sc *smtlib.Script) Outcome {
	return s.Solve(sc.Asserts())
}

// Solve decides the conjunction of the given boolean terms. Every call
// runs under a fresh fuel meter (Config.Fuel); when the meter expires
// before an answer is certified, the outcome is ResTimeout. Sat and
// unsat answers reached before exhaustion stand — they are certified
// (or theory-valid) regardless of how much fuel remains.
func (s *Solver) Solve(asserts []ast.Term) Outcome {
	s.fired = map[Defect]bool{}
	s.meter = fuel.NewMeter(s.cfg.meterLimit())
	// Reset per-solve naming state: a reused solver must produce the
	// same fresh names — and so the same per-task telemetry — whatever
	// it solved before.
	s.freshCounter = 0
	s.cfg.Telemetry.Inc(cSolves)
	if s.own {
		if s.terms.Len() >= ownTermsMax {
			s.terms.Reset()
		}
		imported := make([]ast.Term, len(asserts))
		for i, a := range asserts {
			imported[i] = s.terms.Import(a)
		}
		asserts = imported
	}
	// Deferred so crash-defect panics still account the steps performed
	// before the unwind.
	defer func() {
		s.cfg.Telemetry.Add(FuelSpentCounter, s.meter.Spent())
		s.memo = nil
	}()
	out := s.solve(asserts)
	out.FuelSpent = s.meter.Spent()
	if out.Result == ResUnknown && s.meter.Exhausted() {
		out.Result = ResTimeout
		out.Reason = "fuel exhausted"
	}
	if out.Result == ResSat {
		s.corruptModel(out.Model)
	}
	switch out.Result {
	case ResSat:
		s.hit(pSolveSat)
	case ResUnsat:
		s.hit(pSolveUnsat)
	default:
		s.hit(pSolveUnknown)
	}
	for d := range s.fired {
		out.DefectsFired = append(out.DefectsFired, d)
	}
	sortDefects(out.DefectsFired)
	return out
}

// Preprocess runs Solve's front end alone on asserts from the
// solver's table chain — rewriting, definitional inlining, quantifier
// normalization and if-then-else lifting — and returns the processed
// asserts. Campaigns reach it only through Solve; it exists so the
// rewrite stage can be measured on its own.
func (s *Solver) Preprocess(asserts []ast.Term) ([]ast.Term, error) {
	s.fired, s.freshCounter = map[Defect]bool{}, 0
	return s.preprocess(asserts)
}

func sortDefects(ds []Defect) {
	for i := 1; i < len(ds); i++ {
		for j := i; j > 0 && ds[j-1] > ds[j]; j-- {
			ds[j-1], ds[j] = ds[j], ds[j-1]
		}
	}
}
