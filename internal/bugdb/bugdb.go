// Package bugdb is the defect catalogue for the two simulated solvers
// under test. It substitutes for the Z3 and CVC4 binaries (plus their
// GitHub issue trackers) in the paper's evaluation: each catalogue
// entry ties an injected defect site (implemented in internal/solver)
// to the metadata the paper's figures aggregate over — solver, bug
// type, logic, year introduced, and affected releases — and versioned
// solver-under-test configurations enable exactly the defects present
// in a given release.
package bugdb

import (
	"fmt"

	"repro/internal/coverage"
	"repro/internal/solver"
)

// SUT identifies a simulated solver under test.
type SUT string

const (
	// Z3Sim plays the role of Z3 (the buggier, feature-rich solver).
	Z3Sim SUT = "z3sim"
	// CVC4Sim plays the role of CVC4 (fewer but "major" defects).
	CVC4Sim SUT = "cvc4sim"
)

// SUTs lists both solvers under test.
var SUTs = []SUT{Z3Sim, CVC4Sim}

// BugType classifies a defect per the paper's Figure 8b.
type BugType string

const (
	Soundness   BugType = "soundness"
	Crash       BugType = "crash"
	Performance BugType = "performance"
	UnknownType BugType = "unknown"
	// InvalidModel marks defects whose sat verdict is right but whose
	// reported model does not satisfy the input formula. Invisible to
	// the paper's equisatisfiability oracle; found only by the
	// harness's model-validation oracle.
	InvalidModel BugType = "invalid-model"
	// Disagreement marks a cross-check finding: a backend's definite
	// verdict contradicts the known-status oracle. Backend findings are
	// never catalogued defects — the type exists for triage labels.
	Disagreement BugType = "disagreement"
	// Garbled marks a backend that completed but produced no parseable
	// verdict (truncated, nonsense, or persistently empty output).
	Garbled BugType = "garbled"
	// MajorityDisagreement marks a consensus-oracle finding: a voter's
	// definite verdict was outvoted by the quorum of the other voters on
	// an unknown-status input.
	MajorityDisagreement BugType = "majority-disagreement"
	// MetamorphicViolation marks a consensus-oracle finding: one
	// solver's verdicts on a metamorphic pair (original plus a variant
	// with a known sat/unsat-preserving relation) contradict the pair
	// relation — a self-inconsistency that needs no ground truth.
	MetamorphicViolation BugType = "metamorphic-violation"
)

// Entry is one catalogue row.
type Entry struct {
	ID    solver.Defect
	SUT   SUT
	Type  BugType
	Logic string // primary logic the defect surfaces in (Figure 8c)
	Year  int    // year introduced (Figures 9–10)
	// IntroducedIn is the index into Releases(SUT) of the first release
	// containing the defect; the defect affects every release from
	// there through trunk.
	IntroducedIn int
	Label        string // issue-tracker label ("major" for cvc4sim soundness)
	Description  string
}

// releases per SUT, oldest first, ending in "trunk" (the paper's
// Figure 10 x-axes).
var releases = map[SUT][]string{
	Z3Sim:   {"4.5.0", "4.6.0", "4.7.1", "4.8.1", "4.8.3", "4.8.4", "4.8.5", "trunk"},
	CVC4Sim: {"1.5", "1.6", "1.7", "trunk"},
}

// releaseYear maps each release to its (simulated) release year.
var releaseYear = map[SUT]map[string]int{
	Z3Sim: {
		"4.5.0": 2016, "4.6.0": 2017, "4.7.1": 2018, "4.8.1": 2018,
		"4.8.3": 2019, "4.8.4": 2019, "4.8.5": 2019, "trunk": 2019,
	},
	CVC4Sim: {"1.5": 2017, "1.6": 2018, "1.7": 2019, "trunk": 2019},
}

// Releases returns the SUT's release train, oldest first.
func Releases(s SUT) []string { return releases[s] }

// ReleaseYear returns the year of a release.
func ReleaseYear(s SUT, release string) int { return releaseYear[s][release] }

// Catalog is the full defect catalogue.
var Catalog = []Entry{
	// --- z3sim soundness ---
	{solver.DefStrReplaceEmptyPat, Z3Sim, Soundness, "QF_S", 2018, 2, "", "str.replace with empty pattern drops the prepended replacement"},
	{solver.DefStrAtOutOfRange, Z3Sim, Soundness, "QF_S", 2019, 5, "", "str.at at index = length returns the last character instead of \"\""},
	{solver.DefStrSuffixEmpty, Z3Sim, Soundness, "QF_S", 2017, 1, "", "suffixof with empty prefix folds to false (prefixof/suffixof confusion)"},
	{solver.DefStrContainsSelf, Z3Sim, Soundness, "QF_S", 2019, 6, "", "contains(x, x) folds to false"},
	{solver.DefConcatAssocDrop, Z3Sim, Soundness, "QF_SLIA", 2019, 6, "", "concat flattening drops an operand on deep nests"},
	{solver.DefRegexMinLenStrict, Z3Sim, Soundness, "QF_S", 2019, 4, "", "regex length lower bound emitted strictly (off by one)"},
	{solver.DefRealDivCancel, Z3Sim, Soundness, "QF_NRA", 2016, 0, "", "(* (/ a b) b) cancelled without a b≠0 guard"},
	{solver.DefDivMulThrough, Z3Sim, Soundness, "NRA", 2017, 1, "", "comparison over a division multiplied through without sign analysis"},
	{solver.DefMulSignFold, Z3Sim, Soundness, "NRA", 2016, 0, "", "square-sign reasoning applied to arbitrary products"},
	{solver.DefIteLiftSwap, Z3Sim, Soundness, "QF_NRA", 2017, 1, "", "ite lifting swaps branches when the condition divides"},
	{solver.DefQuantNegPush, Z3Sim, Soundness, "NRA", 2016, 0, "", "negation pushed over exists keeps the quantifier kind"},
	{solver.DefGeZeroStrengthen, Z3Sim, Soundness, "QF_NRA", 2019, 5, "", "bound normalizer strengthens ≥ 0 to > 0 after division rewriting"},
	{solver.DefIntDivNegRound, Z3Sim, Soundness, "NIA", 2017, 1, "", "constant folding of div with negative divisor truncates instead of Euclidean rounding"},
	{solver.DefLeGuardCollapse, Z3Sim, Soundness, "QF_NRA", 2019, 5, "", "conjunction simplifier drops a distinct guard sitting next to a non-strict bound"},
	// --- z3sim invalid-model ---
	{solver.DefModelStrLenTruncate, Z3Sim, InvalidModel, "QF_S", 2019, 6, "", "string witness truncated at the length-abstraction boundary in the reported model"},
	// --- z3sim crash ---
	{solver.DefCrashDeepNonlinear, Z3Sim, Crash, "NRA", 2018, 3, "", "rewriter stack overflow on deeply nested nonlinear terms"},
	{solver.DefCrashSelfDivision, Z3Sim, Crash, "QF_NRA", 2019, 5, "", "assertion failure rewriting self-division of compound terms"},
	// --- z3sim performance ---
	{solver.DefPerfBnBBlowup, Z3Sim, Performance, "QF_NIA", 2019, 6, "", "branch-and-bound blowup on wide nonlinear integer problems"},
	{solver.DefHangStringsDFS, Z3Sim, Performance, "QF_S", 2019, 5, "", "string-search DFS hangs on wide fused variable frontiers"},

	// --- cvc4sim soundness (all labelled major, as in the paper) ---
	{solver.DefStrToIntEmpty, CVC4Sim, Soundness, "QF_S", 2019, 2, "major", "missed corner case in the str.to_int reduction for the empty string"},
	{solver.DefReplaceConcatDrop, CVC4Sim, Soundness, "QF_S", 2019, 2, "major", "replace-in-concat simplification drops the leading operand for any pattern"},
	{solver.DefReplaceVarNoop, CVC4Sim, Soundness, "QF_S", 2018, 1, "major", "replace with variable pattern in a variable subject assumed to be a no-op"},
	{solver.DefStrLenConcatDrop, CVC4Sim, Soundness, "QF_SLIA", 2017, 0, "major", "length of n-ary concat drops the last operand"},
	{solver.DefIntDivMulCancel, CVC4Sim, Soundness, "QF_NIA", 2019, 2, "major", "(div (* a b) b) cancelled without a b≠0 guard (the Figure 3 bug class)"},
	{solver.DefLenAbsPrefixFlip, CVC4Sim, Soundness, "QF_S", 2019, 3, "major", "prefix length abstraction emitted with flipped relation"},
	{solver.DefBoundConflictEq, CVC4Sim, Soundness, "QF_LRA", 2019, 3, "major", "bogus bound-conflict detection on touching bounds (regression)"},
	// --- cvc4sim invalid-model ---
	{solver.DefModelStaleSimplex, CVC4Sim, InvalidModel, "QF_LIA", 2019, 2, "major", "stale simplex assignment leaked into the reported model"},
	{solver.DefModelRealFloor, CVC4Sim, InvalidModel, "QF_LRA", 2019, 3, "", "model printer floors rational assignments to integers"},
	// --- cvc4sim performance ---
	{solver.DefPerfRegexBlowup, CVC4Sim, Performance, "QF_S", 2019, 2, "", "regex derivative memoization missing on deep expressions"},
	{solver.DefHangSimplexCycle, CVC4Sim, Performance, "QF_LIA", 2018, 1, "", "simplex cycling on wide linear integer problems (pivot loop never terminates)"},
}

// Find returns the catalogue entry for a defect ID.
func Find(id solver.Defect) (Entry, bool) {
	for _, e := range Catalog {
		if e.ID == id {
			return e, true
		}
	}
	return Entry{}, false
}

// ForSUT returns the catalogue entries of one solver under test.
func ForSUT(s SUT) []Entry {
	var out []Entry
	for _, e := range Catalog {
		if e.SUT == s {
			out = append(out, e)
		}
	}
	return out
}

// releaseIndex returns the index of a release in the SUT's train.
func releaseIndex(s SUT, release string) (int, error) {
	for i, r := range releases[s] {
		if r == release {
			return i, nil
		}
	}
	return 0, fmt.Errorf("bugdb: unknown release %q of %s", release, s)
}

// DefectsIn returns the defect set present in a given release of the
// SUT (every defect introduced at or before that release).
func DefectsIn(s SUT, release string) (map[solver.Defect]bool, error) {
	idx, err := releaseIndex(s, release)
	if err != nil {
		return nil, err
	}
	out := map[solver.Defect]bool{}
	for _, e := range ForSUT(s) {
		if e.IntroducedIn <= idx {
			out[e.ID] = true
		}
	}
	return out, nil
}

// Affects reports whether a defect is present in the given release.
func Affects(id solver.Defect, release string) bool {
	e, ok := Find(id)
	if !ok {
		return false
	}
	idx, err := releaseIndex(e.SUT, release)
	if err != nil {
		return false
	}
	return e.IntroducedIn <= idx
}

// NewSolver builds the simulated solver under test for a SUT release.
func NewSolver(s SUT, release string, cov *coverage.Tracker) (*solver.Solver, error) {
	defects, err := DefectsIn(s, release)
	if err != nil {
		return nil, err
	}
	return solver.New(solver.Config{Defects: defects, Coverage: cov}), nil
}

// NewTrunkSolver builds the trunk configuration (all defects).
func NewTrunkSolver(s SUT, cov *coverage.Tracker) *solver.Solver {
	sol, err := NewSolver(s, "trunk", cov)
	if err != nil {
		panic(err) // trunk always exists
	}
	return sol
}

// HistoricSoundnessPerYear is the paper's Figure 9 survey data: the
// number of soundness bugs reported on each solver's issue tracker per
// year (Z3 since its 2015 GitHub release, CVC4 since its 2010 tracker
// migration).
var HistoricSoundnessPerYear = map[SUT]map[int]int{
	Z3Sim:   {2015: 15, 2016: 18, 2017: 22, 2018: 28, 2019: 63},
	CVC4Sim: {2010: 2, 2011: 9, 2012: 1, 2013: 9, 2014: 3, 2015: 1, 2016: 0, 2017: 2, 2018: 13, 2019: 2},
}

// HistoricTotals is the paper's reported totals for RQ2: 146 Z3
// soundness bugs (2015–2019) and 42–43 CVC4 soundness bugs (2010–2019).
func HistoricTotals(s SUT) int {
	total := 0
	for _, n := range HistoricSoundnessPerYear[s] {
		total += n
	}
	return total
}
