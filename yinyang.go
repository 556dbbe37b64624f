// Package yinyang is the public façade of this repository: a Go
// implementation of Semantic Fusion ("Validating SMT Solvers via
// Semantic Fusion", PLDI 2020) together with everything it needs to
// run end to end — an SMT-LIB front end, a reference SMT solver for the
// arithmetic and string logics, seed-formula generators with
// known-by-construction satisfiability, two simulated solvers under
// test with catalogued injected defects, a formula reducer, and the
// fuzzing harness that reproduces the paper's evaluation.
//
// Quick start:
//
//	seedGen, _ := yinyang.NewGenerator(yinyang.QF_S, 1)
//	phi1, phi2 := seedGen.Sat(), seedGen.Sat()
//	fused, _ := yinyang.Fuse(phi1, phi2, rand.New(rand.NewSource(1)))
//	out := yinyang.NewReferenceSolver().Solve(fused.Script)
//	fmt.Println(out.Result, "expected", fused.Oracle)
//
// See examples/ for runnable programs and cmd/ for the CLI tools.
package yinyang

import (
	"math/rand"

	"repro/internal/bugdb"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/harness"
	"repro/internal/reduce"
	"repro/internal/smtlib"
	"repro/internal/solver"
)

// Re-exported core types. The façade keeps one name per concept; the
// internal packages carry the full API surface.
type (
	// Script is a parsed SMT-LIB script.
	Script = smtlib.Script
	// Seed is a formula with known satisfiability (and witness model
	// for sat seeds).
	Seed = core.Seed
	// Fused is the result of a fusion: script, oracle, triplets.
	Fused = core.Fused
	// FusionOptions tunes the fusion engine.
	FusionOptions = core.Options
	// Solver is an SMT solver instance (reference or under test).
	Solver = solver.Solver
	// Outcome is a solver result.
	Outcome = solver.Outcome
	// Generator produces seeds for one logic.
	Generator = gen.Generator
	// Logic names a seed family.
	Logic = gen.Logic
	// Campaign configures a fuzzing run: the serializable campaign
	// config that checkpoints, shard envelopes, and reproducer bundles
	// record.
	Campaign = harness.CampaignConfig
	// CampaignResult is a fuzzing run's findings.
	CampaignResult = harness.Result
	// Bug is one deduplicated finding.
	Bug = harness.Bug
	// SUT names a simulated solver under test.
	SUT = bugdb.SUT
)

// Logics.
const (
	LIA        = gen.LIA
	LRA        = gen.LRA
	NRA        = gen.NRA
	QF_LIA     = gen.QFLIA
	QF_LRA     = gen.QFLRA
	QF_NRA     = gen.QFNRA
	QF_NIA     = gen.QFNIA
	QF_S       = gen.QFS
	QF_SLIA    = gen.QFSLIA
	StringFuzz = gen.StringFuzz
)

// Solvers under test.
const (
	Z3Sim   = bugdb.Z3Sim
	CVC4Sim = bugdb.CVC4Sim
)

// Statuses (fuzzing oracles).
const (
	StatusSat   = core.StatusSat
	StatusUnsat = core.StatusUnsat
)

// Parse parses SMT-LIB source into a script.
func Parse(src string) (*Script, error) { return smtlib.ParseScript(src) }

// Print renders a script back to SMT-LIB concrete syntax.
func Print(s *Script) string { return smtlib.Print(s) }

// NewGenerator returns a seed generator for the logic.
func NewGenerator(logic Logic, seed int64) (*Generator, error) { return gen.New(logic, seed) }

// Fuse fuses two seeds of equal (or mixed) status per the paper's
// Algorithm 2, with default options.
func Fuse(phi1, phi2 *Seed, rng *rand.Rand) (*Fused, error) {
	return core.Fuse(phi1, phi2, rng, core.Options{})
}

// FuseWith fuses with explicit options.
func FuseWith(phi1, phi2 *Seed, rng *rand.Rand, opts FusionOptions) (*Fused, error) {
	return core.Fuse(phi1, phi2, rng, opts)
}

// Concat is the ConcatFuzz baseline: concatenation without fusion.
func Concat(phi1, phi2 *Seed, rng *rand.Rand) (*Fused, error) {
	return core.Concat(phi1, phi2, rng)
}

// NewReferenceSolver returns the defect-free reference solver.
func NewReferenceSolver() *Solver { return solver.NewReference() }

// NewSUT returns a simulated solver under test at a release ("trunk"
// enables every catalogued defect).
func NewSUT(s SUT, release string) (*Solver, error) {
	return bugdb.NewSolver(s, release, nil)
}

// Solve runs a solver on a script with crash capture, classifying the
// result the way the harness does.
func Solve(s *Solver, sc *Script) harness.RunResult { return harness.RunSolver(s, sc) }

// RunCampaign executes a fuzzing campaign (the paper's Algorithm 1) to
// completion. An invalid config is an error, never a partial run.
func RunCampaign(c Campaign) (*CampaignResult, error) {
	out, err := harness.Start(c, harness.RunOptions{})
	if err != nil {
		return nil, err
	}
	return out.Result, nil
}

// ReduceScript shrinks a script while the predicate stays true.
func ReduceScript(s *Script, interesting func(*Script) bool) *Script {
	return reduce.Reduce(s, interesting, reduce.Options{})
}
