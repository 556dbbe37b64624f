// Package benchmarks holds the benchmark registry shared between the
// repository's `go test -bench=Registry` suite (bench_test.go), which
// reads time, and cmd/bench, the allocation ledger, which drives the
// same bodies through testing.Benchmark at fixed op counts to record
// and gate allocs/op in BENCH_<n>.json. One body per workload keeps
// both paths measuring the same thing.
package benchmarks

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/analysis"
	"repro/internal/ast"
	"repro/internal/bugdb"
	"repro/internal/core"
	"repro/internal/coverage"
	"repro/internal/gen"
	"repro/internal/harness"
	"repro/internal/mutate"
	"repro/internal/smtlib"
	"repro/internal/solver"
	"repro/internal/solver/strings"
	"repro/internal/telemetry"
)

// ThroughputSingleThreaded measures end-to-end fused tests per second
// in single-threaded mode — the paper reports 41.5 tests/s. ns/op here
// is the cost of ONE fused test (generate pair + fuse + solve), so
// tests/s = 1e9 / (ns/op).
func ThroughputSingleThreaded(b *testing.B) {
	b.ReportAllocs()
	g, err := gen.New(gen.QFLIA, 3)
	if err != nil {
		b.Fatal(err)
	}
	var sat, unsat []*core.Seed
	for i := 0; i < 10; i++ {
		sat = append(sat, g.Sat())
		unsat = append(unsat, g.Unsat())
	}
	// The seeds' table is the frozen corpus table; the fused tests and
	// the solver work in one table over it.
	corpus := g.Terms()
	corpus.Freeze()
	tb := ast.NewTable(corpus)
	defects, err := bugdb.DefectsIn(bugdb.Z3Sim, "trunk")
	if err != nil {
		b.Fatal(err)
	}
	sut := solver.New(solver.Config{Defects: defects, Terms: tb})
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pool := sat
		if i%2 == 1 {
			pool = unsat
		}
		fused, err := core.Fuse(tb, pool[rng.Intn(len(pool))], pool[rng.Intn(len(pool))], rng, core.Options{})
		if err != nil {
			continue
		}
		harness.RunSolver(sut, fused.Script)
	}
}

// Fig8Campaign runs the (scaled) main bug-finding campaign of Figures
// 8a–8c against both trunk SUTs.
func Fig8Campaign(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f, err := harness.ExperimentFig8(harness.CampaignBudget{
			Iterations: 40, SeedPool: 10, Seed: int64(i + 1), Threads: 4,
		})
		if err != nil {
			b.Fatal(err)
		}
		if len(f.Z3.Bugs) == 0 {
			b.Fatal("campaign found no z3sim bugs")
		}
	}
}

// FusionOnly isolates the fusion engine's cost (Algorithm 2 without the
// solver).
func FusionOnly(b *testing.B) {
	b.ReportAllocs()
	g, err := gen.New(gen.QFNRA, 5)
	if err != nil {
		b.Fatal(err)
	}
	var seeds []*core.Seed
	for i := 0; i < 10; i++ {
		seeds = append(seeds, g.Sat())
	}
	// Each op fuses in an emptied table over the frozen seed table, as
	// a campaign worker's task does.
	corpus := g.Terms()
	corpus.Freeze()
	tb := ast.NewTable(corpus)
	rng := rand.New(rand.NewSource(2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tb.Reset()
		if _, err := core.Fuse(tb, seeds[i%10], seeds[(i+3)%10], rng, core.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// Generate is the seed generator's stage benchmark: each op builds one
// seed the way a corpus-vetting slot does, from a fresh generator keyed
// by the op index over an emptied term table, cycling through every
// logic and alternating sat and unsat.
func Generate(b *testing.B) {
	b.ReportAllocs()
	tb := ast.NewTable(nil)
	for i := 0; i < b.N; i++ {
		logic := gen.AllLogics[i%len(gen.AllLogics)]
		tb.Reset()
		g, err := gen.NewIn(tb, logic, int64(i))
		if err != nil {
			b.Fatal(err)
		}
		status := core.StatusSat
		if (i/len(gen.AllLogics))%2 == 1 {
			status = core.StatusUnsat
		}
		g.Generate(status)
	}
}

// Mutate is the mutation engine's stage benchmark: each op derives one
// test from a seed of a frozen QF_NRA and QF_S corpus in an emptied
// task table, alternating polarity-sound (mutate.Mutate) and wild
// (mutate.Wild) mutation, and derives the metamorphic variant of every
// wild mutant, as a wild campaign's task does.
func Mutate(b *testing.B) {
	b.ReportAllocs()
	var seeds []*core.Seed
	var scripts []*smtlib.Script
	for _, logic := range []gen.Logic{gen.QFNRA, gen.QFS} {
		g, err := gen.New(logic, 41)
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < 8; i++ {
			st := core.StatusSat
			if i%2 == 1 {
				st = core.StatusUnsat
			}
			s := g.Generate(st)
			seeds = append(seeds, s)
			scripts = append(scripts, s.Script)
		}
	}
	corpus := oneTable(scripts)
	corpus.Freeze()
	for i, s := range seeds {
		seeds[i] = &core.Seed{Script: scripts[i], Status: s.Status, Witness: s.Witness}
	}
	tb := ast.NewTable(corpus)
	rng := rand.New(rand.NewSource(43))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tb.Reset()
		seed := seeds[i%len(seeds)]
		if i%2 == 0 {
			mutate.Mutate(tb, seed, rng, mutate.Options{}) //nolint:errcheck // a seed without a site is a skip
			continue
		}
		mut, err := mutate.Wild(tb, seed, rng, mutate.Options{})
		if err != nil {
			continue
		}
		mutate.DeriveVariant(tb, mut.Script, rng, mutate.Options{}) //nolint:errcheck // no relation-preserving site is a skip
	}
}

// AnalysisGate is the static-analysis gate's allocation tripwire: one
// analysis.Gate call per op, the call the mutate path makes on every
// variant, cycling through fixed fused QF_NRA and QF_S scripts.
func AnalysisGate(b *testing.B) {
	b.ReportAllocs()
	var scripts []*smtlib.Script
	for _, logic := range []gen.Logic{gen.QFNRA, gen.QFS} {
		g, err := gen.New(logic, 31)
		if err != nil {
			b.Fatal(err)
		}
		var seeds []*core.Seed
		for i := 0; i < 8; i++ {
			seeds = append(seeds, g.Sat())
		}
		rng := rand.New(rand.NewSource(37))
		for i, s := range seeds {
			f, err := core.Fuse(g.Terms(), s, seeds[(i+1)%len(seeds)], rng, core.Options{})
			if err != nil {
				b.Fatal(err)
			}
			scripts = append(scripts, f.Script)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := analysis.Gate(scripts[i%len(scripts)], nil); err != nil {
			b.Fatal(err)
		}
	}
}

// SolverReference measures the reference solver on a fixed mix of
// generated formulas across logics.
func SolverReference(b *testing.B) {
	b.ReportAllocs()
	var scripts []*smtlib.Script
	for _, logic := range []gen.Logic{gen.QFLIA, gen.QFLRA, gen.QFNRA, gen.QFS} {
		g, err := gen.New(logic, 9)
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < 5; i++ {
			scripts = append(scripts, g.Sat().Script, g.Unsat().Script)
		}
	}
	s := solver.New(solver.Config{Terms: oneTable(scripts)})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		harness.RunSolver(s, scripts[i%len(scripts)])
	}
}

// ParsePrint measures the SMT-LIB front end round trip.
func ParsePrint(b *testing.B) {
	b.ReportAllocs()
	g, err := gen.New(gen.QFSLIA, 13)
	if err != nil {
		b.Fatal(err)
	}
	src := smtlib.Print(g.Sat().Script)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc, err := smtlib.ParseScript(src)
		if err != nil {
			b.Fatal(err)
		}
		if smtlib.Print(sc) == "" {
			b.Fatal("empty print")
		}
	}
}

// StringsCheck is the strings layer's allocation tripwire: one cold
// strings.Check per op, cycling through the conjunctions of generated
// QF_S and QF_SLIA seeds and their fusions, so the witness search, its
// compiled literal evaluation and the length abstraction all run. The
// DFS node budget is cut from the default 1500 to 60 so that the
// fusions the search cannot decide cost about as much as the rest.
func StringsCheck(b *testing.B) {
	b.ReportAllocs()
	var scripts []*smtlib.Script
	for _, logic := range []gen.Logic{gen.QFS, gen.QFSLIA} {
		g, err := gen.New(logic, 17)
		if err != nil {
			b.Fatal(err)
		}
		var seeds []*core.Seed
		for i := 0; i < 8; i++ {
			seeds = append(seeds, g.Sat())
		}
		rng := rand.New(rand.NewSource(19))
		for i, s := range seeds {
			scripts = append(scripts, s.Script)
			if f, err := core.Fuse(g.Terms(), s, seeds[(i+1)%len(seeds)], rng, core.Options{}); err == nil {
				scripts = append(scripts, f.Script)
			}
		}
	}
	tb := oneTable(scripts)
	probs := make([][]ast.Term, len(scripts))
	for i, sc := range scripts {
		probs[i] = conjunction(sc)
	}
	lim := strings.DefaultLimits()
	lim.MaxNodes = 60
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		strings.Check(&strings.Problem{Lits: probs[i%len(probs)], Limits: lim, Terms: tb})
	}
}

// ArithTheory is the arith theory front end's allocation tripwire: one
// reference Solve per op, cycling through generated and fused NRA,
// QF_NRA and QF_NIA scripts, so literal conversion, the candidate-model
// check, interval refutation and the sample grid all run, along with
// the simplex and branch-and-bound under them.
func ArithTheory(b *testing.B) {
	b.ReportAllocs()
	var scripts []*smtlib.Script
	for _, logic := range []gen.Logic{gen.NRA, gen.QFNRA, gen.QFNIA} {
		g, err := gen.New(logic, 23)
		if err != nil {
			b.Fatal(err)
		}
		var seeds []*core.Seed
		for i := 0; i < 9; i++ {
			st := core.StatusSat
			if i%3 == 2 {
				st = core.StatusUnsat
			}
			seeds = append(seeds, g.Generate(st))
		}
		rng := rand.New(rand.NewSource(29))
		for i, s := range seeds {
			scripts = append(scripts, s.Script)
			// Seeds i and i+3 share a status, so they fuse.
			if i+3 < len(seeds) {
				if f, err := core.Fuse(g.Terms(), s, seeds[i+3], rng, core.Options{}); err == nil {
					scripts = append(scripts, f.Script)
				}
			}
		}
	}
	s := solver.New(solver.Config{Terms: oneTable(scripts)})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.SolveScript(scripts[i%len(scripts)])
	}
}

// DPLLTStage is the DPLL(T) loop's stage benchmark: one reference
// Solve per op, cycling through fused QF_LIA, LIA, QF_LRA and LRA
// scripts whose solves hand the theory at least one unsat round, so
// each op runs boolean models through the theory, explains their
// conflicts and blocks the cores, along with the simplex and
// branch-and-bound under them. The scripts are picked once, outside the
// timer, by the reference solver's arith-unsat coverage probe.
func DPLLTStage(b *testing.B) {
	b.ReportAllocs()
	var scripts []*smtlib.Script
	for _, logic := range []gen.Logic{gen.QFLIA, gen.LIA, gen.QFLRA, gen.LRA} {
		g, err := gen.New(logic, 31)
		if err != nil {
			b.Fatal(err)
		}
		var seeds []*core.Seed
		for i := 0; i < 12; i++ {
			st := core.StatusSat
			if i%2 == 1 {
				st = core.StatusUnsat
			}
			seeds = append(seeds, g.Generate(st))
		}
		rng := rand.New(rand.NewSource(37))
		picked := 0
		// Seeds i and i+2 share a status, so they fuse.
		for i := 0; i+2 < len(seeds) && picked < 5; i++ {
			f, err := core.Fuse(g.Terms(), seeds[i], seeds[i+2], rng, core.Options{})
			if err != nil {
				continue
			}
			cov := coverage.NewTracker()
			solver.New(solver.Config{Coverage: cov, Terms: g.Terms()}).SolveScript(f.Script)
			if slices.Contains(cov.HitProbeIDs(), "theory.arith.result-unsat") {
				scripts = append(scripts, f.Script)
				picked++
			}
		}
	}
	if len(scripts) == 0 {
		b.Fatal("no fused script has a theory-unsat round")
	}
	s := solver.New(solver.Config{Terms: oneTable(scripts)})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.SolveScript(scripts[i%len(scripts)])
	}
}

// EnvelopeCodec is the document path's allocation tripwire: each op
// encodes, decodes and merges alone the envelope of a fixed, traced
// campaign (two logics, one sim cross-check backend). The campaign
// itself runs once, outside the timer.
func EnvelopeCodec(b *testing.B) {
	b.ReportAllocs()
	cc := harness.CampaignConfig{
		SUT:        "z3sim",
		Logics:     []string{"QF_LIA", "QF_S"},
		Iterations: 12,
		SeedPool:   4,
		Seed:       7,
		Backends:   []harness.BackendConfig{{Sim: &harness.SimBackendConfig{SUT: "cvc4sim"}}},
	}
	var trace bytes.Buffer
	out, err := harness.Start(cc, harness.RunOptions{Telemetry: telemetry.NewTracker(), Trace: &trace})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		data, err := harness.EncodeEnvelope(out.Envelope)
		if err != nil {
			b.Fatal(err)
		}
		env, err := harness.DecodeEnvelope(data)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := harness.Merge([]*harness.Envelope{env}, ""); err != nil {
			b.Fatal(err)
		}
	}
}

// ConsensusFold is the consensus classification stage benchmark: each
// op folds (Envelope.Fold) the envelope of a small wild-mode campaign
// under the auto oracle policy, so the majority vote and the
// metamorphic pair check run over every record, along with the trace
// lines they render. One of its two sim backends carries the
// guard-collapse defect and dissents, so the fold files outvoted and
// pair-violation findings too. The campaign itself runs once, outside
// the timer.
func ConsensusFold(b *testing.B) {
	b.ReportAllocs()
	cc := harness.CampaignConfig{
		SUT:               "cvc4sim",
		Release:           "1.5",
		Logics:            []string{"QF_NRA"},
		Iterations:        40,
		SeedPool:          8,
		Seed:              15,
		Mode:              harness.ModeWild,
		Oracle:            harness.OracleAuto,
		DisableModelCheck: true,
		Backends: []harness.BackendConfig{
			{Sim: &harness.SimBackendConfig{SUT: "cvc4sim", Release: "1.6"}},
			{Sim: &harness.SimBackendConfig{SUT: "cvc4sim", Release: "1.7",
				InjectDefects: []string{string(solver.DefLeGuardCollapse)}}},
		},
	}
	out, err := harness.Start(cc, harness.RunOptions{})
	if err != nil {
		b.Fatal(err)
	}
	if len(out.Result.BackendFindings) == 0 {
		b.Fatal("the dissenter filed no consensus finding")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := out.Envelope.Fold(); err != nil {
			b.Fatal(err)
		}
	}
}

// oneTable imports scripts built in several generators' tables into one
// table, in place, as a campaign imports its vetted seeds into the
// corpus table, so that one solver can work on all of them in one
// table chain. It returns the table.
func oneTable(scripts []*smtlib.Script) *ast.Table {
	tb := ast.NewTable(nil)
	for i, sc := range scripts {
		scripts[i] = sc.Import(tb)
	}
	return tb
}

// conjunction flattens a script's top-level conjunctions into literals,
// keeping the first disjunct of each disjunction.
func conjunction(s *smtlib.Script) []ast.Term {
	var lits []ast.Term
	var walk func(t ast.Term)
	walk = func(t ast.Term) {
		if app, ok := t.(*ast.App); ok && (app.Op == ast.OpAnd || app.Op == ast.OpOr) {
			for _, a := range app.Args {
				walk(a)
				if app.Op == ast.OpOr {
					return
				}
			}
			return
		}
		lits = append(lits, t)
	}
	for _, a := range s.Asserts() {
		walk(a)
	}
	return lits
}

// Entry maps a stable benchmark name, recorded in BENCH_<n>.json and
// run as Registry/<Name>, to its body. Fast reports whether the
// benchmark is cheap enough for CI short mode (seconds, not half a
// minute, per op).
type Entry struct {
	Name string
	Fast bool
	Fn   func(*testing.B)
}

// All lists the registry in fixed report order.
var All = []Entry{
	{Name: "ThroughputSingleThreaded", Fast: true, Fn: ThroughputSingleThreaded},
	{Name: "Generate", Fast: true, Fn: Generate},
	{Name: "FusionOnly", Fast: true, Fn: FusionOnly},
	{Name: "Mutate", Fast: true, Fn: Mutate},
	{Name: "AnalysisGate", Fast: true, Fn: AnalysisGate},
	{Name: "SolverReference", Fast: true, Fn: SolverReference},
	{Name: "ParsePrint", Fast: true, Fn: ParsePrint},
	{Name: "StringsCheck", Fast: true, Fn: StringsCheck},
	{Name: "ArithTheory", Fast: true, Fn: ArithTheory},
	{Name: "DPLLTStage", Fast: true, Fn: DPLLTStage},
	{Name: "EnvelopeCodec", Fast: true, Fn: EnvelopeCodec},
	{Name: "ConsensusFold", Fast: true, Fn: ConsensusFold},
	{Name: "Fig8Campaign", Fast: false, Fn: Fig8Campaign},
}
