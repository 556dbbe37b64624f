// Package core implements Semantic Fusion, the paper's contribution:
// fusing two formulas of known, equal satisfiability into a new formula
// that is equisatisfiable by construction (PLDI 2020, "Validating SMT
// Solvers via Semantic Fusion").
//
// SAT fusion (Proposition 1) conjoins two satisfiable formulas after
// replacing random occurrences of a variable pair (x, y) by inversion
// terms over a fresh fusion variable z. UNSAT fusion (Proposition 2)
// disjoins two unsatisfiable formulas and adds the fusion constraints
// z = f(x,y), x = rx(y,z), y = ry(x,z). Mixed fusion handles one
// satisfiable and one unsatisfiable ancestor.
//
// One divergence from the paper is required for oracle exactness: the
// paper relies on SMT-LIB's underspecified division by zero, while this
// system fixes x/0 = 0 (see internal/eval). Under a fixed
// interpretation, inversion functions like rx(y,z) = z div y only
// recover x when they are exact under the ancestors' witness models, so
// SAT fusion validates each candidate fusion-function instance against
// the witnesses (generically, by evaluation) and discards instances
// that do not invert exactly. UNSAT fusion needs no witnesses: the
// added fusion constraints force the inversions, making Proposition 2
// semantics-robust.
package core

import (
	"errors"
	"fmt"
	"maps"
	"math/rand"

	"repro/internal/analysis"
	"repro/internal/ast"
	"repro/internal/eval"
	"repro/internal/smtlib"
)

// Status is a formula's known satisfiability (the fuzzing oracle).
type Status int8

const (
	StatusSat Status = iota
	StatusUnsat
	// StatusUnknown marks an input whose ground truth no generator
	// constructed (wild mutations). Such tasks cannot be judged against
	// a known-status oracle; they flow to the consensus policies in
	// internal/harness instead.
	StatusUnknown
)

func (s Status) String() string {
	switch s {
	case StatusSat:
		return "sat"
	case StatusUnsat:
		return "unsat"
	default:
		return "unknown"
	}
}

// Seed is a formula with its ground-truth status. Sat seeds carry a
// witness model (used to select exactly-inverting fusion instances).
type Seed struct {
	Script  *smtlib.Script
	Status  Status
	Witness eval.Model
}

// Mode is the concatenation shape used by a fusion.
type Mode int8

const (
	// ModeSatConj: both ancestors sat, conjunction (Proposition 1).
	ModeSatConj Mode = iota
	// ModeUnsatDisj: both ancestors unsat, disjunction plus fusion
	// constraints (Proposition 2).
	ModeUnsatDisj
	// ModeMixedSatDisj: sat ∨ unsat ancestor, disjunction (sat oracle).
	ModeMixedSatDisj
	// ModeMixedUnsatConj: sat ∧ unsat ancestor, conjunction plus fusion
	// constraints (unsat oracle).
	ModeMixedUnsatConj
)

func (m Mode) String() string {
	switch m {
	case ModeSatConj:
		return "sat-conjunction"
	case ModeUnsatDisj:
		return "unsat-disjunction"
	case ModeMixedSatDisj:
		return "mixed-sat-disjunction"
	default:
		return "mixed-unsat-conjunction"
	}
}

// oracle is the status every derivation in the mode has by
// construction.
func (m Mode) oracle() Status {
	if m == ModeSatConj || m == ModeMixedSatDisj {
		return StatusSat
	}
	return StatusUnsat
}

// Triplet records one variable fusion (z, x, y) with the chosen
// functions.
type Triplet struct {
	Z, X, Y  string
	Sort     ast.Sort
	Function string // description of the fusion function row
}

// Fused is the result of a fusion.
type Fused struct {
	Script   *smtlib.Script
	Oracle   Status
	Mode     Mode
	Triplets []Triplet
	// Witness is a model of the fused formula when Oracle == StatusSat.
	Witness eval.Model
}

// Options tunes the fusion.
type Options struct {
	// MaxPairs bounds the number of fusion triplets (default 2; the
	// actual count is 1..MaxPairs chosen at random).
	MaxPairs int
	// ReplaceProb is the probability of replacing each replaceable
	// occurrence by an inversion term (default 0.5).
	ReplaceProb float64
	// Table overrides the fusion-function table (default DefaultTable).
	Table []FusionFn
}

func (o Options) withDefaults() Options {
	if o.MaxPairs == 0 {
		o.MaxPairs = 2
	}
	if o.ReplaceProb == 0 {
		o.ReplaceProb = 0.5
	}
	if o.Table == nil {
		o.Table = DefaultTable
	}
	return o
}

// ErrNoFusablePair is returned when the ancestors share no variable
// pair of a fusable sort (Int, Real, or String).
var ErrNoFusablePair = errors.New("core: no fusable variable pair")

// Fuse fuses two seeds per the paper's Algorithm 2, building the fused
// script in tb (which must hold, or be a child of the table holding,
// the seeds' terms). It is Concat's concatenation plus the variable
// fusion: triplets (z, x, y), their inversions substituted into the
// ancestors, and the mode's divisor guards or fusion constraints. The
// mode follows from the ancestors' statuses as in Concat.
func Fuse(tb *ast.Table, phi1, phi2 *Seed, rng *rand.Rand, opts Options) (*Fused, error) {
	f := &fuser{tb: tb, rng: rng, opts: opts.withDefaults()}
	phi1, phi2 = f.pickMode(phi1, phi2)
	witness2 := f.concatenate(phi1, phi2)
	decls1, decls2 := f.decls1, f.decls2

	// Build the candidate pair pool: same-sort fusable pairs.
	type pair struct {
		x, y *smtlib.DeclareFun
	}
	var pool []pair
	for _, dx := range decls1 {
		if !fusableSort(dx.Sort) {
			continue
		}
		for _, dy := range decls2 {
			if dy.Sort == dx.Sort {
				pool = append(pool, pair{x: dx, y: dy})
			}
		}
	}
	if len(pool) == 0 {
		return nil, ErrNoFusablePair
	}

	nPairs := 1 + f.rng.Intn(f.opts.MaxPairs)
	if nPairs > len(pool) {
		nPairs = len(pool)
	}
	f.rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	// Distinct variables across triplets (the paper's random_map).
	var chosen []pair
	usedVar := map[string]bool{}
	for _, p := range pool {
		if usedVar[p.x.Name] || usedVar[p.y.Name] {
			continue
		}
		usedVar[p.x.Name] = true
		usedVar[p.y.Name] = true
		chosen = append(chosen, p)
		if len(chosen) == nPairs {
			break
		}
	}

	needWitness := f.mode != ModeUnsatDisj
	constrain := f.mode.oracle() == StatusUnsat
	combined := eval.Model{}
	if needWitness {
		if phi1.Witness == nil || (f.mode == ModeSatConj && witness2 == nil) {
			return nil, fmt.Errorf("core: %v fusion requires a witness for each sat ancestor", f.mode)
		}
		maps.Copy(combined, phi1.Witness)
		if f.mode == ModeSatConj {
			maps.Copy(combined, witness2)
		} else {
			defaultComplete(combined, decls2) // the unsat side's values are arbitrary
		}
		// Seeds may not constrain every declared variable.
		defaultComplete(combined, decls1)
	}

	var (
		triplets []Triplet
		extra    []ast.Term // divisor guards (sat modes) or fusion constraints
		zDecls   []*smtlib.DeclareFun
	)
	for _, p := range chosen {
		x := f.tb.Var(p.x.Name, p.x.Sort)
		y := f.tb.Var(p.y.Name, p.y.Sort)
		zName := f.freshZ()
		z := f.tb.Var(zName, p.x.Sort)

		inst, desc, ok := f.pickInstance(p.x.Sort, x, y, z, combined, needWitness)
		if !ok {
			continue // no exactly-inverting instance for these witnesses
		}
		if needWitness {
			zv, err := eval.Term(inst.apply, combined)
			if err != nil {
				continue
			}
			combined[zName] = zv
		}
		zDecls = append(zDecls, &smtlib.DeclareFun{Name: zName, Sort: p.x.Sort})
		triplets = append(triplets, Triplet{Z: zName, X: p.x.Name, Y: p.y.Name, Sort: p.x.Sort, Function: desc})

		// Variable inversion: replace random free occurrences of x in
		// φ1's asserts and y in φ2's asserts.
		f.asserts1 = f.substRandom(f.asserts1, p.x.Name, inst.invertX)
		f.asserts2 = f.substRandom(f.asserts2, p.y.Name, inst.invertY)

		if constrain {
			// Divisor guards are folded into each constraint (keeping
			// one assert per constraint): conjoining d ≠ 0 to an unsat
			// formula preserves unsatisfiability, and it makes the
			// inversion's division well-guarded under the fixed
			// x/0 = 0 interpretation.
			extra = append(extra,
				withDivisorGuards(f.tb, f.tb.Eq(z, inst.apply), inst.apply),
				withDivisorGuards(f.tb, f.tb.Eq(x, inst.invertX), inst.invertX),
				withDivisorGuards(f.tb, f.tb.Eq(y, inst.invertY), inst.invertY))
		} else {
			// Sat modes assert divisor guards standalone. They hold
			// under the combined witness: pickInstance rejects rows
			// whose divisors evaluate to zero.
			extra = append(extra, divisorGuards(f.tb, inst.invertX, inst.invertY)...)
		}
	}
	if len(triplets) == 0 {
		return nil, ErrNoFusablePair
	}

	out, err := f.finish("fused", zDecls, extra, triplets)
	if err != nil {
		return nil, err
	}
	if out.Oracle == StatusSat {
		out.Witness = combined
	}
	return out, nil
}

// fuser carries one derivation — a concatenation, or a fusion on top
// of one — through its steps.
type fuser struct {
	tb   *ast.Table
	rng  *rand.Rand
	opts Options
	mode Mode

	// The ancestors after renaming apart: φ1's declarations and
	// asserts as given, φ2's renamed. Fusion substitutes inversions
	// into the asserts before finish composes them.
	decls1, decls2     []*smtlib.DeclareFun
	asserts1, asserts2 []ast.Term

	used map[string]bool // all variable names in play
	// zCounter numbers fusion variables. Per-fuser (not package-global)
	// so concurrent campaigns neither race on it nor let goroutine
	// interleaving leak into fused-variable names; f.used already
	// guarantees uniqueness within the script.
	zCounter int
}

// pickMode sets the mode from the ancestors' statuses and returns them
// sat ancestor first: sat ∧ sat and unsat ∨ unsat, and for mixed
// ancestors one draw between the sat-disjunction and the
// unsat-conjunction variant.
func (f *fuser) pickMode(phi1, phi2 *Seed) (*Seed, *Seed) {
	switch {
	case phi1.Status == StatusSat && phi2.Status == StatusSat:
		f.mode = ModeSatConj
	case phi1.Status == StatusUnsat && phi2.Status == StatusUnsat:
		f.mode = ModeUnsatDisj
	default:
		if phi1.Status == StatusUnsat {
			phi1, phi2 = phi2, phi1
		}
		f.mode = ModeMixedSatDisj
		if f.rng.Intn(2) != 0 {
			f.mode = ModeMixedUnsatConj
		}
	}
	return phi1, phi2
}

// concatenate takes the ancestors' declarations and asserts, renaming
// φ2's variables apart from φ1's, and returns φ2's witness under the
// renaming.
func (f *fuser) concatenate(phi1, phi2 *Seed) eval.Model {
	f.decls1, f.asserts1 = phi1.Script.Declarations(), phi1.Script.Asserts()
	f.used = map[string]bool{}
	for _, d := range f.decls1 {
		f.used[d.Name] = true
	}
	var witness2 eval.Model
	f.decls2, f.asserts2, witness2 = f.renameApart(phi2)
	return witness2
}

// finish composes the derived script: the ancestors' declarations and
// then the fusion variables', the ancestors' asserts conjoined (as
// separate asserts) or disjoined (as one) by the mode, and then the
// extra asserts. It names the script's logic and runs the static gate
// on it; what names the derivation in a gate error, which is an engine
// bug and must never reach a solver run.
func (f *fuser) finish(what string, zDecls []*smtlib.DeclareFun, extra []ast.Term, triplets []Triplet) (*Fused, error) {
	decls := make([]*smtlib.DeclareFun, 0, len(f.decls1)+len(f.decls2)+len(zDecls))
	decls = append(append(append(decls, f.decls1...), f.decls2...), zDecls...)
	var asserts []ast.Term
	if f.mode == ModeSatConj || f.mode == ModeMixedUnsatConj {
		asserts = append(append(make([]ast.Term, 0, len(f.asserts1)+len(f.asserts2)+len(extra)), f.asserts1...), f.asserts2...)
	} else {
		asserts = append(make([]ast.Term, 0, 1+len(extra)), f.tb.Or(conj(f.tb, f.asserts1), conj(f.tb, f.asserts2)))
	}
	asserts = append(asserts, extra...)

	script := smtlib.NewScript("", decls, asserts)
	script.Commands = append([]smtlib.Command{&smtlib.SetLogic{Logic: analysis.InferLogic(script)}}, script.Commands...)

	meta := &analysis.FusionMeta{
		Mode:            f.mode.String(),
		Seed1Vars:       declNames(f.decls1),
		Seed2Vars:       declNames(f.decls2),
		WantConstraints: f.mode.oracle() == StatusUnsat,
	}
	for _, tr := range triplets {
		meta.Triplets = append(meta.Triplets, analysis.FusionTriplet{Z: tr.Z, X: tr.X, Y: tr.Y, Sort: tr.Sort})
	}
	if err := analysis.Gate(script, meta); err != nil {
		return nil, fmt.Errorf("core: %s script failed static verification: %w", what, err)
	}
	return &Fused{Script: script, Oracle: f.mode.oracle(), Mode: f.mode, Triplets: triplets}, nil
}

// defaultComplete gives each declared variable the model lacks its
// sort's default value.
func defaultComplete(m eval.Model, decls []*smtlib.DeclareFun) {
	for _, d := range decls {
		if _, ok := m[d.Name]; !ok {
			m[d.Name] = eval.DefaultValue(d.Sort)
		}
	}
}

func declNames(decls []*smtlib.DeclareFun) []string {
	out := make([]string, len(decls))
	for i, d := range decls {
		out[i] = d.Name
	}
	return out
}

// variableDivisors collects the non-literal divisor subterms of the
// given terms, deduplicated by interned term identity (structurally
// equal divisors are one node).
func variableDivisors(terms ...ast.Term) []ast.Term {
	var out []ast.Term
	seen := map[ast.Term]bool{}
	add := func(d ast.Term) {
		switch d.(type) {
		case *ast.IntLit, *ast.RealLit:
			return
		}
		if !seen[d] {
			seen[d] = true
			out = append(out, d)
		}
	}
	for _, t := range terms {
		ast.Walk(t, func(n ast.Term) bool {
			app, ok := n.(*ast.App)
			if !ok {
				return true
			}
			switch app.Op {
			case ast.OpIntDiv, ast.OpRealDiv:
				for _, d := range app.Args[1:] {
					add(d)
				}
			case ast.OpMod:
				add(app.Args[1])
			}
			return true
		})
	}
	return out
}

// divisorGuards returns one (distinct d 0) assert per non-literal
// divisor occurring in the terms.
func divisorGuards(tb *ast.Table, terms ...ast.Term) []ast.Term {
	var out []ast.Term
	for _, d := range variableDivisors(terms...) {
		out = append(out, tb.MustApp(ast.OpDistinct, d, zeroOf(tb, d.Sort())))
	}
	return out
}

// withDivisorGuards conjoins eq with nonzero guards for inv's divisors,
// keeping a single assert.
func withDivisorGuards(tb *ast.Table, eq ast.Term, inv ast.Term) ast.Term {
	guards := divisorGuards(tb, inv)
	if len(guards) == 0 {
		return eq
	}
	return tb.And(append([]ast.Term{eq}, guards...)...)
}

func zeroOf(tb *ast.Table, s ast.Sort) ast.Term {
	if s == ast.SortReal {
		return tb.Real(0, 1)
	}
	return tb.Int(0)
}

// renameApart renames φ2's variables that clash with names already in
// use, rewriting its asserts and witness accordingly.
func (f *fuser) renameApart(phi *Seed) ([]*smtlib.DeclareFun, []ast.Term, eval.Model) {
	renames := map[string]string{}
	var decls []*smtlib.DeclareFun
	for _, d := range phi.Script.Declarations() {
		name := d.Name
		for f.used[name] {
			name = name + "_2"
		}
		if name != d.Name {
			renames[d.Name] = name
		}
		f.used[name] = true
		decls = append(decls, &smtlib.DeclareFun{Name: name, Sort: d.Sort})
	}
	asserts := phi.Script.Asserts()
	if len(renames) > 0 {
		for i, a := range asserts {
			asserts[i] = f.tb.RenameFreeVars(a, renames)
		}
	}
	var witness eval.Model
	if phi.Witness != nil {
		witness = eval.Model{}
		for k, v := range phi.Witness {
			if nn, ok := renames[k]; ok {
				witness[nn] = v
			} else {
				witness[k] = v
			}
		}
	}
	return decls, asserts, witness
}

func (f *fuser) freshZ() string {
	for {
		f.zCounter++
		name := fmt.Sprintf("z_fuse_%d", f.zCounter)
		if !f.used[name] {
			f.used[name] = true
			return name
		}
	}
}

// instance is an instantiated fusion-function row applied to concrete
// x, y, z variables.
type instance struct {
	apply   ast.Term // f(x, y)
	invertX ast.Term // rx(y, z)
	invertY ast.Term // ry(x, z)
}

// pickInstance chooses a fusion-function row for the sort, instantiated
// with random coefficients. When a witness is required, rows whose
// inversions are not exact under the witness are rejected (checked
// generically by evaluation).
func (f *fuser) pickInstance(sort ast.Sort, x, y, z *ast.Var, witness eval.Model, needExact bool) (instance, string, bool) {
	var rows []FusionFn
	for _, fn := range f.opts.Table {
		if fn.Sort == sort {
			rows = append(rows, fn)
		}
	}
	if len(rows) == 0 {
		return instance{}, "", false
	}
	order := f.rng.Perm(len(rows))
	for _, i := range order {
		fn := rows[i]
		inst, desc := fn.Make(f.tb, f.rng, x, y, z)
		if !needExact {
			return inst, desc, true
		}
		if f.exactUnder(inst, x, y, z, witness) {
			return inst, desc, true
		}
	}
	return instance{}, "", false
}

// exactUnder checks, by evaluation, that z := f(x,y) makes both
// inversions recover x and y under the witness, and that every
// non-literal divisor inside the instance evaluates to a nonzero value
// (so the emitted divisor guards hold under the witness and the
// inversion never silently relies on the fixed x/0 = 0 semantics).
func (f *fuser) exactUnder(inst instance, x, y, z *ast.Var, witness eval.Model) bool {
	zv, err := eval.Term(inst.apply, witness)
	if err != nil {
		return false
	}
	probe := witness.Clone()
	probe[z.Name] = zv
	rx, err := eval.Term(inst.invertX, probe)
	if err != nil || !rx.Equal(probe[x.Name]) {
		return false
	}
	ry, err := eval.Term(inst.invertY, probe)
	if err != nil || !ry.Equal(probe[y.Name]) {
		return false
	}
	for _, d := range variableDivisors(inst.apply, inst.invertX, inst.invertY) {
		dv, err := eval.Term(d, probe)
		if err != nil || dv.Equal(eval.DefaultValue(d.Sort())) {
			return false
		}
	}
	return true
}

// substRandom replaces each free occurrence of name in each assert with
// probability ReplaceProb. When the assert list contains division or
// modulo, all occurrences are replaced together on a single coin flip:
// a seed's divisor and its syntactic nonzero guard (a sibling atom or
// an ite condition) must rewrite consistently, or the fused formula
// would carry a division whose guard no longer matches it.
func (f *fuser) substRandom(asserts []ast.Term, name string, repl ast.Term) []ast.Term {
	pick := func(int) bool { return f.rng.Float64() < f.opts.ReplaceProb }
	if divisionInvolved(asserts, name) {
		all := f.rng.Float64() < f.opts.ReplaceProb
		pick = func(int) bool { return all }
	}
	out := make([]ast.Term, len(asserts))
	for i, a := range asserts {
		res, _, err := f.tb.SubstituteOccurrences(a, name, repl, pick)
		if err != nil {
			out[i] = a
			continue
		}
		out[i] = res
	}
	return out
}

// divisionInvolved reports whether name occurs free in a list that also
// contains a division or modulo operator.
func divisionInvolved(asserts []ast.Term, name string) bool {
	hasDiv, occurs := false, false
	for _, a := range asserts {
		if !hasDiv {
			ast.Walk(a, func(t ast.Term) bool {
				if app, ok := t.(*ast.App); ok {
					switch app.Op {
					case ast.OpIntDiv, ast.OpRealDiv, ast.OpMod:
						hasDiv = true
						return false
					}
				}
				return true
			})
		}
		if !occurs && ast.CountFreeOccurrences(a, name) > 0 {
			occurs = true
		}
		if hasDiv && occurs {
			return true
		}
	}
	return false
}

func conj(tb *ast.Table, ts []ast.Term) ast.Term {
	if len(ts) == 0 {
		return ast.True
	}
	return tb.And(ts...)
}

func fusableSort(s ast.Sort) bool {
	return s == ast.SortInt || s == ast.SortReal || s == ast.SortString
}
