package solver

import (
	"slices"

	"repro/internal/ast"
	"repro/internal/eval"
	"repro/internal/solver/arith"
	"repro/internal/solver/sat"
	"repro/internal/solver/strings"
)

func (s *Solver) solve(asserts []ast.Term) Outcome {
	s.hit(pSolveEntry)

	// Original variables for final model completion.
	origVars := map[string]ast.Sort{}
	for _, a := range asserts {
		for _, v := range ast.FreeVars(a) {
			origVars[v.Name] = v.VSort
		}
	}

	pre, defs, err := s.preprocessWithDefs(asserts)
	if err != nil {
		return Outcome{Result: ResUnknown, Reason: err.Error()}
	}

	// Trivial outcomes after preprocessing.
	allTrue := true
	for _, a := range pre {
		if bl, ok := a.(*ast.BoolLit); ok {
			if !bl.V {
				return Outcome{Result: ResUnsat}
			}
			continue
		}
		allTrue = false
	}
	if allTrue {
		model := s.assembleModel(eval.Model{}, nil, defs, origVars)
		return Outcome{Result: ResSat, Model: model}
	}

	ab, err := s.abstract(pre)
	if err != nil {
		return Outcome{Result: ResUnknown, Reason: err.Error()}
	}
	ab.sat.MaxConflicts = 200000
	ab.sat.Fuel = s.meter
	ab.sat.Telem = s.cfg.Telemetry

	// Per-round scratch: AddClause and the theories copy what they keep.
	var lits []ast.Term
	var litVars []int
	var blocking []sat.Lit
	sawUnknown := false
	unknownStreak := 0
	totalUnknowns := 0
	// The loop has no round bound of its own: every round blocks its
	// boolean model, so the models run out, and the fuel deadline cuts
	// it long before. A 150-round bound ended 38 of the 2,100 fused
	// reference solves of the generator corpus and 53 of the 8,400
	// tasks of the arith benchmark catalogue while whole assignments
	// were blocked; with explained conflicts it ended none.
	for {
		// The fuel deadline cuts the DPLL(T) loop even when the SAT core
		// finds its next model without spending (pure propagation).
		if s.meter.Exhausted() {
			return Outcome{Result: ResUnknown, Reason: "fuel exhausted"}
		}
		switch ab.sat.Solve() {
		case sat.Unsat:
			if sawUnknown {
				return Outcome{Result: ResUnknown, Reason: "incomplete theory reasoning"}
			}
			return Outcome{Result: ResUnsat}
		case sat.Unknown:
			return Outcome{Result: ResUnknown, Reason: "sat core budget exhausted"}
		}
		s.hit(pSolveSatCore)

		// Extract the theory literals implied by the boolean model,
		// with the SAT variable of each.
		lits, litVars = lits[:0], litVars[:0]
		for v := 1; v < len(ab.atomTerm); v++ {
			atom := ab.atomTerm[v]
			if atom == nil {
				continue // Tseitin auxiliary
			}
			if _, ok := atom.(*ast.Var); ok {
				continue
			}
			litVars = append(litVars, v)
			if ab.sat.Value(v) {
				lits = append(lits, atom)
			} else {
				lits = append(lits, ab.negation(v))
			}
		}

		st, thModel, core := s.theoryCheck(lits)
		switch st {
		case arith.Sat:
			boolModel := ab.boolModel()
			model := s.assembleModel(boolModel, thModel, defs, origVars)
			if s.certify(pre, model, boolModel, thModel) {
				return Outcome{Result: ResSat, Model: model}
			}
			s.hit(pSolveCertifyFail)
			sawUnknown = true
			unknownStreak++
			totalUnknowns++
		case arith.Unsat:
			// Theory-valid lemma: safe to block.
			unknownStreak = 0
		case arith.Unknown:
			sawUnknown = true
			unknownStreak++
			totalUnknowns++
		}
		// Persistent theory incompleteness: further boolean models are
		// unlikely to be decided either — cut the tail latency. Both
		// bounds still bind with explained conflicts. Over the 2,100
		// fused reference solves of the generator corpus (7 arithmetic
		// logics × 300), 8 unknown rounds in a row end 105 solves and
		// 20 unknown rounds in all end 18 more; over the 8,400 tasks of
		// the arith benchmark catalogue they end 201 and 5.
		if unknownStreak >= 8 || totalUnknowns >= 20 {
			return Outcome{Result: ResUnknown, Reason: "persistent theory incompleteness"}
		}
		s.hit(pSolveBlocked)
		blocking = blocking[:0]
		if st == arith.Unsat && len(core) > 0 {
			// An explained conflict: block only the core's literals.
			for _, i := range core {
				blocking = append(blocking, ab.blockLit(litVars[i]))
			}
		} else {
			for v := 1; v < len(ab.atomTerm); v++ {
				if ab.atomTerm[v] != nil {
					blocking = append(blocking, ab.blockLit(v))
				}
			}
		}
		if len(blocking) == 0 {
			// Purely propositional: the SAT model stands.
			boolModel := ab.boolModel()
			model := s.assembleModel(boolModel, thModel, defs, origVars)
			if s.certify(pre, model, boolModel, thModel) {
				return Outcome{Result: ResSat, Model: model}
			}
			return Outcome{Result: ResUnknown, Reason: "certification failed"}
		}
		if !ab.sat.AddClause(blocking...) {
			if sawUnknown {
				return Outcome{Result: ResUnknown, Reason: "incomplete theory reasoning"}
			}
			return Outcome{Result: ResUnsat}
		}
	}
}

// defEntry records one definitional inlining x := rhs, in creation
// order.
type defEntry struct {
	name string
	rhs  ast.Term
}

// preprocessWithDefs is preprocess plus the recorded definitional
// substitutions needed to extend models back to eliminated variables.
func (s *Solver) preprocessWithDefs(asserts []ast.Term) ([]ast.Term, []defEntry, error) {
	s.defLog = nil
	pre, err := s.preprocess(asserts)
	return pre, s.defLog, err
}

// theoryCheck decides a conjunction of theory literals. With Unsat it
// may return a core: the indices of a subset of lits that is
// unsatisfiable on its own. A nil core stands for all of lits.
func (s *Solver) theoryCheck(lits []ast.Term) (arith.Status, eval.Model, []int) {
	// Synthetic internal fault for the harness's containment tests: a
	// panic that is NOT a *CrashError, i.e. our own solver failing
	// rather than a simulated SUT crash.
	if s.cfg.Has(DefFaultSyntheticPanic) && s.defect(DefFaultSyntheticPanic) {
		panic("theory dispatch: injected synthetic internal fault")
	}
	if len(lits) == 0 {
		return arith.Sat, eval.Model{}, nil
	}
	for _, l := range lits {
		// Before the first arith call of the solve there is no memo,
		// and a string-only solve never makes one.
		if s.memo != nil && s.memo.get(l).str || s.memo == nil && hasStringSort(l) {
			st, m := s.stringTheory(lits)
			return st, m, nil
		}
	}
	return s.arithTheory(lits)
}

func (s *Solver) stringTheory(lits []ast.Term) (arith.Status, eval.Model) {
	s.hit(pTheoryStrings)
	if s.cfg.Has(DefPerfRegexBlowup) && maxRegexDepth(lits) > 3 && s.defect(DefPerfRegexBlowup) {
		s.hit(pTheoryPerfRegex)
		s.meter.Drain() // simulated derivative blowup → deterministic timeout
		return arith.Unknown, nil
	}
	s.hit(pTheoryStringsLen)
	s.hit(pTheoryStringsSearch)
	prob := &strings.Problem{
		Lits:   lits,
		Defect: func(id string) bool { return s.defect(Defect(id)) },
		Fuel:   s.meter,
		Telem:  s.cfg.Telemetry,
		Warm:   &s.warm.str,
	}
	st, m := strings.Check(prob)
	switch st {
	case arith.Sat:
		s.hit(pStrSat)
	case arith.Unsat:
		s.hit(pStrUnsat)
	default:
		s.hit(pStrUnknown)
	}
	return st, m
}

func maxRegexDepth(lits []ast.Term) int {
	max := 0
	for _, l := range lits {
		ast.Walk(l, func(t ast.Term) bool {
			if t.Sort() == ast.SortRegLan {
				if d := ast.Depth(t); d > max {
					max = d
				}
				return false
			}
			return true
		})
	}
	return max
}

// arithTheory decides a conjunction of arithmetic literals; with an
// explained Unsat it returns the core as indices into lits.
func (s *Solver) arithTheory(lits []ast.Term) (arith.Status, eval.Model, []int) {
	if s.memo == nil {
		s.memo = newLitMemo(len(lits))
	}
	m := s.memo
	abs := m.abs
	abs.Reset()
	var atoms []arith.Atom
	unconverted := 0
	m.lits, m.atomLits = m.lits[:0], m.atomLits[:0]
	for i, l := range lits {
		f := m.get(l)
		m.lits = append(m.lits, f)
		atom, rel, ok := f.atom(abs)
		if !ok {
			unconverted++
			continue
		}
		atoms = append(atoms, arith.Atom{Expr: atom, Rel: rel})
		m.atomLits = append(m.atomLits, i)
	}
	m.collectVars()
	intVars := map[string]bool{}
	for _, sl := range m.roundVars {
		if v := m.vars[sl]; v.VSort == ast.SortInt {
			intVars[v.Name] = true
		}
	}
	for v := range abs.Terms() {
		if srt, ok := abs.Sort(v); ok && srt == ast.SortInt {
			intVars[v] = true
		}
	}

	nonlinear := abs.Len() > 0
	if nonlinear {
		s.hit(pTheoryArithNonlin)
	} else {
		s.hit(pTheoryArithLinear)
	}

	if s.cfg.Has(DefPerfBnBBlowup) && nonlinear && len(intVars) >= 4 && s.defect(DefPerfBnBBlowup) {
		s.hit(pTheoryPerfBnB)
		s.meter.Drain() // simulated branch-and-bound blowup → timeout
		return arith.Unknown, nil, nil
	}

	// Injected hang defect: simplex cycling on wide linear integer
	// problems (the shape fusion produces by joining both ancestors'
	// variable sets). Draining the meter gives the signature of a
	// cycling pivot loop — a deterministic timeout — without the cost.
	if s.cfg.Has(DefHangSimplexCycle) && !nonlinear && len(intVars) >= 4 && s.defect(DefHangSimplexCycle) {
		s.meter.Drain()
		return arith.Unknown, nil, nil
	}

	// Defect: bogus bound-conflict detection reports e ≤ c ∧ e ≥ c as
	// inconsistent. It names no core, so the round blocks the whole
	// assignment.
	if s.cfg.Has(DefBoundConflictEq) && s.boundConflictDefect(atoms) {
		return arith.Unsat, nil, nil
	}

	st, model, core := arith.CheckCore(&arith.Problem{
		Atoms:      atoms,
		IntVars:    intVars,
		NodeBudget: arithNodeBudget,
		Fuel:       s.meter,
		Telem:      s.cfg.Telemetry,
	})
	switch st {
	case arith.Unsat:
		// The abstraction treats nonlinear terms as free variables, so
		// its unsat is an over-approximation proof: valid either way,
		// and so is its core, mapped back to the literals.
		s.hit(pArithUnsat)
		for j, a := range core {
			core[j] = m.atomLits[a]
		}
		return arith.Unsat, nil, core
	case arith.Unknown:
		s.hit(pArithUnknown)
		return arith.Unknown, nil, nil
	}

	// Candidate model: check it against the real (nonlinear) semantics.
	s.hit(pTheoryArithSample)
	m.load(model)
	if m.holds() {
		s.hit(pArithSat)
		return arith.Sat, m.model(), nil
	}
	if unconverted > 0 {
		s.hit(pArithForeign)
	}
	if !nonlinear && unconverted == 0 {
		// A purely linear model that fails evaluation indicates an
		// internal inconsistency; report unknown rather than guess.
		return arith.Unknown, nil, nil
	}
	// Nonlinear refinement: try interval refutation, then a small
	// deterministic sample grid for unvalued variables.
	litInts := map[string]bool{}
	for _, sl := range m.roundVars {
		if v := m.vars[sl]; v.VSort == ast.SortInt {
			litInts[v.Name] = true
		}
	}
	// The refuter names no core: its unsat blocks the whole
	// assignment.
	if arith.RefuteIntervals(lits, litInts, 8, s.meter, s.cfg.Telemetry) {
		s.hit(pTheoryArithRefute)
		return arith.Unsat, nil, nil
	}
	if em, ok := m.sampleGrid(); ok {
		s.hit(pArithGrid)
		s.hit(pArithSat)
		return arith.Sat, em, nil
	}
	s.hit(pArithUnknown)
	return arith.Unknown, nil, nil
}

func (s *Solver) boundConflictDefect(atoms []arith.Atom) bool {
	// Only a ≤ atom next to a ≥ atom can fire the site: skip the
	// expression keys when one side is missing.
	var le, ge bool
	for _, a := range atoms {
		le = le || a.Rel == arith.RelLe
		ge = ge || a.Rel == arith.RelGe
	}
	if !le || !ge {
		return false
	}
	seen := map[string]arith.Rel{}
	for _, a := range atoms {
		if a.Rel != arith.RelLe && a.Rel != arith.RelGe {
			continue
		}
		k := a.Expr.String()
		if prev, ok := seen[k]; ok && prev != a.Rel {
			// e ≤ 0 together with e ≥ 0: satisfiable with e = 0, but the
			// defective conflict check calls it inconsistent.
			return true
		}
		seen[k] = a.Rel
	}
	return false
}

func sortStrings(ss []string) { slices.Sort(ss) }

// assembleModel merges the boolean and theory models, replays the
// definitional substitutions (latest first) to recover eliminated
// variables, and default-completes every original variable.
func (s *Solver) assembleModel(boolModel, thModel eval.Model, defs []defEntry, origVars map[string]ast.Sort) eval.Model {
	model := eval.Model{}
	for k, v := range thModel {
		model[k] = v
	}
	for k, v := range boolModel {
		model[k] = v
	}
	for i := len(defs) - 1; i >= 0; i-- {
		d := defs[i]
		if _, have := model[d.name]; have {
			continue
		}
		// Default-complete the rhs's variables before evaluating.
		for _, v := range ast.FreeVars(d.rhs) {
			if _, ok := model[v.Name]; !ok {
				model[v.Name] = eval.DefaultValue(v.VSort)
			}
		}
		if val, err := eval.Term(d.rhs, model); err == nil {
			model[d.name] = val
		}
	}
	for name, srt := range origVars {
		if _, ok := model[name]; !ok {
			model[name] = eval.DefaultValue(srt)
		}
	}
	return model
}

// certify checks the assembled model against the preprocessed asserts.
// Certification runs after the rewriter, so rewriter defects — like the
// real bugs the paper found — are not caught here by design.
func (s *Solver) certify(pre []ast.Term, model eval.Model, boolModel, thModel eval.Model) bool {
	s.hit(pSolveCertify)
	full := model.Clone()
	for k, v := range thModel {
		full[k] = v
	}
	for k, v := range boolModel {
		full[k] = v
	}
	for _, a := range pre {
		// Complete any residual variables (Tseitin-free aux like lifted
		// ite variables are in thModel; anything else defaults).
		for _, v := range ast.FreeVars(a) {
			if _, ok := full[v.Name]; !ok {
				full[v.Name] = eval.DefaultValue(v.VSort)
			}
		}
		ok, err := eval.Bool(a, full)
		if err != nil || !ok {
			return false
		}
	}
	return true
}
