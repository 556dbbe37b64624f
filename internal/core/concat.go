package core

import (
	"fmt"
	"math/rand"

	"repro/internal/analysis"
	"repro/internal/ast"
	"repro/internal/eval"
	"repro/internal/smtlib"
)

// Concat implements the RQ4 baseline ConcatFuzz: step 1 of Semantic
// Fusion only. Two satisfiable formulas are conjoined; two
// unsatisfiable formulas are disjoined. No fusion variables, no
// inversion substitution. The result's status is known by the same
// argument as the full method (a conjunction of sat formulas over
// disjoint variables is sat; a disjunction of unsat formulas is unsat).
// The concatenation is built in tb, as Fuse's fusion is.
func Concat(tb *ast.Table, phi1, phi2 *Seed, rng *rand.Rand) (*Fused, error) {
	if phi1.Status != phi2.Status {
		// Mixed concatenation: disjunction is sat, conjunction unsat.
		if phi1.Status == StatusUnsat {
			phi1, phi2 = phi2, phi1
		}
		if rng.Intn(2) == 0 {
			return concatWith(tb, phi1, phi2, ModeMixedSatDisj)
		}
		return concatWith(tb, phi1, phi2, ModeMixedUnsatConj)
	}
	if phi1.Status == StatusSat {
		return concatWith(tb, phi1, phi2, ModeSatConj)
	}
	return concatWith(tb, phi1, phi2, ModeUnsatDisj)
}

func concatWith(tb *ast.Table, phi1, phi2 *Seed, mode Mode) (*Fused, error) {
	f := &fuser{tb: tb, mode: mode, used: map[string]bool{}}
	decls1 := phi1.Script.Declarations()
	for _, d := range decls1 {
		f.used[d.Name] = true
	}
	decls2, asserts2, witness2 := f.renameApart(phi2)
	asserts1 := append([]ast.Term{}, phi1.Script.Asserts()...)

	decls := append(append([]*smtlib.DeclareFun{}, decls1...), decls2...)
	var asserts []ast.Term
	var oracle Status
	switch mode {
	case ModeSatConj:
		asserts = append(append([]ast.Term{}, asserts1...), asserts2...)
		oracle = StatusSat
	case ModeUnsatDisj:
		asserts = []ast.Term{tb.Or(conj(tb, asserts1), conj(tb, asserts2))}
		oracle = StatusUnsat
	case ModeMixedSatDisj:
		asserts = []ast.Term{tb.Or(conj(tb, asserts1), conj(tb, asserts2))}
		oracle = StatusSat
	case ModeMixedUnsatConj:
		asserts = append(append([]ast.Term{}, asserts1...), asserts2...)
		oracle = StatusUnsat
	}

	script := smtlib.NewScript("", decls, asserts)
	script.Commands = append([]smtlib.Command{&smtlib.SetLogic{Logic: analysis.InferLogic(script)}}, script.Commands...)

	// Same verification gate as full fusion: concatenation must still
	// produce a well-sorted script over disjoint ancestor variables.
	meta := &analysis.FusionMeta{
		Mode:      mode.String(),
		Seed1Vars: declNames(decls1),
		Seed2Vars: declNames(decls2),
	}
	if err := analysis.Gate(script, meta); err != nil {
		return nil, fmt.Errorf("core: concatenated script failed static verification: %w", err)
	}

	out := &Fused{Script: script, Oracle: oracle, Mode: mode}
	if oracle == StatusSat && phi1.Witness != nil {
		w := eval.Model{}
		for k, v := range phi1.Witness {
			w[k] = v
		}
		if mode == ModeSatConj && witness2 != nil {
			for k, v := range witness2 {
				w[k] = v
			}
		}
		out.Witness = w
	}
	return out, nil
}
