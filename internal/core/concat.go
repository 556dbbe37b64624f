package core

import (
	"maps"
	"math/rand"

	"repro/internal/ast"
)

// Concat implements the RQ4 baseline ConcatFuzz: step 1 of Semantic
// Fusion only. Two satisfiable formulas are conjoined; two
// unsatisfiable formulas are disjoined; mixed ancestors are disjoined
// (sat) or conjoined (unsat) on one RNG draw. No fusion variables, no
// inversion substitution. The result's status is known by the same
// argument as the full method (a conjunction of sat formulas over
// disjoint variables is sat; a disjunction of unsat formulas is unsat).
// The concatenation is built in tb, as Fuse's fusion is. A sat result
// carries the sat ancestor's witness, joined with the second
// ancestor's (renamed) one when both are sat.
func Concat(tb *ast.Table, phi1, phi2 *Seed, rng *rand.Rand) (*Fused, error) {
	f := &fuser{tb: tb, rng: rng}
	phi1, phi2 = f.pickMode(phi1, phi2)
	witness2 := f.concatenate(phi1, phi2)
	out, err := f.finish("concatenated", nil, nil, nil)
	if err != nil || out.Oracle != StatusSat || phi1.Witness == nil {
		return out, err
	}
	out.Witness = phi1.Witness.Clone()
	if f.mode == ModeSatConj {
		maps.Copy(out.Witness, witness2)
	}
	return out, nil
}
