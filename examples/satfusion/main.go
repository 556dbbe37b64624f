// SAT fusion walkthrough on the paper's Figure 2 formulas: φ1 and φ2
// (both satisfiable) are fused into the Figure 3 shape, which once
// triggered a CVC4 soundness bug. The cvc4sim solver under test carries
// the analogous defect class.
package main

import (
	"fmt"
	"math/rand"

	yinyang "repro"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/rat"
)

const phi1Src = `
(declare-fun x () Int)
(declare-fun w () Bool)
(assert (= x (- 1)))
(assert (= w (= x (- 1))))
(assert w)
`

const phi2Src = `
(declare-fun y () Int)
(declare-fun v () Bool)
(assert (= v (not (= y (- 1)))))
(assert (ite v false (= y (- 1))))
`

func main() {
	s1, err := yinyang.Parse(phi1Src)
	if err != nil {
		panic(err)
	}
	s2, err := yinyang.Parse(phi2Src)
	if err != nil {
		panic(err)
	}
	// Both formulas are satisfiable; their witnesses come from the
	// paper's discussion (x = −1, w = true; y = −1, v = false).
	phi1 := &core.Seed{Script: s1, Status: core.StatusSat,
		Witness: eval.Model{"x": eval.IntVal(rat.Int(-1)), "w": eval.BoolVal(true)}}
	phi2 := &core.Seed{Script: s2, Status: core.StatusSat,
		Witness: eval.Model{"y": eval.IntVal(rat.Int(-1)), "v": eval.BoolVal(false)}}

	// Multiplicative fusion like the paper's example: z = x·y with
	// inversions z div y and z div x.
	rng := rand.New(rand.NewSource(4))
	fused, err := yinyang.FuseWith(phi1, phi2, rng, core.Options{
		Table:       core.MultiplicativeTable,
		MaxPairs:    1,
		ReplaceProb: 0.6,
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("--- fused formula (oracle %v) ---\n", fused.Oracle)
	fmt.Print(yinyang.Print(fused.Script))

	ref := yinyang.NewReferenceSolver()
	fmt.Printf("reference: %v\n", yinyang.Solve(ref, fused.Script).Result)

	sut, _ := yinyang.NewSUT(yinyang.CVC4Sim, "trunk")
	res := yinyang.Solve(sut, fused.Script)
	fmt.Printf("cvc4sim:   %v", res.Result)
	if fmt.Sprint(res.Result) != fmt.Sprint(fused.Oracle) && !res.Crashed && fmt.Sprint(res.Result) != "unknown" {
		fmt.Printf("   <-- SOUNDNESS BUG (oracle is %v; defects fired: %v)", fused.Oracle, res.DefectsFired)
	}
	fmt.Println()
}
