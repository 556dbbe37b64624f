package harness

import (
	"testing"

	"repro/internal/bugdb"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/solver"
)

func defectList(r *Result) []solver.Defect {
	var out []solver.Defect
	for _, b := range r.Bugs {
		out = append(out, b.Defect)
	}
	return out
}

// TestModelValidationOracleFindsInjected injects the model-corruption
// defect family: sites that run after the solver has certified its
// model, so the verdict is correct, the internal certificate is
// correct, and only the harness-side model-validation oracle can see
// the damage. The same campaign with the oracle disabled must find
// nothing — demonstrating these defects are invisible to every
// verdict-based check.
func TestModelValidationOracleFindsInjected(t *testing.T) {
	injected := []solver.Defect{
		solver.DefModelStaleSimplex,
		solver.DefModelStrLenTruncate,
	}
	base := CampaignConfig{
		SUT:        "cvc4sim",
		Release:    "1.5",
		Logics:     []string{"QF_LIA", "QF_S"},
		Iterations: shortIters(60),
		SeedPool:   8,
		Seed:       19,
		Threads:    2,
	}
	for _, d := range injected {
		base.InjectDefects = append(base.InjectDefects, string(d))
	}
	res, err := runCampaign(base)
	if err != nil {
		t.Fatal(err)
	}
	if res.ReferenceDisagreements != 0 {
		t.Fatalf("reference disagreements: %d", res.ReferenceDisagreements)
	}
	for _, d := range injected {
		b, ok := res.BugByDefect(d)
		if !ok {
			t.Errorf("model-validation oracle missed injected %s (found %v)", d, defectList(res))
			continue
		}
		if b.Kind != bugdb.InvalidModel {
			t.Errorf("%s classified as %s, want %s", d, b.Kind, bugdb.InvalidModel)
		}
		if b.Observed != solver.ResSat || b.Oracle != core.StatusSat {
			t.Errorf("%s: invalid-model finding with observed=%v oracle=%v, want agreeing sat", d, b.Observed, b.Oracle)
		}
	}

	// The control arm: identical campaign, oracle off. The md sites
	// still fire on every sat model, but nothing may be reported.
	off := base
	off.DisableModelCheck = true
	ctl, err := runCampaign(off)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range injected {
		if _, ok := ctl.BugByDefect(d); ok {
			t.Errorf("%s found without the model-validation oracle — it is not a model-only defect", d)
		}
	}
	for _, b := range ctl.Bugs {
		if b.Kind == bugdb.InvalidModel {
			t.Errorf("invalid-model finding %s with the oracle disabled", b.Defect)
		}
	}
}

// TestReferenceModelValidationClean is the negative oracle: every sat
// model the clean reference solver produces over the full generator
// corpus must validate against its script, and a campaign against a
// defect-free release/logic slice must yield zero invalid-model
// findings. A failure here means either the reference solver's model
// construction or the evaluator disagrees with itself — our bug, not
// a finding.
func TestReferenceModelValidationClean(t *testing.T) {
	ref := solver.NewReference()
	perLogic := 12
	if testing.Short() {
		perLogic = 4
	}
	validated := 0
	for _, logic := range gen.AllLogics {
		for i := 0; i < perLogic; i++ {
			g, err := gen.New(logic, int64(500+i))
			if err != nil {
				t.Fatal(err)
			}
			for _, status := range []core.Status{core.StatusSat, core.StatusUnsat} {
				s := g.Generate(status)
				run := RunSolver(ref, s.Script)
				if run.InternalFault {
					t.Fatalf("%s seed %d: internal fault: %s", logic, i, run.FaultMsg)
				}
				if run.Result != solver.ResSat {
					continue
				}
				if ok, reason := ValidateModel(s.Script, run.Model); !ok {
					t.Errorf("%s seed %d: reference model invalid: %s\n%s",
						logic, i, reason, s.Script.Text())
				}
				validated++
			}
		}
	}
	if validated == 0 {
		t.Fatal("no sat model was validated across the corpus")
	}

	// Through the campaign loop too: armed oracle, defect-free slice.
	res, err := runCampaign(CampaignConfig{
		SUT:        "cvc4sim",
		Release:    "1.5",
		Logics:     []string{"LRA"},
		Iterations: shortIters(60),
		SeedPool:   8,
		Seed:       23,
		Threads:    2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.ReferenceDisagreements != 0 {
		t.Fatalf("reference disagreements with model oracle armed: %d", res.ReferenceDisagreements)
	}
	for _, b := range res.Bugs {
		if b.Kind == bugdb.InvalidModel {
			t.Errorf("invalid-model finding %s on a defect-free slice", b.Defect)
		}
	}
}

// TestMutationCampaignFindsGuardCollapse: rw-le-guard-collapse drops a
// distinct guard sitting next to a non-strict bound — a conjunction
// shape that plain fusion never builds but the mutation engine's
// lt-guard/gt-guard equivalences do (x² < 0 becomes x² ≤ 0 ∧ x² ≠ 0,
// and collapsing the guard flips the verdict to sat). The mutation
// campaign must reproduce this catalogued defect; the fusion campaign
// on the same coordinates must miss it.
func TestMutationCampaignFindsGuardCollapse(t *testing.T) {
	base := CampaignConfig{
		SUT:        "z3sim",
		Logics:     []string{"QF_NRA"},
		Iterations: shortIters(150),
		SeedPool:   8,
		Seed:       31,
		Threads:    2,
		Mode:       ModeMutate,
	}
	res, err := runCampaign(base)
	if err != nil {
		t.Fatal(err)
	}
	if res.ReferenceDisagreements != 0 {
		t.Fatalf("mutation campaign reference disagreements: %d", res.ReferenceDisagreements)
	}
	b, ok := res.BugByDefect(solver.DefLeGuardCollapse)
	if !ok {
		t.Fatalf("mutation campaign missed %s (found %v, tests=%d)",
			solver.DefLeGuardCollapse, defectList(res), res.Tests)
	}
	if b.Kind != bugdb.Soundness {
		t.Errorf("guard collapse classified as %s, want %s", b.Kind, bugdb.Soundness)
	}
	if len(b.Rules) == 0 {
		t.Error("mutation finding carries no applied rules")
	}

	fusion := base
	fusion.Mode = ModeFusion
	ctl, err := runCampaign(fusion)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := ctl.BugByDefect(solver.DefLeGuardCollapse); ok {
		t.Errorf("fusion campaign unexpectedly built the guard-collapse shape")
	}
}
