package harness

import (
	"testing"
)

func TestStringChannelHunt(t *testing.T) {
	res, err := runCampaign(CampaignConfig{
		SUT:        "cvc4sim",
		Logics:     []string{"QF_S", "QF_SLIA", "StringFuzz"},
		Iterations: shortIters(300),
		SeedPool:   15,
		Seed:       31,
		Threads:    8,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("tests=%d bugs=%d dups=%d unknowns=%d refdis=%d", res.Tests, len(res.Bugs), res.Duplicates, res.Unknowns, res.ReferenceDisagreements)
	for _, b := range res.Bugs {
		t.Logf("  %s kind=%s logic=%s oracle=%v obs=%v", b.Defect, b.Kind, b.Logic, b.Oracle, b.Observed)
	}
}
