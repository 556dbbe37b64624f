package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/bugdb"
	"repro/internal/harness"
	"repro/internal/smtlib"
	"repro/internal/solver"
)

// TestWriteReducedUsesCampaignRelease reduces a finding of a campaign
// on an older release. Trunk z3sim also carries cr-self-division, which
// crashes on this witness before the invalid model shows, so a reducer
// built from trunk's defects never reproduces the finding and writes it
// out unreduced; the campaign's own release shrinks it.
func TestWriteReducedUsesCampaignRelease(t *testing.T) {
	cc := harness.CampaignConfig{
		SUT:        "z3sim",
		Release:    "4.8.1",
		Logics:     []string{"QF_LRA", "QF_LIA", "QF_NRA", "LRA", "QF_S"},
		Iterations: 60,
		SeedPool:   8,
		Seed:       4,
		Threads:    2,
	}
	defects, err := cc.SUTDefects()
	if err != nil {
		t.Fatal(err)
	}
	if defects[solver.DefCrashSelfDivision] {
		t.Fatalf("z3sim 4.8.1 carries %s: the test no longer separates release from trunk", solver.DefCrashSelfDivision)
	}
	out, err := harness.Start(cc, harness.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var bug *harness.Bug
	for i, b := range out.Result.Bugs {
		if b.Defect == solver.DefIteLiftSwap {
			bug = &out.Result.Bugs[i]
		}
	}
	if bug == nil {
		t.Fatalf("campaign found no %s finding", solver.DefIteLiftSwap)
	}
	dir := t.TempDir()
	writeReduced(dir, *bug, cc)
	data, err := os.ReadFile(filepath.Join(dir, string(solver.DefIteLiftSwap)+".smt2"))
	if err != nil {
		t.Fatal(err)
	}
	got := strings.Count(string(data), "\n")
	witness := strings.Count(smtlib.Print(bug.Script), "\n")
	if got >= witness {
		t.Errorf("reduced witness has %d lines, the campaign's %d: not shrunk", got, witness)
	}
}

// TestBugLinesAlignDefectColumn renders summary rows of two bug types
// whose labels differ in length: every defect name must start in the
// same column.
func TestBugLinesAlignDefectColumn(t *testing.T) {
	bugs := []harness.Bug{
		{Defect: solver.DefStrReplaceEmptyPat, Kind: bugdb.Soundness, Logic: "QF_S"},
		{Defect: solver.DefModelStrLenTruncate, Kind: bugdb.InvalidModel, Logic: "QF_S"},
		{Defect: solver.DefModelStaleSimplex, Kind: bugdb.InvalidModel, Logic: "QF_LIA"},
	}
	w := bugKindWidth(bugs)
	col := -1
	for _, b := range bugs {
		line := bugLine(b, w)
		at := strings.Index(line, string(b.Defect))
		if at < 0 {
			t.Fatalf("row %q does not name %s", line, b.Defect)
		}
		if col >= 0 && at != col {
			t.Errorf("defect %s starts at column %d, the first row's at %d:\n%s", b.Defect, at, col, line)
		}
		col = at
	}
}
