package harness

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/bugdb"
	"repro/internal/solver"
)

// reachSweep is the defect-reach sweep: both trunk SUTs under fusion,
// mutation and wild mutation, at two seeds over every logic, with the
// wild campaigns judged by both consensus policies and the other SUT as
// a hermetic voter. Two one-logic campaigns follow for the defects the
// sweep misses: z3sim fusion on LRA at seed 4 reaches
// rw-ge-zero-strengthen at iteration 55, and the cvc4sim QF_NRA
// mutation campaign files th-bound-conflict-eq.
func reachSweep() []CampaignConfig {
	var ccs []CampaignConfig
	for _, sut := range bugdb.SUTs {
		other := bugdb.CVC4Sim
		if sut == bugdb.CVC4Sim {
			other = bugdb.Z3Sim
		}
		for _, mode := range []string{ModeFusion, ModeMutate, ModeWild} {
			for seed := int64(1); seed <= 2; seed++ {
				cc := CampaignConfig{SUT: string(sut), Mode: mode, Iterations: 50, Seed: seed}
				if mode == ModeWild {
					cc.Oracle = OracleAuto
					cc.Backends = []BackendConfig{{Sim: &SimBackendConfig{SUT: string(other)}}}
				}
				ccs = append(ccs, cc)
			}
		}
	}
	return append(ccs,
		CampaignConfig{SUT: "z3sim", Logics: []string{"LRA"}, Iterations: 56, Seed: 4},
		CampaignConfig{SUT: "cvc4sim", Mode: ModeMutate, Logics: []string{"QF_NRA"}, Iterations: 200, SeedPool: 20, Seed: 2},
	)
}

// reach is one catalogue defect's row: the tasks whose SUT solves (the
// test and, on a wild task, its metamorphic variant) fired the defect,
// per campaign mode, and whether any campaign filed it as a bug.
type reach struct {
	fired map[string]int
	filed bool
}

// TestDefectReach pins which catalogue defects campaigns reach:
// testdata/golden/reach.txt holds, for every bugdb.Catalog row, the
// number of sweep tasks per mode that fired it and whether it was
// filed. A defect that fires nowhere in the sweep fails the test, and
// so does any oracle mismatch with no defect fired
// (ReferenceDisagreements), which would be a bug of the reference
// solver.
func TestDefectReach(t *testing.T) {
	if testing.Short() {
		t.Skip("defect-reach sweep skipped under -short")
	}
	rows := map[solver.Defect]*reach{}
	for _, e := range bugdb.Catalog {
		rows[e.ID] = &reach{fired: map[string]int{}}
	}
	for _, cc := range reachSweep() {
		out, err := Start(cc, RunOptions{Threads: 2})
		if err != nil {
			t.Fatal(err)
		}
		res := out.Result
		if res.ReferenceDisagreements != 0 {
			t.Errorf("%s %s %v seed %d: %d reference disagreements", cc.SUT, cc.Mode, cc.Logics, cc.Seed, res.ReferenceDisagreements)
		}
		mode := cc.Mode
		if mode == "" {
			mode = ModeFusion
		}
		for _, rec := range out.Envelope.Records {
			if rec.Facts == nil {
				continue
			}
			fired := rec.Facts.Fired
			if v := rec.Facts.Variant; v != nil {
				fired = append(slices.Clip(fired), v.Fired...)
			}
			for _, d := range uniqueDefects(fired) {
				if r, ok := rows[d]; ok {
					r.fired[mode]++
				}
			}
		}
		for _, b := range res.Bugs {
			if r, ok := rows[b.Defect]; ok {
				r.filed = true
			}
		}
	}

	var b strings.Builder
	b.WriteString("# sut defect fusion mutate wild filed\n")
	for _, e := range bugdb.Catalog {
		r := rows[e.ID]
		if r.fired[ModeFusion]+r.fired[ModeMutate]+r.fired[ModeWild] == 0 {
			t.Errorf("%s %s fires nowhere in the sweep", e.SUT, e.ID)
		}
		fmt.Fprintf(&b, "%s %s fusion=%d mutate=%d wild=%d filed=%t\n",
			e.SUT, e.ID, r.fired[ModeFusion], r.fired[ModeMutate], r.fired[ModeWild], r.filed)
	}
	got := b.String()
	want, err := os.ReadFile(filepath.Join("testdata", "golden", "reach.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		sameBytes(t, "reach.txt", []byte(got), want)
		t.Logf("recorded reach:\n%s", got)
	}
}

// uniqueDefects returns ds without repeats, in first-seen order.
func uniqueDefects(ds []solver.Defect) []solver.Defect {
	var out []solver.Defect
	for _, d := range ds {
		if !slices.Contains(out, d) {
			out = append(out, d)
		}
	}
	return out
}
