package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func ledger(allocs map[string]int64) report {
	r := report{Benchmarks: map[string]benchStats{}}
	for name, n := range allocs {
		r.Benchmarks[name] = benchStats{AllocsPerOp: n}
	}
	return r
}

func TestGateFailsOnAllocGrowthAboveTolerance(t *testing.T) {
	base := ledger(map[string]int64{"ArithTheory": 100, "ParsePrint": 200})
	cur := ledger(map[string]int64{"ArithTheory": 111, "ParsePrint": 200})
	failures := gate(cur, base)
	if len(failures) != 1 || !strings.HasPrefix(failures[0], "ArithTheory: 111 allocs/op vs baseline 100") {
		t.Fatalf("failures = %q, want one ArithTheory regression", failures)
	}
}

func TestGatePassesWithinTolerance(t *testing.T) {
	base := ledger(map[string]int64{"ArithTheory": 100, "ParsePrint": 200, "FusionOnly": 0})
	cur := ledger(map[string]int64{"ArithTheory": 110, "ParsePrint": 150, "FusionOnly": 0})
	if failures := gate(cur, base); len(failures) != 0 {
		t.Fatalf("failures = %q, want none at exactly +10%% and below", failures)
	}
}

func TestGateSkipsBenchmarkMissingFromBaseline(t *testing.T) {
	base := ledger(map[string]int64{"ArithTheory": 100})
	cur := ledger(map[string]int64{"ArithTheory": 100, "DPLLTStage": 5000})
	if failures := gate(cur, base); len(failures) != 0 {
		t.Fatalf("failures = %q, want the new benchmark skipped", failures)
	}
}

// TestLatestBaselineLoadsOldFormat copies the committed BENCH_9.json
// and BENCH_10.json, which still carry ns/op, ops/s, calibration and
// overhead fields: the loader must pick 10 over 9 by number (a string
// comparison picks 9) and read its allocs/op.
func TestLatestBaselineLoadsOldFormat(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"BENCH_9.json", "BENCH_10.json"} {
		buf, err := os.ReadFile(filepath.Join("..", "..", name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), buf, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	rep, name, err := latestBaseline(dir)
	if err != nil {
		t.Fatal(err)
	}
	if name != "BENCH_10.json" {
		t.Fatalf("latest baseline = %s, want BENCH_10.json", name)
	}
	if got := rep.Benchmarks["ArithTheory"].AllocsPerOp; got != 660 {
		t.Errorf("ArithTheory allocs/op = %d, want 660", got)
	}
	if got := rep.Benchmarks["ThroughputSingleThreaded"].BytesPerOp; got != 30692 {
		t.Errorf("ThroughputSingleThreaded bytes/op = %d, want 30692", got)
	}
	if got := nextBenchName(dir); got != "BENCH_11.json" {
		t.Errorf("next name = %s, want BENCH_11.json", got)
	}
}
