package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/bugdb"
	"repro/internal/gen"
	"repro/internal/harness"
)

func TestPercentileRule(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // reversed: percentile must sort
		}
		return xs
	}
	// 400 samples: the 97.5th is the 390th value, with exactly 10 beyond.
	if v, ok := percentile(seq(400), 97.5); !ok || v != 390 {
		t.Errorf("p97.5 of 1..400 = %v, %v; want 390, true", v, ok)
	}
	if _, ok := percentile(seq(399), 97.5); ok {
		t.Error("p97.5 of 399 samples has 9 beyond it and must not be reported")
	}
	if p, v, ok := tailPercentile(seq(1000)); !ok || p != 99 || v != 990 {
		t.Errorf("tail of 1000 samples = p%v %v %v; want p99 990 true", p, v, ok)
	}
	if p, _, ok := tailPercentile(seq(20)); !ok || p != 50 {
		t.Errorf("tail of 20 samples = p%v %v; want p50", p, ok)
	}
	if _, _, ok := tailPercentile(seq(10)); ok {
		t.Error("10 samples leave fewer than 10 beyond any percentile; nothing may be reported")
	}
	if m := median(seq(4)); m != 2.5 {
		t.Errorf("median of 1..4 = %v", m)
	}
}

func TestClassify(t *testing.T) {
	for _, c := range []struct {
		frames []string
		want   string
	}{
		// The innermost layer frame wins over its callers.
		{[]string{"repro/internal/solver/simplex.(*Solver).pivot", "repro/internal/solver/arith.(*checker).solve", "repro/internal/harness.runTask"}, "solver.simplex"},
		// Runtime and library frames are charged to the layer that called them.
		{[]string{"runtime.mallocgc", "math/big.nat.make", "repro/internal/solver/strings.(*search).dfs.func1"}, "solver.strings"},
		{[]string{"runtime.mapaccess2", "repro/internal/ast.(*Interner).Intern", "repro/internal/core.Fuse"}, "ast"},
		// Packages without a layer of their own pass on to their caller.
		{[]string{"repro/internal/fuel.(*Meter).Spend", "repro/internal/solver/sat.(*Solver).propagate"}, "solver.sat"},
		// Type arguments may contain slashes and dots.
		{[]string{"slices.SortFunc[go.shape.[]repro/internal/ast.Term]", "repro/internal/eval.Eval"}, "eval"},
		{[]string{"repro/internal/regex.Derive[...]"}, "regex"},
		// GC workers and everything else outside the layers.
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, gcLayer},
		{[]string{"syscall.Syscall", "os.(*File).Write", "main.run"}, otherLayer},
		{nil, otherLayer},
	} {
		if got := classify(c.frames); got != c.want {
			t.Errorf("classify(%q) = %q, want %q", c.frames, got, c.want)
		}
	}
}

// TestProfileShares profiles real solver work and checks that the
// decoded shares sum to 1 and charge the solver layers.
func TestProfileShares(t *testing.T) {
	prof := newCPUProfile()
	if err := prof.start(); err != nil {
		t.Fatal(err)
	}
	sut := bugdb.NewTrunkSolver(bugdb.Z3Sim, nil)
	deadline := now().Add(400 * time.Millisecond)
	for i := int64(0); now().Before(deadline); i++ {
		g, err := gen.New(gen.QFLIA, i)
		if err != nil {
			t.Fatal(err)
		}
		harness.RunSolver(sut, g.Unsat().Script)
	}
	if err := prof.stop(); err != nil {
		t.Fatal(err)
	}
	shares := prof.shares()
	var sum, solver float64
	for b, s := range shares {
		sum += s
		if strings.HasPrefix(b, "solver") {
			solver += s
		}
	}
	if math.Abs(sum-1) > 0.01 {
		t.Errorf("shares sum to %v: %v", sum, shares)
	}
	if solver == 0 {
		t.Errorf("no CPU charged to the solver layers: %v", shares)
	}
	if len(shares) != len(cpuLayers)+2 {
		t.Errorf("%d buckets, want %d", len(shares), len(cpuLayers)+2)
	}
}

func TestMetricNames(t *testing.T) {
	nameRe := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRe := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics; at most 16 and 128", len(endToEnd), len(perLayer))
	}
	seen := map[string]bool{}
	for _, d := range slices.Concat(endToEnd, perLayer) {
		if !nameRe.MatchString(d.Name) || !unitRe.MatchString(d.Unit) || (d.Better != "higher" && d.Better != "lower") {
			t.Errorf("bad metric definition %+v", d)
		}
		if seen[d.Name] {
			t.Errorf("metric %s defined twice", d.Name)
		}
		seen[d.Name] = true
	}
	for name := range telemetryCounts {
		if !seen[name] {
			t.Errorf("telemetry count %s is not a defined metric", name)
		}
	}
	for name := range telemetryRatios {
		if !seen[name] {
			t.Errorf("telemetry ratio %s is not a defined metric", name)
		}
	}
}

type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func TestBenchmarkJSONMatchesCode(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var b benchmarkFile
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
	if !slices.Equal(names, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, code runs %v", names, workloadNames)
	}
	var e2e []metricDef
	maxBound, setupBound := 0.0, 0.0
	for _, m := range b.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit, m.Better})
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		maxBound = max(maxBound, m.Bound)
		if m.Name == "setup_s" {
			setupBound = m.Bound
		}
	}
	if setupBound != maxBound {
		t.Errorf("setup_s bound %v is not the largest (%v)", setupBound, maxBound)
	}
	if !slices.Equal(e2e, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end\n%v\ncode emits\n%v", e2e, endToEnd)
	}
	if !slices.Equal(b.PerLayer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer\n%v\ncode emits\n%v", b.PerLayer, perLayer)
	}
	if !slices.Equal(b.Paths, []string{"yybench"}) || len(b.Command) != 2 || b.Command[1] != "yybench/run.sh" {
		t.Errorf("command %v / paths %v do not name this benchmark", b.Command, b.Paths)
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", b.RunSeconds)
	}
}

// TestReferenceScale stands a script in for the reference program: an
// interval between samples of 0.2 s and 0.3 s runs at 0.1/0.25 of the
// reference host's speed, and output that is not a positive time fails.
func TestReferenceScale(t *testing.T) {
	dir := t.TempDir()
	script := func(name, body string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte("#!/bin/sh\n"+body+"\n"), 0o755); err != nil {
			t.Fatal(err)
		}
		return path
	}
	r := &reference{path: script("first", "echo 0.2")}
	if err := r.mark(); err != nil {
		t.Fatal(err)
	}
	r.path = script("second", "echo 0.3")
	if f, err := r.scale(); err != nil || math.Abs(f-refSeconds/0.25) > 1e-12 {
		t.Errorf("scale = %v, %v; want %v", f, err, refSeconds/0.25)
	}
	if m := median(r.samples); m != 0.25 {
		t.Errorf("median of samples %v = %v", r.samples, m)
	}
	for _, body := range []string{"echo fast", "echo 0", "exit 1"} {
		bad := &reference{path: script("bad", body)}
		if err := bad.mark(); err == nil {
			t.Errorf("reference program %q: no error", body)
		}
	}
}

func TestUsage(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "arith", "--trace", "2"},
		{"--workload", "arith", "--seconds", "0"},
	} {
		if rc := run(args, io.Discard, io.Discard); rc != 2 {
			t.Errorf("run(%q) = %d, want 2", args, rc)
		}
	}
}

// TestSmoke runs every workload at tiny sizes, untraced and traced, and
// checks that each reports every metric of its run kind and passes its
// own correctness checks.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the fakesolver fixture and runs campaigns")
	}
	dir := t.TempDir()
	fake := filepath.Join(dir, "fakesolver")
	ref := filepath.Join(dir, "refspeed")
	for _, b := range []struct{ out, dir, pkg string }{{fake, "..", "./internal/backend/fakesolver"}, {ref, ".", "./refspeed"}} {
		build := exec.Command("go", "build", "-o", b.out, b.pkg)
		build.Dir = b.dir
		if out, err := build.CombinedOutput(); err != nil {
			t.Fatalf("building %s: %v\n%s", b.pkg, err, out)
		}
	}
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			rc := runConfig{seed: 3, seconds: 0.01, trace: traced, fakesolver: fake, workdir: dir, ref: &reference{path: ref}, log: io.Discard}
			w, ok := newWorkload(name, rc)
			if !ok {
				t.Fatalf("no workload %s", name)
			}
			o, err := shrink(w).run(rc)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if len(o.problems) > 0 {
				t.Errorf("%s traced=%v: %q", name, traced, o.problems)
			}
			rep, err := buildReport(o, traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if !rep.Correct || rep.Attempted < 1 {
				t.Errorf("%s traced=%v: report %+v", name, traced, rep)
			}
			if traced {
				var sum float64
				for _, d := range shareDefs() {
					sum += rep.Metrics[d.Name].Value
				}
				if math.Abs(sum-1) > 0.01 {
					t.Errorf("%s: cpu shares sum to %v", name, sum)
				}
			}
		}
	}
	if left, _ := filepath.Glob(filepath.Join(dir, "spool-*")); len(left) > 0 {
		t.Errorf("service spools left behind: %v", left)
	}
}

// shrink cuts a workload down to smoke-test size. The service keeps its
// batch of 400 jobs, the fewest that give a 97.5th percentile.
func shrink(w workload) workload {
	switch w := w.(type) {
	case campaignWorkload:
		w.cases = slices.Clone(w.cases[:1])
		w.cases[0].Iterations, w.cases[0].SeedPool = 4, 4
		return w
	case serviceWorkload:
		w.job.Logics = []string{"QF_LIA"}
		w.job.Iterations, w.job.SeedPool = 4, 2
		w.stopAfter = 2
		w.coldStarts = 2
		return w
	}
	return w
}
