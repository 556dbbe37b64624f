// Command yybench is the repository benchmark. It runs one named
// workload through the public campaign API (harness.Start) or the
// campaign service (service.Handler over loopback HTTP) for a given
// time, checks the results, and prints its metrics as one JSON object
// on the last line of standard output:
//
//	bash yybench/run.sh --workload arith --seed 1 --seconds 30 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 attaches the
// campaign telemetry and a JSONL trace, records a CPU profile, and
// reports the per-layer metrics instead. README.md lists the workloads
// and defines every metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strings"

	"repro/internal/gen"
	"repro/internal/harness"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// runConfig is what a workload needs to know about its run.
type runConfig struct {
	seed    int64
	seconds float64
	trace   bool
	// fakesolver is the built fixture the wild workload uses as its
	// external solver; workdir holds the service spool.
	fakesolver string
	workdir    string
	ref        *reference
	log        io.Writer
}

// outcome is what a workload measured and found.
type outcome struct {
	attempted, failed int
	// problems lists correctness violations; any one fails the run.
	problems []string
	values   map[string]float64
	// bugs and wrong are the result-plane totals (deduplicated findings
	// and reference disagreements) that a performance change must keep.
	bugs, wrong int
}

func newOutcome() *outcome { return &outcome{values: map[string]float64{}} }

func (o *outcome) problemf(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

type workload interface {
	run(rc runConfig) (*outcome, error)
}

// workloadNames lists the workloads in BENCHMARK.json order.
var workloadNames = []string{"arith", "strings", "wild", "service"}

var (
	trunkSUTs     = []string{"z3sim", "cvc4sim"}
	arithLogics   = []string{"LIA", "LRA", "NRA", "QF_LIA", "QF_LRA", "QF_NRA", "QF_NIA"}
	stringsLogics = []string{"QF_S", "QF_SLIA", "StringFuzz"}
)

// Catalogue sizes, chosen so that one pass takes five to seven seconds
// on the 2-core host they were sized on: a 30-second run then executes
// each case about four times, and the per-case medians damp one-off
// stalls.
const (
	arithIterations   = 150
	stringsIterations = 30
	wildIterations    = 15
	catalogueThreads  = 2 // workers per campaign: the host's core count
)

// newWorkload builds a workload by name.
func newWorkload(name string, rc runConfig) (workload, bool) {
	switch name {
	case "arith":
		return campaignWorkload{cases: catalogue(trunkSUTs, arithLogics, arithIterations, 4, nil)}, true
	case "strings":
		return campaignWorkload{cases: catalogue(trunkSUTs, stringsLogics, stringsIterations, 3, nil)}, true
	case "wild":
		fake := &harness.ProcessBackendConfig{Name: "fakesolver", Path: rc.fakesolver, Args: []string{"-mode", "sat"}}
		var logics []string
		for _, l := range gen.AllLogics {
			logics = append(logics, string(l))
		}
		// The backends are the SUT's fellow voters in the consensus.
		cases := catalogue([]string{"z3sim"}, logics, wildIterations, 6, func(cc *harness.CampaignConfig) {
			cc.Mode = string(harness.ModeWild)
			cc.Oracle = string(harness.OracleAuto)
			cc.Backends = []harness.BackendConfig{
				{Sim: &harness.SimBackendConfig{SUT: "cvc4sim"}},
				{Sim: &harness.SimBackendConfig{SUT: "z3sim", Release: "4.8.5"}},
				{Process: fake},
			}
		})
		return campaignWorkload{cases: cases, probe: fake}, true
	case "service":
		return defaultService(), true
	}
	return nil, false
}

// catalogue builds a workload's fixed cases: each SUT on campaign seeds
// 1..seeds, with the paper's seed pool of 20. tune, when set, adjusts
// every case.
func catalogue(suts, logics []string, iterations, seeds int, tune func(*harness.CampaignConfig)) []harness.CampaignConfig {
	var cases []harness.CampaignConfig
	for _, sut := range suts {
		for s := 1; s <= seeds; s++ {
			cc := harness.CampaignConfig{
				SUT:        sut,
				Logics:     logics,
				Iterations: iterations,
				SeedPool:   20,
				Seed:       int64(s),
				Threads:    catalogueThreads,
			}
			if tune != nil {
				tune(&cc)
			}
			cases = append(cases, cc)
		}
	}
	return cases
}

// metricValue and report are the JSON the last output line carries.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("yybench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames, ", "))
	seed := fs.Int64("seed", 1, "seed the workload derives its inputs from")
	secs := fs.Float64("seconds", 30, "how long to measure")
	trace := fs.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	fakesolver := fs.String("fakesolver", "", "path to the built fakesolver fixture")
	refspeed := fs.String("refspeed", "", "path to the built reference program (refspeed/)")
	workdir := fs.String("workdir", ".bench_build", "scratch directory for the service spool")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	rc := runConfig{
		seed: *seed, seconds: *secs, trace: *trace == 1,
		fakesolver: *fakesolver, workdir: *workdir, ref: &reference{path: *refspeed}, log: stdout,
	}
	w, ok := newWorkload(*name, rc)
	if !ok || (*trace != 0 && *trace != 1) || *secs <= 0 || *refspeed == "" {
		fmt.Fprintf(stderr, "yybench: need --workload (%s), --seconds > 0, --trace 0|1 and --refspeed\n", strings.Join(workloadNames, ", "))
		return 2
	}
	o, err := w.run(rc)
	if err != nil {
		fmt.Fprintf(stderr, "yybench: %s: %v\n", *name, err)
		return 1
	}
	fmt.Fprintln(stdout, rc.ref)
	rep, err := buildReport(o, rc.trace)
	if err != nil {
		fmt.Fprintf(stderr, "yybench: %s: %v\n", *name, err)
		return 1
	}
	for _, p := range o.problems {
		fmt.Fprintf(stderr, "yybench: %s: check failed: %s\n", *name, p)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(stderr, "yybench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !rep.Correct {
		return 1
	}
	return 0
}

// buildReport selects the metric set of the run kind and refuses a
// report that misses a metric or holds a non-finite value.
func buildReport(o *outcome, traced bool) (report, error) {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	rep := report{
		Correct:   len(o.problems) == 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, d := range defs {
		v, ok := o.values[d.Name]
		if !ok {
			return report{}, fmt.Errorf("metric %s was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return report{}, fmt.Errorf("metric %s is %v", d.Name, v)
		}
		rep.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	if rep.Attempted < 1 {
		return report{}, fmt.Errorf("no operation was attempted")
	}
	return rep, nil
}
