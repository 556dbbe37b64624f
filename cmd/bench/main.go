// Command bench is the benchmark-regression harness: it runs the
// shared benchmark bodies (internal/benchmarks), writes a BENCH_<n>.json
// perf-trajectory file (ns/op, bytes/op, allocs/op, tests per second),
// and gates against the previous file — a throughput drop beyond the
// tolerance fails the run, making every PR's speedup or regression
// visible.
//
// Usage:
//
//	go run ./cmd/bench                 # full suite, writes BENCH_<n+1>.json
//	go run ./cmd/bench -short          # fast benchmarks only (CI gate)
//	go run ./cmd/bench -o /tmp/b.json  # explicit output path
//	go run ./cmd/bench -write=false    # gate only, write nothing
//
// The gate compares only benchmarks present in both the new run and the
// baseline, so a -short run gates cleanly against a committed full run.
// Fast benchmarks are measured at a fixed op count (every run executes
// the identical deterministic workload sequence — adaptive iteration
// counts would hand each run a different stream prefix whose mix
// difference dwarfs real regressions), best-of-3 with rounds
// interleaved across the suite: on a shared host, ambient noise only
// inflates a round, so the minimum is the stable statistic, a real
// regression still shows in every round, and interleaving keeps one
// noise burst off all of a benchmark's rounds. Each report also records the ns/op of a fixed calibration
// workload (benchmarks.Calibrate); the gate divides out the
// baseline/current speed drift it measures, so a host that is slower
// today than when the baseline was recorded doesn't read as a code
// regression.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"testing"
	"time"

	"repro/internal/benchmarks"
)

type benchStats struct {
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	// OpsPerSec is 1e9/ns_per_op — for ThroughputSingleThreaded this is
	// the paper's fused tests per second.
	OpsPerSec float64 `json:"ops_per_sec"`
}

type report struct {
	Timestamp  string                `json:"timestamp"`
	GoVersion  string                `json:"go_version"`
	NumCPU     int                   `json:"num_cpu"`
	Mode       string                `json:"mode"`
	Benchmarks map[string]benchStats `json:"benchmarks"`
	// InstrumentationOverhead is the fractional throughput cost of armed
	// telemetry counters: 1 − instrumented/plain ops/s, measured within
	// this run (negative values are benchmark noise).
	InstrumentationOverhead *float64 `json:"instrumentation_overhead,omitempty"`
	// CalibNsPerOp is the best-of-5 ns/op of the fixed calibration
	// workload (benchmarks.Calibrate), the run's measured machine speed.
	// The gate scales throughput comparisons by baseline/current so a
	// shared host's speed drift between runs doesn't read as a code
	// regression.
	CalibNsPerOp float64 `json:"calib_ns_per_op,omitempty"`
}

var benchFilePat = regexp.MustCompile(`^BENCH_(\d+)\.json$`)

func main() {
	short := flag.Bool("short", false, "run only the fast benchmarks with a reduced benchtime (CI mode)")
	dir := flag.String("dir", ".", "directory holding BENCH_<n>.json files (baseline lookup and default output)")
	out := flag.String("o", "", "explicit output path (default: next BENCH_<n>.json in -dir)")
	write := flag.Bool("write", true, "write the result file (false: gate only)")
	// Wall-clock throughput on a shared host keeps ~±25% phase noise
	// even after fixed op counts, best-of-3, and speed normalization
	// (the drift doesn't fully show in the calibration workload), so
	// the time gate is deliberately wide — the deterministic allocs/op
	// gate below is the precise tripwire, and the step-based telemetry
	// counters carry exact work accounting.
	tolerance := flag.Float64("tolerance", 0.40, "max allowed fractional ops/sec regression vs baseline (wall-clock, noise-tolerant)")
	allocTolerance := flag.Float64("alloc-tolerance", 0.10, "max allowed fractional allocs/op growth vs baseline (deterministic at fixed op counts)")
	overheadTol := flag.Float64("overhead-tolerance", 0.03, "max allowed fractional telemetry instrumentation overhead (plain vs instrumented throughput)")
	benchtime := flag.String("benchtime", "", "benchtime for the slow (non-Fast) benchmarks (default 1s); fast benchmarks always run a fixed op count")
	flag.Parse()

	testing.Init()
	bt := *benchtime
	if bt == "" {
		bt = "1s"
	}
	// Fast benchmarks run a FIXED op count, never an adaptive benchtime:
	// their bodies replay a deterministic workload stream from a fixed
	// seed, so ns/op depends on which prefix of the stream the run
	// covers. Adaptive iteration counts hand every run a different
	// prefix and the mix difference dwarfs real regressions (the same
	// reason measureOverhead pins its op count); a fixed count makes
	// every measurement — recording and gating alike — execute the
	// identical work.
	const fastOps = "1000x"

	mode := "full"
	if *short {
		mode = "short"
	}
	rep := report{
		//golint:allow wall-clock — the benchmark report is stamped with real time by design; nothing downstream branches on it
		Timestamp:  time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		Mode:       mode,
		Benchmarks: map[string]benchStats{},
	}

	// Fast benchmarks run best-of-3 with the rounds interleaved across
	// the whole suite: on a shared host, ambient noise only ever
	// inflates a round, while a real regression shows up in every one
	// (same rationale as measureOverhead) — and interleaving spreads one
	// benchmark's rounds out in time so a several-second noise burst (a
	// GC or intern-sweep storm included) can't land on all of them. The
	// slow campaign benchmarks amortize noise over their long runs and
	// get one round.
	const rounds = 3
	for r := 0; r < rounds; r++ {
		for _, e := range benchmarks.All {
			if *short && !e.Fast {
				if r == 0 {
					fmt.Printf("%-28s skipped (-short)\n", e.Name)
				}
				continue
			}
			if !e.Fast && r > 0 {
				continue
			}
			tm := fastOps
			if !e.Fast {
				tm = bt
			}
			if err := flag.Lookup("test.benchtime").Value.Set(tm); err != nil {
				fatal(err)
			}
			// Collect garbage left by the previous benchmark (dead interned
			// terms in particular) so measurements don't bleed into each
			// other.
			runtime.GC()
			res := testing.Benchmark(e.Fn)
			if res.N == 0 {
				fatal(fmt.Errorf("benchmark %s did not run", e.Name))
			}
			ns := float64(res.T.Nanoseconds()) / float64(res.N)
			if cur, ok := rep.Benchmarks[e.Name]; !ok || ns < cur.NsPerOp {
				rep.Benchmarks[e.Name] = benchStats{
					NsPerOp:     ns,
					BytesPerOp:  res.AllocedBytesPerOp(),
					AllocsPerOp: res.AllocsPerOp(),
					OpsPerSec:   1e9 / ns,
				}
			}
		}
	}
	for _, e := range benchmarks.All {
		st, ok := rep.Benchmarks[e.Name]
		if !ok {
			continue
		}
		fmt.Printf("%-28s %12.0f ns/op %10d allocs/op %12.1f ops/s\n",
			e.Name, st.NsPerOp, st.AllocsPerOp, st.OpsPerSec)
	}

	rep.CalibNsPerOp = measureCalibration()
	fmt.Printf("cpu calibration: %.2f ms/op\n", rep.CalibNsPerOp/1e6)

	overhead := measureOverhead(*short)
	rep.InstrumentationOverhead = &overhead
	overheadFail := ""
	fmt.Printf("instrumentation overhead: %.2f%% (tolerance %.0f%%)\n",
		overhead*100, *overheadTol*100)
	if overhead > *overheadTol {
		overheadFail = fmt.Sprintf(
			"telemetry instrumentation overhead %.2f%% exceeds %.0f%%",
			overhead*100, *overheadTol*100)
	}

	baseline, baseName, err := latestBaseline(*dir)
	if err != nil {
		fatal(err)
	}

	if *write {
		path := *out
		if path == "" {
			path = filepath.Join(*dir, nextBenchName(*dir))
		}
		buf, err := json.MarshalIndent(&rep, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", path)
	}

	var failures []string
	if overheadFail != "" {
		failures = append(failures, overheadFail)
	}
	if baseline == nil {
		fmt.Println("no baseline BENCH_<n>.json: baseline gate skipped")
	} else {
		// Environment fingerprint: cross-machine (or cross-toolchain)
		// comparisons are not perf regressions, so flag them loudly before
		// the gate verdict is read as one.
		for _, w := range fingerprintDiff(rep, *baseline) {
			fmt.Printf("WARNING: %s — environment changed, comparison unreliable\n", w)
		}
		// Speed drift: on a shared host the machine the baseline was
		// recorded on is effectively a different machine from the one
		// gating now, even when the fingerprint matches. The calibration
		// workload measures that drift so the gate can divide it out.
		drift := 1.0
		if baseline.CalibNsPerOp > 0 && rep.CalibNsPerOp > 0 {
			drift = rep.CalibNsPerOp / baseline.CalibNsPerOp
			if drift > 1.05 || drift < 0.95 {
				fmt.Printf("cpu calibration drift: this run measures %.2fx %s than the baseline run; gate normalized\n",
					maxf(drift, 1/drift), map[bool]string{true: "slower", false: "faster"}[drift > 1])
			}
		}
		fmt.Printf("gating against %s (time tolerance %.0f%%, alloc tolerance %.0f%%)\n",
			baseName, *tolerance*100, *allocTolerance*100)
		failures = append(failures, gate(rep, *baseline, *tolerance, *allocTolerance, drift)...)
	}
	if len(failures) > 0 {
		for _, f := range failures {
			fmt.Fprintln(os.Stderr, "REGRESSION:", f)
		}
		os.Exit(1)
	}
	fmt.Println("bench gate passed")
}

// measureOverhead estimates the throughput cost of armed telemetry
// counters as 1 − plain/instrumented time per op. Both benchmarks run
// at the same fixed op count so they execute the identical workload
// sequence (the main loop's adaptive iteration counts would hand each
// a different slice of the deterministic stream and drown the
// few-percent delta in mix differences). The pair is interleaved over
// several rounds and the minimum overhead is kept: ambient machine
// noise only ever inflates a round, while a real regression shows up
// in every one.
func measureOverhead(short bool) float64 {
	rounds, ops := 5, "600x"
	if short {
		rounds, ops = 3, "300x"
	}
	if err := flag.Lookup("test.benchtime").Value.Set(ops); err != nil {
		fatal(err)
	}
	run := func(fn func(*testing.B)) float64 {
		runtime.GC()
		res := testing.Benchmark(fn)
		if res.N == 0 {
			fatal(fmt.Errorf("overhead benchmark did not run"))
		}
		return float64(res.T.Nanoseconds()) / float64(res.N)
	}
	best := math.Inf(1)
	for r := 0; r < rounds; r++ {
		plain := run(benchmarks.ThroughputSingleThreaded)
		instr := run(benchmarks.ThroughputInstrumented)
		if overhead := 1 - plain/instr; overhead < best {
			best = overhead
		}
	}
	return best
}

// measureCalibration returns the best-of-5 ns/op of the fixed
// calibration workload. Best-of for the same reason as everywhere else
// in this file: contention only ever inflates a round, so the minimum
// is the machine's repeatable speed.
func measureCalibration() float64 {
	if err := flag.Lookup("test.benchtime").Value.Set("20x"); err != nil {
		fatal(err)
	}
	best := math.Inf(1)
	for r := 0; r < 5; r++ {
		runtime.GC()
		res := testing.Benchmark(benchmarks.Calibrate)
		if res.N == 0 {
			fatal(fmt.Errorf("calibration benchmark did not run"))
		}
		if ns := float64(res.T.Nanoseconds()) / float64(res.N); ns < best {
			best = ns
		}
	}
	return best
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// latestBaseline loads the highest-numbered BENCH_<n>.json in dir.
func latestBaseline(dir string) (*report, string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, "", err
	}
	best, bestName := -1, ""
	for _, e := range entries {
		m := benchFilePat.FindStringSubmatch(e.Name())
		if m == nil {
			continue
		}
		n, err := strconv.Atoi(m[1])
		if err == nil && n > best {
			best, bestName = n, e.Name()
		}
	}
	if best < 0 {
		return nil, "", nil
	}
	buf, err := os.ReadFile(filepath.Join(dir, bestName))
	if err != nil {
		return nil, "", err
	}
	var rep report
	if err := json.Unmarshal(buf, &rep); err != nil {
		return nil, "", fmt.Errorf("%s: %w", bestName, err)
	}
	return &rep, bestName, nil
}

func nextBenchName(dir string) string {
	entries, _ := os.ReadDir(dir)
	next := 1
	for _, e := range entries {
		if m := benchFilePat.FindStringSubmatch(e.Name()); m != nil {
			if n, err := strconv.Atoi(m[1]); err == nil && n >= next {
				next = n + 1
			}
		}
	}
	return fmt.Sprintf("BENCH_%d.json", next)
}

// fingerprintDiff compares the environment facts recorded in both
// reports and describes every mismatch. A differing CPU count or Go
// toolchain means the baseline numbers were produced by a different
// machine shape, so throughput deltas say nothing about the code.
func fingerprintDiff(cur, base report) []string {
	var out []string
	if base.NumCPU != 0 && cur.NumCPU != base.NumCPU {
		out = append(out, fmt.Sprintf("num_cpu %d vs baseline %d", cur.NumCPU, base.NumCPU))
	}
	if base.GoVersion != "" && cur.GoVersion != base.GoVersion {
		out = append(out, fmt.Sprintf("go_version %s vs baseline %s", cur.GoVersion, base.GoVersion))
	}
	return out
}

// gate returns one failure message per benchmark whose throughput
// dropped or whose allocs/op grew more than the tolerated fraction vs
// the baseline. Only benchmarks present in both reports are compared.
// Allocs/op is the precise check: at a fixed op count the workload is
// deterministic, so alloc growth is a real code change, never noise.
// For the wall-clock check, drift is the calibration ratio
// current/baseline ns/op of the fixed workload (>1 = this run's
// machine is slower): each measured throughput is multiplied by it
// before comparing, so uniform host slowdowns cancel.
func gate(cur, base report, tolerance, allocTolerance, drift float64) []string {
	names := make([]string, 0, len(cur.Benchmarks))
	for name := range cur.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)
	var failures []string
	for _, name := range names {
		b, ok := base.Benchmarks[name]
		if !ok || b.OpsPerSec <= 0 {
			continue
		}
		c := cur.Benchmarks[name]
		if b.AllocsPerOp > 0 && float64(c.AllocsPerOp) > float64(b.AllocsPerOp)*(1+allocTolerance) {
			failures = append(failures, fmt.Sprintf(
				"%s: %d allocs/op vs baseline %d (+%.0f%%, tolerance %.0f%%)",
				name, c.AllocsPerOp, b.AllocsPerOp,
				(float64(c.AllocsPerOp)/float64(b.AllocsPerOp)-1)*100, allocTolerance*100))
		}
		adj := c.OpsPerSec * drift
		if adj < b.OpsPerSec*(1-tolerance) {
			failures = append(failures, fmt.Sprintf(
				"%s: %.1f ops/s (%.1f speed-normalized) vs baseline %.1f ops/s (-%.0f%%, tolerance %.0f%%)",
				name, c.OpsPerSec, adj, b.OpsPerSec,
				(1-adj/b.OpsPerSec)*100, tolerance*100))
		}
	}
	return failures
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}
