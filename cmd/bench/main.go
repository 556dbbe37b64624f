// Command bench is the allocation ledger: it runs every benchmark body
// of the shared registry (internal/benchmarks) once at a fixed op
// count, writes the bytes/op and allocs/op of each to a BENCH_<n>.json
// trajectory file, and gates allocs/op against the latest committed
// file. Time is not measured here: end-to-end speed claims come from
// the repository benchmark (yybench) and per-benchmark ns/op from
// `go test -bench=Registry`.
//
// Usage:
//
//	go run ./cmd/bench                 # full suite, writes BENCH_<n+1>.json
//	go run ./cmd/bench -short          # fast benchmarks only (CI gate)
//	go run ./cmd/bench -o /tmp/b.json  # explicit output path
//	go run ./cmd/bench -write=false    # gate only, write nothing
//
// Every benchmark body replays a deterministic workload stream from a
// fixed seed, so at a fixed op count every run executes the identical
// work and allocs/op is a property of the code, not of the host. The
// gate compares only benchmarks present in both the new run and the
// baseline, so a -short run gates cleanly against a committed full run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
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

// allocTolerance is the largest allowed fractional allocs/op growth
// over the baseline. Allocation counts at a fixed op count move only
// with the code, so the bound is fixed rather than tuned per host.
const allocTolerance = 0.10

const (
	fastOps = "1000x"
	slowOps = "1x"
)

type benchStats struct {
	BytesPerOp  int64 `json:"bytes_per_op"`
	AllocsPerOp int64 `json:"allocs_per_op"`
}

// report is one BENCH_<n>.json file. Files written before the ledger
// also carry ns/op, ops/s, calibration and overhead fields; decoding
// ignores them.
type report struct {
	Timestamp  string                `json:"timestamp"`
	GoVersion  string                `json:"go_version"`
	NumCPU     int                   `json:"num_cpu"`
	Mode       string                `json:"mode"`
	Benchmarks map[string]benchStats `json:"benchmarks"`
}

var benchFilePat = regexp.MustCompile(`^BENCH_(\d+)\.json$`)

func main() {
	short := flag.Bool("short", false, "run only the fast benchmarks (CI mode)")
	dir := flag.String("dir", ".", "directory holding BENCH_<n>.json files (baseline lookup and default output)")
	out := flag.String("o", "", "explicit output path (default: next BENCH_<n>.json in -dir)")
	write := flag.Bool("write", true, "write the result file (false: gate only)")
	flag.Parse()

	testing.Init()
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
	for _, e := range benchmarks.All {
		if *short && !e.Fast {
			fmt.Printf("%-28s skipped (-short)\n", e.Name)
			continue
		}
		ops := fastOps
		if !e.Fast {
			ops = slowOps
		}
		if err := flag.Lookup("test.benchtime").Value.Set(ops); err != nil {
			fatal(err)
		}
		res := testing.Benchmark(e.Fn)
		if res.N == 0 {
			fatal(fmt.Errorf("benchmark %s did not run", e.Name))
		}
		st := benchStats{BytesPerOp: res.AllocedBytesPerOp(), AllocsPerOp: res.AllocsPerOp()}
		rep.Benchmarks[e.Name] = st
		fmt.Printf("%-28s %12d B/op %10d allocs/op\n", e.Name, st.BytesPerOp, st.AllocsPerOp)
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
	if baseline == nil {
		fmt.Println("no baseline BENCH_<n>.json: gate skipped")
		return
	}
	// A different toolchain or machine shape can move allocation counts
	// (runtime and standard-library changes), so flag it loudly before
	// the gate verdict is read as a code change.
	for _, w := range fingerprintDiff(rep, *baseline) {
		fmt.Printf("WARNING: %s — environment changed, comparison unreliable\n", w)
	}
	fmt.Printf("gating allocs/op against %s (tolerance %.0f%%)\n", baseName, allocTolerance*100)
	if failures := gate(rep, *baseline); len(failures) > 0 {
		for _, f := range failures {
			fmt.Fprintln(os.Stderr, "REGRESSION:", f)
		}
		os.Exit(1)
	}
	fmt.Println("bench gate passed")
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
// reports and describes every mismatch.
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

// gate returns one failure message per benchmark whose allocs/op grew
// more than allocTolerance over the baseline. Benchmarks missing from
// the baseline are skipped.
func gate(cur, base report) []string {
	names := make([]string, 0, len(cur.Benchmarks))
	for name := range cur.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)
	var failures []string
	for _, name := range names {
		b, ok := base.Benchmarks[name]
		if !ok {
			continue
		}
		c := cur.Benchmarks[name]
		if float64(c.AllocsPerOp) > float64(b.AllocsPerOp)*(1+allocTolerance) {
			failures = append(failures, fmt.Sprintf(
				"%s: %d allocs/op vs baseline %d (+%.0f%%, tolerance %.0f%%)",
				name, c.AllocsPerOp, b.AllocsPerOp,
				(float64(c.AllocsPerOp)/float64(b.AllocsPerOp)-1)*100, allocTolerance*100))
		}
	}
	return failures
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}
