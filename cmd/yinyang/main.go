// Command yinyang is the fuzzer CLI: it runs the paper's Algorithm 1
// against a simulated solver under test, reporting deduplicated bug
// findings, and can dump the reduced bug-triggering formulas.
//
// Usage:
//
//	yinyang [-sut z3sim] [-release trunk] [-logics QF_S,QF_NRA]
//	        [-iters 200] [-pool 20] [-seed 1] [-threads 1]
//	        [-mode fusion|mutate|wild] [-nomodelcheck]
//	        [-oracle known|majority|metamorphic|auto] [-quorum 2]
//	        [-concat] [-outdir bugs/] [-artifacts artifacts/]
//	        [-fuel 10000000] [-walltimeout 0]
//	        [-backend cvc4sim@1.5] [-backend 'z3=/usr/bin/z3 -in']
//	        [-backend-timeout 10s] [-backend-retries 2] [-backend-breaker 5]
//	        [-metrics metrics.prom] [-trace trace.jsonl]
//	        [-checkpoint cp.json] [-stop-after N] [-shard I/K]
//	        [-envelope env.json] [-fingerprint fp.json]
//	        [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//	yinyang -merge [-artifacts merged/] [-metrics m.prom] [-trace t.jsonl]
//	        [-fingerprint fp.json] envelope.json...
//	yinyang -serve :8080 [-spool dir] [-spool-retain N]
//
// The repeatable -backend flag layers a differential cross-check
// oracle over the campaign. Two forms are accepted:
//
//	sut[@release]        — a hermetic in-process backend (z3sim or
//	    cvc4sim), deterministic and thread-count invariant
//	name=/path [args]    — an external SMT-LIB solver binary, driven
//	    over stdin/stdout under fault containment: per-invocation
//	    deadline, retry with backoff, circuit breaker. A persistently
//	    failing binary is quarantined and the campaign completes in
//	    degraded mode, reported per backend and via exit status 4.
//
// The -oracle flag picks the consensus policy for tasks whose ground
// truth is unknown (semantic fusion normally knows the answer by
// construction; -mode wild and skipped model checks do not):
//
//	known        — classify only against the constructed ground truth;
//	    unknown-status tasks are never cross-checked (the default, and
//	    the paper's oracle).
//	majority     — fold every definite verdict (SUT included, as the
//	    pseudo-voter "sut") into a majority vote; voters outvoted by a
//	    consensus of at least -quorum definite votes are reported as
//	    majority-disagreement findings.
//	metamorphic  — derive a relation-preserving variant of each
//	    unknown-status formula and flag verdict pairs that violate the
//	    relation (each voter checked against itself).
//	auto         — majority and metamorphic combined.
//
// Campaign lifecycle flags:
//
//	-checkpoint path     durable pause/resume. If the file exists the
//	    campaign resumes from it (campaign-shape flags are ignored —
//	    the checkpoint carries the config); otherwise a fresh campaign
//	    starts and, if paused, checkpoints there. -stop-after N pauses
//	    after N classified tasks. A paused run exits 3.
//	-shard I/K           run shard I of K (task ids ≡ I mod K); pair
//	    with -envelope and fold the K envelopes with -merge.
//	-envelope path       write the completed campaign's sealed result
//	    envelope (the -merge input).
//	-fingerprint path    write the canonical result fingerprint, a
//	    byte-comparable serialization of everything observed.
//	-merge               fold shard envelopes (positional args) into
//	    one campaign result; -artifacts names the merged bundle dir.
//	-serve addr          run the campaign control-plane HTTP service;
//	    -spool makes jobs durable across restarts; -spool-retain N
//	    caps the terminal (done/failed) job history — running and
//	    paused jobs are never collected.
//
// Exit status: 0 success, 1 campaign or I/O error, 2 flag misuse,
// 3 paused at a checkpoint, 4 completed in degraded mode.
package main

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/bugdb"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/reduce"
	"repro/internal/service"
	"repro/internal/smtlib"
	"repro/internal/solver"
	"repro/internal/telemetry"
)

// Exit codes; see the package comment.
const (
	exitOK       = 0
	exitError    = 1
	exitUsage    = 2
	exitPaused   = 3
	exitDegraded = 4
)

// backendFlags collects the repeatable -backend values.
type backendFlags []string

func (b *backendFlags) String() string { return strings.Join(*b, ",") }

func (b *backendFlags) Set(v string) error {
	*b = append(*b, v)
	return nil
}

// parseBackendConfig turns one -backend value into a serializable
// backend config. "sut[@release]" selects a hermetic in-process
// backend; "name=/path [args]" an external solver binary under process
// supervision.
func parseBackendConfig(v string, fuel int64, timeout time.Duration, retries, breaker int) (harness.BackendConfig, error) {
	if name, cmdline, ok := strings.Cut(v, "="); ok {
		name = strings.TrimSpace(name)
		argv := strings.Fields(cmdline)
		if name == "" || len(argv) == 0 {
			return harness.BackendConfig{}, fmt.Errorf("backend %q: want name=/path/to/solver [args]", v)
		}
		if retries == 0 {
			// The config treats 0 as "unset, use the default"; at the
			// CLI an explicit 0 means no retries.
			retries = -1
		}
		return harness.BackendConfig{Process: &harness.ProcessBackendConfig{
			Name:    name,
			Path:    argv[0],
			Args:    argv[1:],
			Timeout: timeout,
			Retries: retries,
			Breaker: breaker,
		}}, nil
	}
	sut, release, _ := strings.Cut(v, "@")
	switch bugdb.SUT(sut) {
	case bugdb.Z3Sim, bugdb.CVC4Sim:
		return harness.BackendConfig{Sim: &harness.SimBackendConfig{
			SUT: sut, Release: release, Fuel: fuel,
		}}, nil
	}
	return harness.BackendConfig{}, fmt.Errorf("backend %q: not a simulated solver (z3sim, cvc4sim) and no =/path given", v)
}

// parseShard parses "I/K".
func parseShard(v string) (shard, shards int, err error) {
	if v == "" {
		return 0, 0, nil
	}
	if _, err := fmt.Sscanf(v, "%d/%d", &shard, &shards); err != nil {
		return 0, 0, fmt.Errorf("shard %q: want I/K (e.g. 0/4)", v)
	}
	if shards < 1 || shard < 0 || shard >= shards {
		return 0, 0, fmt.Errorf("shard %q: want 0 <= I < K", v)
	}
	return shard, shards, nil
}

func main() {
	os.Exit(run())
}

func run() int {
	sutName := flag.String("sut", "z3sim", "solver under test (z3sim or cvc4sim)")
	release := flag.String("release", "trunk", "SUT release")
	logicsFlag := flag.String("logics", "", "comma-separated logics (default: all)")
	iters := flag.Int("iters", 200, "fused tests per logic")
	pool := flag.Int("pool", 20, "seeds per status per logic")
	seed := flag.Int64("seed", 1, "random seed")
	threads := flag.Int("threads", 1, "parallel workers")
	mode := flag.String("mode", "fusion", "test derivation: fusion, mutate, or wild (unknown ground truth)")
	noModelCheck := flag.Bool("nomodelcheck", false, "disable the model-validation oracle on sat verdicts")
	oracle := flag.String("oracle", "known", "consensus policy for unknown-status tasks: known, majority, metamorphic, or auto")
	quorum := flag.Int("quorum", 0, "minimum definite votes for a majority consensus (0 = default 2)")
	concat := flag.Bool("concat", false, "ConcatFuzz baseline (no variable fusion)")
	fuel := flag.Int64("fuel", 0, "deterministic step budget per solve (0 = solver default, negative = unlimited)")
	wallTimeout := flag.Duration("walltimeout", 0, "wall-clock watchdog per solve (0 = off); cut-off runs are quarantined, and results stop being thread-count invariant")
	artifacts := flag.String("artifacts", "", "persist replayable reproducer bundles under this directory (with -merge: the merged bundle directory)")
	metricsPath := flag.String("metrics", "", "write a Prometheus-text metrics snapshot here and print a summary table")
	tracePath := flag.String("trace", "", "write a JSONL per-task event trace here (appended to when resuming)")
	outdir := flag.String("outdir", "", "write reduced bug-triggering formulas here")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the campaign here")
	memprofile := flag.String("memprofile", "", "write an allocation profile here at exit")
	var backends backendFlags
	flag.Var(&backends, "backend", "cross-check backend: sut[@release] (hermetic) or name=/path [args] (external binary); repeatable")
	backendTimeout := flag.Duration("backend-timeout", 10*time.Second, "per-invocation wall-clock deadline for external backends")
	backendRetries := flag.Int("backend-retries", 2, "transient-failure retries per external backend check (0 = none)")
	backendBreaker := flag.Int("backend-breaker", 5, "consecutive hard failures before an external backend is quarantined")
	checkpointPath := flag.String("checkpoint", "", "checkpoint file: resume from it if it exists, write it on pause")
	stopAfter := flag.Int("stop-after", 0, "pause the campaign after this many classified tasks (writes -checkpoint, exits 3)")
	shardSpec := flag.String("shard", "", "run one shard, as I/K (task ids congruent to I mod K)")
	envelopePath := flag.String("envelope", "", "write the completed campaign's sealed result envelope here")
	fingerprintPath := flag.String("fingerprint", "", "write the canonical result fingerprint here (byte-comparable across resumed/sharded runs)")
	merge := flag.Bool("merge", false, "merge shard envelopes (positional arguments) into one campaign result")
	serveAddr := flag.String("serve", "", "run the campaign service on this address instead of a one-shot campaign")
	spoolDir := flag.String("spool", "", "with -serve: persist jobs under this directory, reloading them on restart")
	spoolRetain := flag.Int("spool-retain", 0, "with -serve -spool: keep at most N terminal (done/failed) jobs, 0 = keep all")
	flag.Parse()

	if *serveAddr != "" {
		return runServe(*serveAddr, *spoolDir, *spoolRetain)
	}
	if *merge {
		return runMerge(flag.Args(), *artifacts, *metricsPath, *tracePath, *fingerprintPath, *outdir)
	}
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "error: unexpected arguments %q (positional arguments are only envelopes, with -merge)\n", flag.Args())
		return exitUsage
	}

	shard, shards, err := parseShard(*shardSpec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		return exitUsage
	}

	cc := harness.CampaignConfig{
		SUT:               *sutName,
		Release:           *release,
		Iterations:        *iters,
		SeedPool:          *pool,
		Seed:              *seed,
		Threads:           *threads,
		Mode:              *mode,
		Oracle:            *oracle,
		Quorum:            *quorum,
		DisableModelCheck: *noModelCheck,
		ConcatOnly:        *concat,
		Fuel:              *fuel,
		WallTimeout:       *wallTimeout,
		ArtifactDir:       *artifacts,
		Shard:             shard,
		Shards:            shards,
	}
	if *logicsFlag != "" {
		for _, l := range strings.Split(*logicsFlag, ",") {
			cc.Logics = append(cc.Logics, strings.TrimSpace(l))
		}
	}
	for _, v := range backends {
		bc, err := parseBackendConfig(v, *fuel, *backendTimeout, *backendRetries, *backendBreaker)
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			return exitError
		}
		cc.Backends = append(cc.Backends, bc)
	}

	// A checkpoint on disk takes over the campaign's identity: the
	// shape flags above are ignored in favor of the recorded config.
	var cp *harness.Checkpoint
	resuming := false
	if *checkpointPath != "" {
		if data, err := os.ReadFile(*checkpointPath); err == nil {
			cp, err = harness.DecodeCheckpoint(data)
			if err != nil {
				fmt.Fprintln(os.Stderr, "error:", err)
				return exitError
			}
			resuming = true
		} else if !os.IsNotExist(err) {
			fmt.Fprintln(os.Stderr, "checkpoint:", err)
			return exitError
		}
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "cpuprofile:", err)
			return exitError
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "cpuprofile:", err)
			return exitError
		}
		defer pprof.StopCPUProfile()
	}

	var tracker *telemetry.Tracker
	if *metricsPath != "" {
		tracker = telemetry.NewTracker()
	}
	// trace stays a nil interface when -trace is unset: assigning a nil
	// *os.File into the io.Writer field would read as "tracing on" to
	// the harness. Resumed campaigns append — each leg emits only its
	// new records, so the file accumulates the whole campaign's trace.
	var trace io.Writer
	var traceFile *os.File
	if *tracePath != "" {
		mode := os.O_WRONLY | os.O_CREATE | os.O_TRUNC
		if resuming {
			mode = os.O_WRONLY | os.O_CREATE | os.O_APPEND
		}
		f, err := os.OpenFile(*tracePath, mode, 0o644)
		if err != nil {
			fmt.Fprintln(os.Stderr, "trace:", err)
			return exitError
		}
		traceFile = f
		trace = f
	}

	opt := harness.RunOptions{
		Telemetry: tracker,
		Trace:     trace,
		Threads:   *threads,
		StopAfter: *stopAfter,
	}
	var out *harness.Outcome
	if resuming {
		out, err = harness.Resume(cp, opt)
	} else {
		out, err = harness.Start(cc, opt)
	}
	if traceFile != nil {
		if cerr := traceFile.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("trace: %w", cerr)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		return exitError
	}
	if tracker != nil {
		if werr := writeMetrics(*metricsPath, tracker.Snapshot()); werr != nil {
			fmt.Fprintln(os.Stderr, "metrics:", werr)
			return exitError
		}
	}
	if *fingerprintPath != "" {
		if werr := os.WriteFile(*fingerprintPath, out.Result.Fingerprint(), 0o644); werr != nil {
			fmt.Fprintln(os.Stderr, "fingerprint:", werr)
			return exitError
		}
	}

	if out.Paused {
		if *checkpointPath == "" {
			fmt.Fprintln(os.Stderr, "error: campaign paused but no -checkpoint file to write (the pause state is lost)")
			return exitError
		}
		data, err := harness.EncodeCheckpoint(out.Checkpoint)
		if err != nil {
			fmt.Fprintln(os.Stderr, "checkpoint:", err)
			return exitError
		}
		if err := os.WriteFile(*checkpointPath, data, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "checkpoint:", err)
			return exitError
		}
		total := out.Checkpoint.Config.ShardTaskCount()
		fmt.Printf("paused: %d/%d tasks classified; checkpoint written to %s (rerun with the same -checkpoint to continue)\n",
			out.Checkpoint.Done, total, *checkpointPath)
		pprof.StopCPUProfile() // a no-op when profiling is off
		return exitPaused
	}

	if *envelopePath != "" {
		data, err := harness.EncodeEnvelope(out.Envelope)
		if err != nil {
			fmt.Fprintln(os.Stderr, "envelope:", err)
			return exitError
		}
		if err := os.WriteFile(*envelopePath, data, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "envelope:", err)
			return exitError
		}
	}
	// A resumed campaign runs the checkpoint's config, not the flags'.
	if resuming {
		cc = cp.Config
	}
	printResult(out.Result, cc, *artifacts, *outdir)

	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "memprofile:", err)
			return exitError
		}
		defer f.Close()
		runtime.GC() // materialize up-to-date allocation statistics
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "memprofile:", err)
			return exitError
		}
	}

	if out.Result.Degraded() {
		// Exit 4 distinguishes "completed but degraded" from usage and
		// campaign errors.
		pprof.StopCPUProfile()
		return exitDegraded
	}
	return exitOK
}

// runServe runs the campaign control-plane HTTP service until the
// process is killed.
func runServe(addr, spool string, retain int) int {
	srv, err := service.NewWithRetention(spool, retain)
	if err != nil {
		fmt.Fprintln(os.Stderr, "serve:", err)
		return exitError
	}
	fmt.Printf("yinyang campaign service listening on %s", addr)
	if spool != "" {
		fmt.Printf(" (spooling jobs under %s)", spool)
	}
	fmt.Println()
	if err := http.ListenAndServe(addr, srv.Handler()); err != nil {
		fmt.Fprintln(os.Stderr, "serve:", err)
		return exitError
	}
	return exitOK
}

// runMerge folds shard envelopes into one campaign result.
func runMerge(paths []string, artifactsDir, metricsPath, tracePath, fingerprintPath, outdir string) int {
	if len(paths) == 0 {
		fmt.Fprintln(os.Stderr, "error: -merge needs envelope files as positional arguments")
		return exitUsage
	}
	var envs []*harness.Envelope
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			fmt.Fprintln(os.Stderr, "merge:", err)
			return exitError
		}
		env, err := harness.DecodeEnvelope(data)
		if err != nil {
			fmt.Fprintf(os.Stderr, "merge: %s: %v\n", p, err)
			return exitError
		}
		envs = append(envs, env)
	}
	m, err := harness.Merge(envs, artifactsDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "merge:", err)
		return exitError
	}
	if metricsPath != "" {
		if err := writeMetrics(metricsPath, m.Telemetry); err != nil {
			fmt.Fprintln(os.Stderr, "metrics:", err)
			return exitError
		}
	}
	if tracePath != "" {
		if err := os.WriteFile(tracePath, m.Trace, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "trace:", err)
			return exitError
		}
	}
	if fingerprintPath != "" {
		if err := os.WriteFile(fingerprintPath, m.Result.Fingerprint(), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "fingerprint:", err)
			return exitError
		}
	}
	// Merge checked that every shard ran the same campaign.
	printResult(m.Result, envs[0].Config, artifactsDir, outdir)
	if m.Result.Degraded() {
		return exitDegraded
	}
	return exitOK
}

// printResult prints the human-readable campaign report: the summary
// line, findings, backend reports, and warnings. Identical for direct,
// resumed, and merged runs — the determinism suites diff this output.
// cc is the campaign's config; findings reduced into outdir replay
// against its solver under test.
func printResult(res *harness.Result, cc harness.CampaignConfig, artifactsDir, outdir string) {
	fmt.Printf("tests: %d   unknowns: %d   timeouts: %d   bugs: %d   duplicates: %d   invalid-inputs: %d   quarantined: %d\n",
		res.Tests, res.Unknowns, res.Timeouts, len(res.Bugs), res.Duplicates, res.InvalidInputs, res.Quarantined)
	if res.OracleVotes > 0 || res.OracleConsensus > 0 || res.OracleAbstained > 0 {
		fmt.Printf("oracle majority: votes: %d   consensus: %d   abstained: %d   sut-outvoted: %d\n",
			res.OracleVotes, res.OracleConsensus, res.OracleAbstained, res.SutOutvoted)
	}
	if res.MetamorphicPairs > 0 || res.MetamorphicSkips > 0 {
		fmt.Printf("oracle metamorphic: pairs: %d   skips: %d   sut-violations: %d\n",
			res.MetamorphicPairs, res.MetamorphicSkips, res.SutViolations)
	}
	if len(res.Artifacts) > 0 {
		fmt.Printf("artifacts: %d bundles under %s\n", len(res.Artifacts), artifactsDir)
	}
	if res.InvalidInputs > 0 {
		fmt.Printf("WARNING: %d fused scripts rejected by the static verification gate (fusion defect?)\n",
			res.InvalidInputs)
	}
	if res.ReferenceDisagreements > 0 {
		fmt.Printf("WARNING: %d oracle disagreements without a defect (reference solver bug?)\n",
			res.ReferenceDisagreements)
	}
	for _, b := range res.Bugs {
		entry, _ := bugdb.Find(b.Defect)
		fmt.Printf("  [%s] %-32s logic=%-10s oracle=%-5v observed=%-7v  %s\n",
			b.Kind, b.Defect, b.Logic, b.Oracle, b.Observed, entry.Description)
		if outdir != "" {
			writeReduced(outdir, b, cc)
		}
	}
	for _, rep := range res.Backends {
		state := "ok"
		if rep.Quarantined {
			state = "QUARANTINED"
		}
		fmt.Printf("backend %-20s checks: %d   sat/unsat/unknown: %d/%d/%d   timeouts: %d   crashes: %d   garbled: %d   retries: %d   disagreements: %d   skipped: %d   [%s]\n",
			rep.Name, rep.Checks, rep.Sat, rep.Unsat, rep.Unknowns,
			rep.Timeouts, rep.Crashes, rep.Garbled, rep.Retries,
			rep.Disagreements, rep.Skipped, state)
	}
	for _, f := range res.BackendFindings {
		fmt.Printf("  [backend-%s] %-20s logic=%-10s oracle=%-5s observed=%-11s %s\n",
			f.Kind, f.Backend, f.Logic, f.Oracle, f.Observed, f.Reason)
	}
	if res.Degraded() {
		fmt.Println("WARNING: campaign completed in degraded mode: one or more backends quarantined by the circuit breaker")
	}
}

// writeMetrics persists the Prometheus-text snapshot and prints the
// human-readable summary table.
func writeMetrics(path string, snap telemetry.Snapshot) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := telemetry.WritePrometheus(f, snap); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Println("telemetry:")
	return telemetry.WriteSummary(os.Stdout, snap)
}

// writeReduced reduces the bug-triggering script (keeping the same
// defect firing with the same misbehaviour) and writes it out. The
// reduction solver is the campaign's solver under test: the same
// release, injected defects and fuel limit, so the witness trips the
// defects it tripped in the campaign and a Performance finding's
// timeout signature survives shrinking.
func writeReduced(dir string, b harness.Bug, cc harness.CampaignConfig) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "outdir:", err)
		return
	}
	defects, err := cc.SUTDefects()
	if err != nil {
		fmt.Fprintln(os.Stderr, "reduce:", err)
		return
	}
	sut := solver.New(solver.Config{Defects: defects, Fuel: cc.Fuel})
	ref := solver.NewReference()
	interesting := func(c *smtlib.Script) bool {
		// Keep the wrongness: a soundness shrink must still be decided
		// the other way by the reference.
		oracle := core.StatusUnknown
		if b.Symptom == bugdb.Soundness {
			oracle = harness.OracleOf(ref.SolveScript(c).Result)
		}
		return b.ReproducedBy(harness.RunSolver(sut, c), c, oracle)
	}
	script := b.Script
	if interesting(script) {
		script = reduce.Reduce(script, interesting, reduce.Options{MaxChecks: 400})
	}
	name := filepath.Join(dir, fmt.Sprintf("%s.smt2", b.Defect))
	if err := os.WriteFile(name, []byte(smtlib.Print(script)), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "write:", err)
	}
}
