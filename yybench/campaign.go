package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"runtime"
	"slices"

	"repro/internal/backend"
	"repro/internal/gen"
	"repro/internal/harness"
	"repro/internal/telemetry"
)

// campaignWorkload runs a fixed catalogue of campaigns through
// harness.Start, in an order drawn from the seed, round after round
// while the next case fits in the time budget. It reports per-case
// medians of times scaled to the reference host, so the end-to-end
// metrics describe one pass of the catalogue.
type campaignWorkload struct {
	cases []harness.CampaignConfig
	// probe, when set, names the process backend the traced run times
	// directly on probeScripts generated scripts.
	probe *harness.ProcessBackendConfig
}

// minRounds is the number of rounds an untraced run always makes, and
// the work over which it reads peak_rss_mb. The peak must cover a fixed
// amount of work, because how many rounds fit in the budget depends on
// the host's speed and every round can raise it; and the work must be
// more than one round, because the peak depends on which heavy tasks
// the two workers happen to run at once, and its maximum over more
// executions varies less from run to run.
const minRounds = 2

// probeScripts is the sample size of the backend latency probe: enough
// for a 97.5th percentile with minBeyond samples beyond it.
const probeScripts = 400

// execution is one harness.Start of one case.
type execution struct {
	setup, wall    float64 // s; setup = Start to the first Progress call
	cpu, childCPU  float64 // s, this process and its reaped children
	scale          float64 // converts the times above to reference-host seconds
	mallocs        float64
	gcCycles       float64
	allocMB        float64
	res            *harness.Result
	env            *harness.Envelope
	snap           telemetry.Snapshot
	traceLines     int
	progress       int // Progress calls
	done, total    int // last Progress arguments
	fingerprintSum [sha256.Size]byte
}

// caseRuns collects the executions of one catalogue case.
type caseRuns struct {
	untraced, traced []execution
}

func (w campaignWorkload) run(rc runConfig) (*outcome, error) {
	o := newOutcome()
	var probe []float64
	if rc.trace && w.probe != nil {
		var err error
		if probe, err = probeBackend(*w.probe, rc.seed, o); err != nil {
			return nil, err
		}
	}

	n := len(w.cases)
	order := rand.New(rand.NewSource(rc.seed)).Perm(n)
	runs := make([]caseRuns, n)
	took := make([]float64, n) // s, the latest execution of each case with its reference sample
	var peakRSS float64        // MB, after the minimum rounds
	prof := newCPUProfile()
	// The run visits the cases in order, round after round: minRounds
	// rounds (a traced run: one untraced, then one traced), and then each
	// next case while it fits in the budget.
	minimum := minRounds * n
	if rc.trace {
		minimum = 2 * n
	}
	if err := rc.ref.mark(); err != nil {
		return nil, err
	}
	start := now()
	for k := 0; ; k++ {
		i := order[k%n]
		if k >= minimum && seconds(start)+took[i] > rc.seconds {
			break
		}
		stepStart := now()
		traced := rc.trace && (k/n)%2 == 1
		ex, err := execute(w.cases[i], traced, prof)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", caseLabel(w.cases[i]), err)
		}
		if ex.scale, err = rc.ref.scale(); err != nil {
			return nil, err
		}
		took[i] = seconds(stepStart)
		if k == minimum-1 {
			peakRSS = float64(readUsage().maxRSSKiB) / 1024
		}
		w.check(i, ex, runs[i], traced, o)
		if traced {
			runs[i].traced = append(runs[i].traced, ex)
		} else {
			runs[i].untraced = append(runs[i].untraced, ex)
		}
	}

	for i, r := range runs {
		first := r.untraced[0]
		if err := roundTrip(first); err != nil {
			o.problemf("%s: %v", caseLabel(w.cases[i]), err)
		}
		fmt.Fprintf(rc.log, "case %-16s runs %d  wall %6.3f s (reference-host %6.3f s)  setup %6.3f s  tests %6d  bugs %3d  backend findings %3d  wrong verdicts %d  fingerprint sha256:%x\n",
			caseLabel(w.cases[i]), len(r.untraced), medianOf(r.untraced, func(e execution) float64 { return e.wall }),
			medianOf(r.untraced, func(e execution) float64 { return e.wall * e.scale }),
			medianOf(r.untraced, func(e execution) float64 { return e.setup }),
			first.res.Tests, len(first.res.Bugs), len(first.res.BackendFindings),
			first.res.ReferenceDisagreements, first.fingerprintSum)
	}
	w.summary(runs, rc, o)
	if rc.trace {
		w.layers(runs, prof, probe, o)
	} else {
		w.endToEnd(runs, o)
		o.values["peak_rss_mb"] = peakRSS
	}
	return o, nil
}

// execute runs one case. A traced execution attaches the campaign's
// telemetry tracker and a JSONL trace writer, and records prof.
func execute(cc harness.CampaignConfig, traced bool, prof *cpuProfile) (ex execution, err error) {
	var lines lineCounter
	opt := harness.RunOptions{}
	if traced {
		opt.Telemetry = telemetry.NewTracker()
		opt.Trace = &lines
		if err := prof.start(); err != nil {
			return ex, err
		}
		defer func() {
			if perr := prof.stop(); err == nil {
				err = perr
			}
		}()
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs, numGC, totalAlloc := ms.Mallocs, ms.NumGC, ms.TotalAlloc
	u0 := readUsage()
	start := now()
	opt.Progress = func(done, total int) {
		if ex.progress == 0 {
			ex.setup = seconds(start)
		}
		ex.progress++
		ex.done, ex.total = done, total
	}
	out, err := harness.Start(cc, opt)
	ex.wall = seconds(start)
	u1 := readUsage()
	runtime.ReadMemStats(&ms)
	if err != nil {
		return ex, err
	}
	if out.Paused || out.Envelope == nil {
		return ex, fmt.Errorf("campaign paused without a stop request")
	}
	ex.cpu = u1.self - u0.self + u1.children - u0.children
	ex.childCPU = u1.children - u0.children
	ex.mallocs = float64(ms.Mallocs - mallocs)
	ex.gcCycles = float64(ms.NumGC - numGC)
	ex.allocMB = float64(ms.TotalAlloc-totalAlloc) / (1 << 20)
	ex.res, ex.env, ex.snap = out.Result, out.Envelope, out.Telemetry
	ex.traceLines = lines.n
	ex.fingerprintSum = sha256.Sum256(out.Result.Fingerprint())
	return ex, nil
}

// check verifies one execution: every task was classified exactly once
// and accounted for, and the result is byte-identical to the case's
// earlier executions, traced or not.
func (w campaignWorkload) check(i int, ex execution, prior caseRuns, traced bool, o *outcome) {
	cc := w.cases[i]
	label := caseLabel(cc)
	tasks := len(cc.Logics) * cc.Iterations
	res := ex.res
	o.attempted += tasks
	o.failed += res.InvalidInputs + res.Quarantined
	if ex.progress != tasks || ex.done != tasks || ex.total != tasks {
		o.problemf("%s: %d progress calls ending at %d/%d, want %d tasks", label, ex.progress, ex.done, ex.total, tasks)
	}
	accounted := res.Tests + res.InvalidInputs + res.Quarantined
	if traced {
		// Only a traced run sees skips (tasks with no applicable
		// derivation), through the funnel counters.
		accounted += int(ex.snap.Counter("yy_funnel_skipped_total"))
		if ex.traceLines != tasks {
			o.problemf("%s: trace has %d records for %d tasks", label, ex.traceLines, tasks)
		}
		if got := ex.snap.Counter("yy_funnel_solved_total"); got != int64(res.Tests) {
			o.problemf("%s: funnel counts %d solved tests, result %d", label, got, res.Tests)
		}
	}
	if accounted > tasks || (traced && accounted != tasks) {
		o.problemf("%s: %d tests + %d invalid + %d quarantined (+ skipped) for %d tasks",
			label, res.Tests, res.InvalidInputs, res.Quarantined, tasks)
	}
	for _, prev := range slices.Concat(prior.untraced, prior.traced) {
		if prev.fingerprintSum != ex.fingerprintSum {
			o.problemf("%s: result fingerprint changed between executions", label)
			break
		}
	}
}

// roundTrip checks the campaign's durable form: its envelope must
// encode, decode and merge back to the same result.
func roundTrip(ex execution) error {
	data, err := harness.EncodeEnvelope(ex.env)
	if err != nil {
		return err
	}
	env, err := harness.DecodeEnvelope(data)
	if err != nil {
		return err
	}
	m, err := harness.Merge([]*harness.Envelope{env}, "")
	if err != nil {
		return err
	}
	if !bytes.Equal(m.Result.Fingerprint(), ex.res.Fingerprint()) {
		return fmt.Errorf("merged envelope fingerprint differs from the result's")
	}
	return nil
}

// summary prints the result-plane totals of one pass: what a perf change
// must leave unchanged.
func (w campaignWorkload) summary(runs []caseRuns, rc runConfig, o *outcome) {
	var bugs, wrong, failed, tasks int
	for i, r := range runs {
		res := r.untraced[0].res
		bugs += len(res.Bugs) + len(res.BackendFindings)
		wrong += res.ReferenceDisagreements
		failed += res.InvalidInputs + res.Quarantined
		tasks += len(w.cases[i].Logics) * w.cases[i].Iterations
	}
	o.bugs, o.wrong = bugs, wrong
	fmt.Fprintf(rc.log, "per pass: bugs_found %d  wrong_verdicts %d  error_rate %g (%d of %d tasks)\n",
		bugs, wrong, ratio(float64(failed), float64(tasks)), failed, tasks)
}

func (w campaignWorkload) endToEnd(runs []caseRuns, o *outcome) {
	var setup, wall, test, cpu, mallocs, tests float64
	for _, r := range runs {
		setup += medianOf(r.untraced, func(e execution) float64 { return e.setup * e.scale })
		wall += medianOf(r.untraced, func(e execution) float64 { return e.wall * e.scale })
		test += medianOf(r.untraced, func(e execution) float64 { return (e.wall - e.setup) * e.scale })
		cpu += medianOf(r.untraced, func(e execution) float64 { return e.cpu * e.scale })
		mallocs += medianOf(r.untraced, func(e execution) float64 { return e.mallocs })
		tests += float64(r.untraced[0].res.Tests)
	}
	o.values["setup_s"] = setup
	o.values["wall_s"] = wall
	o.values["tests_per_s"] = ratio(tests, test)
	o.values["cpu_s"] = cpu
	o.values["allocs_per_test"] = ratio(mallocs, tests)
}

func (w campaignWorkload) layers(runs []caseRuns, prof *cpuProfile, probe []float64, o *outcome) {
	var snap telemetry.Snapshot
	var childCPU, gcCycles, allocMB, envBytes float64
	var untracedWall, tracedWall, cpu, threads float64
	for i, r := range runs {
		first := r.traced[0]
		snap.Accumulate(first.snap)
		childCPU += first.childCPU
		gcCycles += first.gcCycles
		allocMB += first.allocMB
		if data, err := harness.EncodeEnvelope(first.env); err == nil {
			envBytes += float64(len(data))
		}
		wall := medianOf(r.untraced, func(e execution) float64 { return e.wall })
		untracedWall += medianOf(r.untraced, func(e execution) float64 { return e.wall * e.scale })
		tracedWall += medianOf(r.traced, func(e execution) float64 { return e.wall * e.scale })
		cpu += medianOf(r.untraced, func(e execution) float64 { return e.cpu })
		threads += wall * float64(max(1, w.cases[i].Threads))
	}
	setTelemetryLayers(o, snap)
	setShares(o, prof)
	o.values["runtime.gc_cycles"] = gcCycles
	o.values["runtime.alloc_mb"] = allocMB
	o.values["backend.child_cpu_s"] = childCPU
	// Workloads without a process backend have no probe and report 0.
	o.values["backend.check_p50_ms"], _ = percentile(probe, 50)
	p975, ok := percentile(probe, 97.5)
	if len(probe) > 0 && !ok {
		o.problemf("backend probe: %d samples are too few for a 97.5th percentile", len(probe))
	}
	o.values["backend.check_p97.5_ms"] = p975
	o.values["harness.parallel_efficiency"] = ratio(cpu, threads)
	o.values["harness.envelope_bytes"] = envBytes
	o.values["harness.checkpoint_bytes"] = 0
	for _, name := range []string{"service.submit_http_p50_ms", "service.inspect_http_p50_ms",
		"service.resume_http_p50_ms", "service.straight_p50_ms", "service.paused_p50_ms",
		"service.submit_p50_ms", "service.submit_p97.5_ms", "service.jobs_per_s"} {
		o.values[name] = 0
	}
	o.values["trace.overhead"] = ratio(tracedWall, untracedWall) - 1
}

// probeBackend times ProcessBackend.Check of the configured binary on
// generated scripts, one at a time, and returns the latencies in ms.
func probeBackend(cfg harness.ProcessBackendConfig, seed int64, o *outcome) ([]float64, error) {
	b := backend.NewProcess(backend.ProcessConfig{Name: cfg.Name, Path: cfg.Path, Args: cfg.Args})
	lat := make([]float64, 0, probeScripts)
	for i := 0; i < probeScripts; i++ {
		logic := gen.AllLogics[i%len(gen.AllLogics)]
		g, err := gen.New(logic, seed+int64(i))
		if err != nil {
			return nil, err
		}
		sc := g.Sat().Script
		start := now()
		out := b.Check(sc)
		lat = append(lat, seconds(start)*1000)
		if out.Verdict != backend.Sat {
			o.problemf("backend probe: %s answered %s (%s) on script %d, want sat", cfg.Name, out.Verdict, out.Reason, i)
		}
	}
	return lat, nil
}

// setTelemetryLayers fills the count and ratio metrics read from the
// campaign telemetry.
func setTelemetryLayers(o *outcome, snap telemetry.Snapshot) {
	for name, counter := range telemetryCounts {
		o.values[name] = float64(snap.Counter(counter))
	}
	for name, r := range telemetryRatios {
		num := float64(snap.Counter(r.num))
		den := float64(snap.Counter(r.over))
		if r.plus != "" {
			den = num + float64(snap.Counter(r.plus))
		}
		o.values[name] = ratio(num, den)
	}
	o.values["harness.bugs_found"] = float64(o.bugs)
	o.values["harness.wrong_verdicts"] = float64(o.wrong)
}

func setShares(o *outcome, prof *cpuProfile) {
	for bucket, share := range prof.shares() {
		name := bucket + ".cpu_share"
		if bucket == gcLayer {
			name = "runtime.gc_cpu_share"
		}
		o.values[name] = share
	}
}

// medianOf is the median of f over a case's executions.
func medianOf(xs []execution, f func(execution) float64) float64 {
	vals := make([]float64, len(xs))
	for i, x := range xs {
		vals[i] = f(x)
	}
	return median(vals)
}

func caseLabel(cc harness.CampaignConfig) string {
	return fmt.Sprintf("%s seed %d", cc.SUT, cc.Seed)
}

// lineCounter is the traced run's JSONL trace sink: it keeps the record
// count, not the bytes.
type lineCounter struct{ n int }

func (c *lineCounter) Write(p []byte) (int, error) {
	c.n += bytes.Count(p, []byte{'\n'})
	return len(p), nil
}
