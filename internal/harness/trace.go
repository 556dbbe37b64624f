package harness

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"repro/internal/solver"
	"repro/internal/telemetry"
)

// Campaign funnel metrics. Every stage a task (or corpus slot) passes
// through is counted, so the funnel reads top to bottom: seeds are
// generated and vetted into the corpus; each task either derives a test
// (fusion or mutation), is rejected by the static gate (invalid), or
// has no applicable derivation (skipped); derived tests are either
// quarantined (watchdog cut-off, internal fault) or solved; solved
// tests with a definite verdict are oracle-checked; oracle mismatches
// and crashes become findings or duplicates. All increments happen in
// the in-order classification stage, each next to the Result field it
// mirrors, so totals equal the Result counts and are bit-identical for
// any thread count.
var (
	cfSeedGenerated = telemetry.NewCounter("yy_funnel_seed_generated_total", "seed scripts generated while building the corpus")
	cfSeedVetted    = telemetry.NewCounter("yy_funnel_seed_vetted_total", "corpus slots filled with a vetted seed")
	cfDerived       = telemetry.NewCounter("yy_funnel_derived_total", "tasks that derived a test script (fusion or mutation)")
	cfInvalid       = telemetry.NewCounter("yy_funnel_invalid_total", "tasks whose derivation was rejected by the static gate")
	cfSkipped       = telemetry.NewCounter("yy_funnel_skipped_total", "tasks with no applicable derivation")
	cfSolved        = telemetry.NewCounter("yy_funnel_solved_total", "derived tests classified after a completed solver run")
	cfOracleChecked = telemetry.NewCounter("yy_funnel_oracle_checked_total", "solved tests whose verdict was compared against the oracle")
	cfFindings      = telemetry.NewCounter("yy_funnel_findings_total", "deduplicated bugs recorded")
	cfDuplicates    = telemetry.NewCounter("yy_funnel_duplicates_total", "additional triggers of already-found defects")
	cfTimeouts      = telemetry.NewCounter("yy_funnel_timeouts_total", "solves halted by fuel exhaustion")
	cfUnknowns      = telemetry.NewCounter("yy_funnel_unknowns_total", "solves that returned unknown")
	cfQuarantined   = telemetry.NewCounter("yy_funnel_quarantined_total", "tasks withdrawn from classification")
	cfRefDisagree   = telemetry.NewCounter("yy_funnel_reference_disagreements_total", "oracle mismatches with no defect fired")

	hTaskFuel = telemetry.NewHistogram("yy_task_fuel_spent", "fuel steps consumed per solved task",
		telemetry.ExpBuckets(1000, 10, 6))
)

// TraceSchema versions the JSONL trace record layout. Schema 2 added
// the consensus-oracle fields (oracle_policy, consensus, meta_relation,
// variant_observed, variant_backends), all omitted on known-policy
// campaigns — but any schema bump is a hard break for readers, so the
// version is bumped rather than silently extended.
const TraceSchema = 2

// TraceRecord is one line of the campaign's JSONL event trace: the
// task's RNG coordinates (campaign seed, logic, iteration — the triple
// a reproducer manifest records — plus the campaign shape, so a record
// locates its task without the config), its classification, and its
// step-based effort. Records are emitted from the in-order
// classification stage, so the byte stream is identical for any thread
// count.
type TraceRecord struct {
	Schema int `json:"schema"`

	// RNG coordinates and campaign shape.
	CampaignSeed int64  `json:"campaign_seed"`
	Logic        string `json:"logic"`
	Iteration    int    `json:"iteration"`
	Iterations   int    `json:"iterations"`
	SeedPool     int    `json:"seed_pool"`
	ConcatOnly   bool   `json:"concat_only,omitempty"`
	Fuel         int64  `json:"fuel"`
	CampaignMode string `json:"campaign_mode"`
	SUT          string `json:"sut"`
	Release      string `json:"release"`

	// Task is the global task index (logic-major, then iteration).
	Task int `json:"task"`

	// Status is the funnel stage the task ended in: "invalid",
	// "skipped", "quarantined", or "tested".
	Status string `json:"status"`

	// Verdicts of tested tasks. Observed is the SUT's verdict ("crash"
	// when the run panicked); Oracle is the constructed expectation;
	// Finding/Duplicate mark tasks that triggered a defect.
	Oracle       string   `json:"oracle,omitempty"`
	Mode         string   `json:"mode,omitempty"`
	Observed     string   `json:"observed,omitempty"`
	Reason       string   `json:"reason,omitempty"`
	DefectsFired []string `json:"defects_fired,omitempty"`
	Finding      bool     `json:"finding,omitempty"`
	Duplicate    bool     `json:"duplicate,omitempty"`

	// FuelSpent is the solve's step consumption; Counters carries the
	// task's per-phase counter deltas (CDCL conflicts, simplex pivots,
	// DFS nodes, …). encoding/json renders map keys sorted, so equal
	// deltas render to identical bytes.
	FuelSpent int64            `json:"fuel_spent"`
	Counters  map[string]int64 `json:"counters,omitempty"`

	// Backends maps each cross-check backend's name to its classified
	// verdict for this task (tested tasks with backends only). Map keys
	// render sorted, so the byte stream stays deterministic.
	Backends map[string]string `json:"backends,omitempty"`

	// Consensus-oracle fields (schema 2; non-known policies only).
	// OraclePolicy names the active policy; Consensus is the majority
	// vote's outcome for this task ("sat", "unsat", or "abstained");
	// MetaRelation/VariantObserved/VariantBackends describe the
	// metamorphic pair when one was derived.
	OraclePolicy    string            `json:"oracle_policy,omitempty"`
	Consensus       string            `json:"consensus,omitempty"`
	MetaRelation    string            `json:"meta_relation,omitempty"`
	VariantObserved string            `json:"variant_observed,omitempty"`
	VariantBackends map[string]string `json:"variant_backends,omitempty"`
}

// ReadTrace parses a JSONL trace file written via RunOptions.Trace.
func ReadTrace(path string) ([]TraceRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return DecodeTrace(f)
}

// DecodeTrace parses JSONL trace records from a reader.
func DecodeTrace(r io.Reader) ([]TraceRecord, error) {
	var out []TraceRecord
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var rec TraceRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			return nil, fmt.Errorf("harness: trace line %d: %w", len(out)+1, err)
		}
		if rec.Schema != TraceSchema {
			return nil, fmt.Errorf("harness: unsupported trace schema %d", rec.Schema)
		}
		out = append(out, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// recorder aggregates campaign telemetry and emits the JSONL trace.
// It is only ever called from the in-order classification stage; a
// recorder with a nil tracker and nil writer no-ops everywhere.
type recorder struct {
	tr *telemetry.Tracker
	jw *telemetry.JSONLWriter
	// suppressVet drops corpus-vetting telemetry: set on resume legs and
	// non-zero shards, which rebuild the corpus deterministically but
	// must not re-count seed generation (see runControls.suppressVet).
	suppressVet bool
}

// active reports whether per-task deltas need collecting at all.
func (rc *recorder) active() bool { return rc.tr != nil || rc.jw != nil }

// flush pushes buffered trace records to the underlying writer so a
// live reader (the campaign service's trace endpoint) sees every record
// up to the current classification frontier.
func (rc *recorder) flush() { rc.jw.Flush() }

// vetted folds the corpus-building telemetry in, in job order: per-slot
// generation tries and per-slot engine-counter deltas.
func (rc *recorder) vetted(tries []int, deltas []telemetry.Snapshot) {
	if rc.tr == nil || rc.suppressVet {
		return
	}
	for j := range tries {
		rc.tr.Merge(deltas[j])
		rc.tr.Add(cfSeedGenerated, int64(tries[j]))
		rc.tr.Inc(cfSeedVetted)
	}
}

// task records one classified task: the worker's engine-counter delta
// and the trace record. The funnel counters were already incremented by
// the classification itself, next to the Result fields they mirror.
func (rc *recorder) task(cfg *campaign, out taskOutcome) {
	rc.tr.Merge(out.delta)
	if rc.jw == nil {
		return
	}
	logicIdx, iter := out.id/cfg.Iterations, out.id%cfg.Iterations
	rec := TraceRecord{
		Schema:       TraceSchema,
		CampaignSeed: cfg.Seed,
		Logic:        cfg.Logics[logicIdx],
		Iteration:    iter,
		Iterations:   cfg.Iterations,
		SeedPool:     cfg.SeedPool,
		ConcatOnly:   cfg.ConcatOnly,
		Fuel:         cfg.Fuel,
		CampaignMode: cfg.Mode,
		SUT:          cfg.SUT,
		Release:      cfg.Release,
		Task:         out.id,
		FuelSpent:    out.delta.Counter(solver.MetricSolveFuelSpent),
		Finding:      out.finding,
		Duplicate:    out.duplicate,
	}
	if len(out.delta.Counters) > 0 {
		rec.Counters = out.delta.Counters
	}
	switch {
	case out.invalid:
		rec.Status = "invalid"
	case !out.tested:
		rec.Status = "skipped"
	case out.quarantined():
		rec.Status = "quarantined"
		switch {
		case out.wallTimeout:
			rec.Observed = "wall-timeout"
		case out.run.InternalFault:
			rec.Observed = "internal-fault"
			rec.Reason = out.run.FaultMsg
		default:
			rec.Observed = "internal-fault"
			rec.Reason = out.variantRun.FaultMsg
		}
	default:
		rec.Status = "tested"
		rec.Observed = out.run.Result.String()
		rec.Reason = out.run.Reason
		if out.run.Crashed {
			rec.Observed = "crash"
			rec.Reason = out.run.CrashMsg
		}
	}
	if out.tested {
		rec.Oracle = out.oracle().String()
		if out.mutant != nil {
			rec.Mode = "mutation"
		} else {
			rec.Mode = out.fused.Mode.String()
		}
		for _, d := range out.run.DefectsFired {
			rec.DefectsFired = append(rec.DefectsFired, string(d))
		}
		if len(out.backendRuns) > 0 {
			rec.Backends = make(map[string]string, len(out.backendRuns))
			for i, o := range out.backendRuns {
				rec.Backends[cfg.specs[i].Name] = o.Verdict.String()
			}
		}
		if cfg.Oracle != OracleKnown {
			rec.OraclePolicy = cfg.Oracle
			rec.Consensus = out.consensus
			if out.variant != nil {
				rec.MetaRelation = out.variant.Rel.String()
				vLabel, _, _ := sutStatus(out.variantRun)
				rec.VariantObserved = vLabel
				if len(out.variantBackends) > 0 {
					rec.VariantBackends = make(map[string]string, len(out.variantBackends))
					for i, o := range out.variantBackends {
						rec.VariantBackends[cfg.specs[i].Name] = o.Verdict.String()
					}
				}
			}
		}
	}
	rc.jw.Emit(rec)
}
