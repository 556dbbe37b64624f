package harness

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"

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
// campaigns. Schema 3 renders every line from the task's record and
// adds the two record facts schema 2 left out: model_check and
// variant_defects_fired. Any schema bump is a hard break for readers,
// so the version is bumped rather than silently extended.
const TraceSchema = 3

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

	// Schema 3. ModelCheck is the model-validation oracle's diagnostic
	// for a sat verdict whose model does not satisfy the test;
	// VariantDefectsFired lists the defects the metamorphic variant's
	// solve fired.
	ModelCheck          string   `json:"model_check,omitempty"`
	VariantDefectsFired []string `json:"variant_defects_fired,omitempty"`
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

// traceLine renders one record as its trace line: the campaign
// coordinates from the config, the task-local facts from the record,
// and the fold's per-task flags.
func traceLine(cfg *campaign, rec *taskRecord, fl taskFlags) TraceRecord {
	tl := TraceRecord{
		Schema:       TraceSchema,
		CampaignSeed: cfg.Seed,
		Logic:        cfg.Logics[int(rec.Task)/cfg.Iterations],
		Iteration:    int(rec.Task) % cfg.Iterations,
		Iterations:   cfg.Iterations,
		SeedPool:     cfg.SeedPool,
		ConcatOnly:   cfg.ConcatOnly,
		Fuel:         cfg.Fuel,
		CampaignMode: cfg.Mode,
		SUT:          cfg.SUT,
		Release:      cfg.Release,
		Task:         int(rec.Task),
		Status:       statusNames[rec.Status],
		FuelSpent:    rec.Counters.Counter(solver.FuelSpentCounter),
		Counters:     rec.Counters.Map(),
		Finding:      fl.finding,
		Duplicate:    fl.duplicate,
	}
	run := rec.Facts
	switch rec.Status {
	case statusInvalid, statusSkipped:
		return tl
	case statusWallTimeout:
		tl.Status, tl.Observed = "quarantined", "wall-timeout"
	case statusFault, statusVariantFault:
		tl.Status, tl.Observed = "quarantined", "internal-fault"
	default:
		tl.Observed = sutLabel(run.Observed, run.Crashed)
	}
	tl.Reason = run.Reason
	tl.ModelCheck = run.ModelFail
	tl.Oracle = rec.Oracle.String()
	tl.Mode = "mutation"
	if !cfg.mutation() {
		tl.Mode = rec.Mode.String()
	}
	tl.DefectsFired = defectNames(run.Fired)
	tl.Backends = verdictMap(cfg, run.Backends)
	if cfg.Oracle != OracleKnown {
		tl.OraclePolicy = cfg.Oracle
		tl.Consensus = fl.consensus
		if v := run.Variant; v != nil && !v.Skip {
			tl.MetaRelation = v.Relation.String()
			tl.VariantObserved = sutLabel(v.Observed, v.Crashed)
			tl.VariantBackends = verdictMap(cfg, v.Backends)
			tl.VariantDefectsFired = defectNames(v.Fired)
		}
	}
	return tl
}

func defectNames(ds []solver.Defect) []string {
	var out []string
	for _, d := range ds {
		out = append(out, string(d))
	}
	return out
}

// verdictMap maps each backend's name to its verdict (nil when none).
func verdictMap(cfg *campaign, bks []backendRun) map[string]string {
	if len(bks) == 0 {
		return nil
	}
	m := make(map[string]string, len(bks))
	for i, o := range bks {
		m[cfg.specs[i].Name] = o.Verdict.String()
	}
	return m
}
