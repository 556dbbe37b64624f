package harness

import (
	"encoding/json"
	"fmt"

	"repro/internal/ast"
	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/mutate"
	"repro/internal/smtlib"
	"repro/internal/solver"
	"repro/internal/telemetry"
)

// taskStatus is where a task left the funnel.
type taskStatus uint8

const (
	statusTested  taskStatus = iota
	statusInvalid            // the static gate rejected the derivation
	statusSkipped            // no derivation applied
	// The quarantined statuses: the task was withdrawn because the
	// wall-clock watchdog abandoned a solve, or because our own solver
	// panicked on the primary or on the metamorphic variant's solve.
	statusWallTimeout
	statusFault
	statusVariantFault
)

var statusNames = [...]string{"tested", "invalid", "skipped", "wall-timeout", "fault", "variant-fault"}

func (s taskStatus) quarantined() bool { return s >= statusWallTimeout }

func (s taskStatus) MarshalText() ([]byte, error) {
	if int(s) >= len(statusNames) {
		return nil, fmt.Errorf("task status %d out of range", s)
	}
	return []byte(statusNames[s]), nil
}

func (s *taskStatus) UnmarshalText(b []byte) error {
	for i, n := range statusNames {
		if string(b) == n {
			*s = taskStatus(i)
			return nil
		}
	}
	return fmt.Errorf("unknown task status %q", b)
}

// taskRecord is the single source of truth of the result plane: every
// task-local fact the classification fold (runState.fold) reads, and
// nothing it derives. A campaign keeps one per task, so a record stays
// small: campaign coordinates come from the config, and records with
// equal plain facts share them.
type taskRecord struct {
	Task   int32      `json:"task"`
	Status taskStatus `json:"status"`
	// Oracle is the constructed expectation; Mode the fusion mode
	// (fusion campaigns only).
	Oracle core.Status `json:"oracle,omitempty"`
	Mode   core.Mode   `json:"mode,omitempty"`
	// Facts describes the solves of a tested or quarantined task (nil
	// on the others). It may be shared (runState.apply): never write it.
	Facts *taskFacts `json:"facts,omitempty"`
	// Counters holds the task's engine-counter increments.
	Counters telemetry.Delta `json:"counters,omitempty"`
}

// taskFacts is what a task's solves observed.
type taskFacts struct {
	// The SUT's run: its verdict, whether it crashed, its reason (the
	// run's reason, its crash message, or on a quarantined task the
	// fault message), and the defects it fired.
	Observed solver.Result   `json:"observed,omitempty"`
	Crashed  bool            `json:"crashed,omitempty"`
	Reason   string          `json:"reason,omitempty"`
	Fired    []solver.Defect `json:"fired,omitempty"`
	// ModelFail is the model-validation oracle's diagnostic for a sat
	// verdict whose witness does not satisfy the test ("" = valid or
	// not checked).
	ModelFail string `json:"model_fail,omitempty"`
	// Backends holds one cross-check output per configured backend
	// (none when the task was not cross-checked).
	Backends []backendRun   `json:"backends,omitempty"`
	Variant  *variantRecord `json:"variant,omitempty"`
	// Witness is set on the task that recorded a new bug, and only
	// there: it carries what the Bug needs beyond the record.
	Witness *witness `json:"witness,omitempty"`
}

// plainFacts keys the sharing of facts between records: it identifies
// facts that hold nothing beyond the SUT's run.
type plainFacts struct {
	observed solver.Result
	crashed  bool
	reason   string
	fired    string // the fired defects, NUL-separated
}

// plain returns the facts' sharing key, and whether the facts are
// plain enough to share.
func (f *taskFacts) plain() (plainFacts, bool) {
	if f.ModelFail != "" || f.Backends != nil || f.Variant != nil || f.Witness != nil {
		return plainFacts{}, false
	}
	p := plainFacts{observed: f.Observed, crashed: f.Crashed, reason: f.Reason}
	for i, d := range f.Fired {
		if i > 0 {
			p.fired += "\x00"
		}
		p.fired += string(d)
	}
	return p, true
}

// backendRun is one cross-check backend's output, as classified.
type backendRun struct {
	Verdict  backend.Verdict `json:"verdict"`
	Reason   string          `json:"reason,omitempty"`
	ExitCode int             `json:"exit_code,omitempty"`
	Stderr   string          `json:"stderr,omitempty"`
	Retries  int             `json:"retries,omitempty"`
}

// variantRecord is the metamorphic leg of an unknown-status task: the
// skip when no relation-preserving variant could be derived, otherwise
// the relation and the variant's SUT and backend outputs.
type variantRecord struct {
	Skip     bool            `json:"skip,omitempty"`
	Relation mutate.Relation `json:"relation,omitempty"`
	Observed solver.Result   `json:"observed,omitempty"`
	Crashed  bool            `json:"crashed,omitempty"`
	Fired    []solver.Defect `json:"fired,omitempty"`
	Backends []backendRun    `json:"backends,omitempty"`
}

// witness is what a Bug needs beyond its record: the test script, the
// two seeds it was derived from, and its mutation rules. In memory it
// shares the parsed scripts with the Bug; in a document the scripts
// are printed, and decoding parses them back.
type witness struct {
	script *smtlib.Script
	seeds  [2]*core.Seed
	rules  []string
}

// witnessDoc is a witness's document form.
type witnessDoc struct {
	Script string       `json:"script"`
	Seeds  [2]savedSeed `json:"seeds"`
	Rules  []string     `json:"rules,omitempty"`
}

// savedSeed serializes one bug ancestor. The witness model of sat seeds
// is intentionally dropped: it is consumed during fusion (which never
// re-runs for an already-recorded bug), not by anything downstream of
// classification.
type savedSeed struct {
	Script string      `json:"script"`
	Status core.Status `json:"status"`
}

func (w *witness) MarshalJSON() ([]byte, error) {
	if w.script == nil || w.seeds[0] == nil || w.seeds[1] == nil {
		return nil, fmt.Errorf("incomplete witness")
	}
	doc := witnessDoc{Script: smtlib.Print(w.script), Rules: w.rules}
	for i, s := range w.seeds {
		doc.Seeds[i] = savedSeed{Script: smtlib.Print(s.Script), Status: s.Status}
	}
	return json.Marshal(doc)
}

// UnmarshalJSON decodes strictly (unknown fields fail, as everywhere
// in a document) and parses the scripts: a witness that decodes is one
// the fold can use.
func (w *witness) UnmarshalJSON(data []byte) error {
	var doc witnessDoc
	if err := decodeStrict(data, &doc); err != nil {
		return fmt.Errorf("witness: %v", err)
	}
	// The test and its ancestors share one table of the witness's own.
	tb := ast.NewTable(nil)
	script, err := smtlib.ParseScriptIn(tb, doc.Script)
	if err != nil {
		return fmt.Errorf("witness script: %v", err)
	}
	*w = witness{script: script, rules: doc.Rules}
	for i, s := range doc.Seeds {
		if s.Status != core.StatusSat && s.Status != core.StatusUnsat {
			return fmt.Errorf("witness seed %d: status %d out of range", i, s.Status)
		}
		sc, err := smtlib.ParseScriptIn(tb, s.Script)
		if err != nil {
			return fmt.Errorf("witness seed %d: %v", i, err)
		}
		w.seeds[i] = &core.Seed{Script: sc, Status: s.Status}
	}
	return nil
}

// validateRecords checks a document's records against its defaulted
// config: exactly one record per task id up to the frontier, in this
// shard's ascending task order, every field in range, and one backend
// output per configured backend. Witnesses are checked by the replay
// that completes a document's validation (docBody.validate). What the
// fold derives from records (tallies, dedup, findings, flags) is never
// stored, so it needs no checking.
func validateRecords(d CampaignConfig, recs []taskRecord) error {
	n, first, step := d.shardSpan()
	if len(recs) > n {
		return fmt.Errorf("%d records, shard %d/%d owns %d tasks", len(recs), d.Shard, d.Shards, n)
	}
	nb := len(d.Backends)
	for i := range recs {
		r := &recs[i]
		if want := first + i*step; int(r.Task) != want {
			return fmt.Errorf("record %d is task %d, want %d", i, r.Task, want)
		}
		if err := r.validate(nb); err != nil {
			return fmt.Errorf("record %d (task %d): %v", i, r.Task, err)
		}
	}
	return nil
}

func (r *taskRecord) validate(nb int) error {
	if int(r.Status) >= len(statusNames) {
		return fmt.Errorf("status %d out of range", r.Status)
	}
	if r.Oracle < core.StatusSat || r.Oracle > core.StatusUnknown {
		return fmt.Errorf("oracle %d out of range", r.Oracle)
	}
	if r.Mode < core.ModeSatConj || r.Mode > core.ModeMixedUnsatConj {
		return fmt.Errorf("fusion mode %d out of range", r.Mode)
	}
	// Only tested and quarantined tasks ran the SUT.
	f := r.Facts
	if ran := r.Status != statusInvalid && r.Status != statusSkipped; ran != (f != nil) {
		return fmt.Errorf("%s task with facts %v", statusNames[r.Status], f != nil)
	}
	if f == nil {
		return nil
	}
	if f.ModelFail != "" && (r.Status != statusTested || f.Observed != solver.ResSat) {
		return fmt.Errorf("model-check failure on a task without a sat verdict")
	}
	if err := checkRun(f.Observed, f.Backends, nb); err != nil {
		return err
	}
	if r.Status == statusTested && nb > 0 && len(f.Backends) != nb {
		return fmt.Errorf("%d backend outputs for %d configured backends", len(f.Backends), nb)
	}
	if v := f.Variant; v != nil {
		if v.Relation < mutate.RelEquivalent || v.Relation > mutate.RelStrengthened {
			return fmt.Errorf("variant relation %d out of range", v.Relation)
		}
		if err := checkRun(v.Observed, v.Backends, nb); err != nil {
			return fmt.Errorf("variant: %v", err)
		}
	}
	if w := f.Witness; w != nil && (w.script == nil || w.seeds[0] == nil || w.seeds[1] == nil) {
		return fmt.Errorf("incomplete witness")
	}
	return nil
}

func checkRun(observed solver.Result, bks []backendRun, nb int) error {
	if observed < solver.ResUnknown || observed > solver.ResTimeout {
		return fmt.Errorf("observed verdict %d out of range", observed)
	}
	if len(bks) != 0 && len(bks) != nb {
		return fmt.Errorf("%d backend outputs for %d configured backends", len(bks), nb)
	}
	for i, o := range bks {
		if o.Verdict < backend.Unknown || o.Verdict > backend.Quarantined {
			return fmt.Errorf("backend %d: verdict %d out of range", i, o.Verdict)
		}
		if o.Retries < 0 {
			return fmt.Errorf("backend %d: negative retries %d", i, o.Retries)
		}
	}
	return nil
}
