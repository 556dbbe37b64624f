// Checkpoint/resume for campaigns. A Checkpoint snapshots a campaign's
// funnel position — the classification frontier plus every piece of
// state the in-order classification stage has folded so far (dedup
// maps, backend triage, breaker streaks, artifact refs, telemetry) —
// as a versioned, checksummed JSON document. Resume rebuilds the exact
// runtime state and continues: because every RNG stream derives from
// (campaign seed, logic, iteration) and classification is strict
// task-id order, the resumed campaign's results, metrics, and JSONL
// trace are byte-identical to an uninterrupted run's.
//
// The frontier is a single integer: classification applies outcomes in
// strict global task order, so "Done = N" means exactly the first N
// included task ids are classified — there are never holes. Mid-family
// frontiers are handled by warm replay (see runLeg): the resumed leg
// re-executes a family's already-classified prefix, discarding the
// outcomes, purely to reconstruct the solver's warm-cache state that
// the next task's fuel counters depend on.
package harness

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/backend"
	"repro/internal/bugdb"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/smtlib"
	"repro/internal/solver"
	"repro/internal/telemetry"
)

// CheckpointSchema versions the checkpoint payload layout. Decoding
// any other schema fails closed: a version-skewed checkpoint must
// never resume silently wrong.
const CheckpointSchema = 1

const (
	kindCheckpoint = "yinyang-checkpoint"
	kindEnvelope   = "yinyang-envelope"
)

// SimBackendConfig selects a hermetic in-process cross-check backend:
// a simulated solver release, deterministic and preserving the
// campaign's bit-identical thread-count invariance (its only
// "failures" are deterministic fuel timeouts, so it carries no circuit
// breaker).
type SimBackendConfig struct {
	SUT     string `json:"sut"`
	Release string `json:"release,omitempty"` // "" = trunk
	Fuel    int64  `json:"fuel,omitempty"`    // CampaignConfig.Fuel semantics
	// InjectDefects adds defects beyond the release's catalogued set
	// (consensus suites script a dissenting voter with it).
	InjectDefects []string `json:"inject_defects,omitempty"`
}

// ProcessBackendConfig selects an external SMT-LIB solver binary under
// process supervision: the serializable mirror of backend.ProcessConfig
// (which itself cannot be serialized — it carries a sleep hook).
type ProcessBackendConfig struct {
	Name string   `json:"name"`
	Path string   `json:"path"`
	Args []string `json:"args,omitempty"`
	// Timeout is the per-invocation wall-clock deadline in nanoseconds
	// (0 = default 10s).
	Timeout time.Duration `json:"timeout_ns,omitempty"`
	// Retries follows backend.ProcessConfig semantics: 0 = default (2),
	// negative = no retries.
	Retries int `json:"retries,omitempty"`
	// Breaker is the circuit breaker threshold (0 = default 5).
	Breaker int `json:"breaker,omitempty"`
}

// BackendConfig is one cross-check backend in a serializable campaign
// configuration: exactly one of Sim or Process must be set.
type BackendConfig struct {
	Sim     *SimBackendConfig     `json:"sim,omitempty"`
	Process *ProcessBackendConfig `json:"process,omitempty"`
}

// release is the simulated release, "" meaning trunk.
func (sc *SimBackendConfig) release() string {
	if sc.Release == "" {
		return "trunk"
	}
	return sc.Release
}

// name returns the backend's report/finding label, matching what the
// built Spec will carry.
func (bc BackendConfig) name() string {
	switch {
	case bc.Sim != nil:
		return bc.Sim.SUT + "@" + bc.Sim.release()
	case bc.Process != nil:
		return bc.Process.Name
	}
	return ""
}

func (bc BackendConfig) validate() error {
	switch {
	case bc.Sim != nil && bc.Process != nil:
		return fmt.Errorf("backend config sets both sim and process")
	case bc.Sim != nil:
		switch bugdb.SUT(bc.Sim.SUT) {
		case bugdb.Z3Sim, bugdb.CVC4Sim:
		default:
			return fmt.Errorf("backend config: unknown simulated solver %q", bc.Sim.SUT)
		}
		if _, err := bugdb.DefectsIn(bugdb.SUT(bc.Sim.SUT), bc.Sim.release()); err != nil {
			return fmt.Errorf("backend config: %v", err)
		}
	case bc.Process != nil:
		if bc.Process.Name == "" {
			return fmt.Errorf("backend config: process backend with empty name")
		}
		if bc.Process.Path == "" {
			return fmt.Errorf("backend config: process backend %q with empty path", bc.Process.Name)
		}
		if bc.Process.Timeout < 0 {
			return fmt.Errorf("backend config: process backend %q with negative timeout", bc.Process.Name)
		}
	default:
		return fmt.Errorf("backend config sets neither sim nor process")
	}
	return nil
}

// spec builds the runtime backend.Spec of a validated config. Each call
// creates fresh Health state for process backends; Resume rehydrates it
// from the checkpoint.
func (bc BackendConfig) spec() backend.Spec {
	if p := bc.Process; p != nil {
		return backend.ProcessSpec(backend.ProcessConfig{
			Name:             p.Name,
			Path:             p.Path,
			Args:             p.Args,
			Timeout:          p.Timeout,
			Retries:          p.Retries,
			BreakerThreshold: p.Breaker,
		})
	}
	name, sut, release := bc.name(), bugdb.SUT(bc.Sim.SUT), bc.Sim.release()
	inject, lim := bc.Sim.InjectDefects, fuelLimits(bc.Sim.Fuel)
	return backend.Spec{
		Name:     name,
		Hermetic: true,
		New: func() (backend.Backend, error) {
			defects, err := bugdb.DefectsIn(sut, release)
			if err != nil {
				return nil, err
			}
			for _, d := range inject {
				defects[solver.Defect(d)] = true
			}
			return backend.NewSim(name, solver.New(solver.Config{Defects: defects, Limits: lim})), nil
		},
	}
}

// CampaignConfig is the one representation of a campaign: everything
// that determines its results, metrics, and trace, plus the
// per-process fields (Threads, ArtifactDir, Shard/Shards) that may
// differ between the legs of a paused campaign or between shards
// without affecting any output byte. The runtime attachments
// (telemetry tracker, trace writer, pause controls) live in RunOptions.
type CampaignConfig struct {
	SUT     string `json:"sut"`
	Release string `json:"release,omitempty"` // "" = trunk
	// Logics lists the logics to fuzz (empty = every generator logic).
	Logics []string `json:"logics,omitempty"`
	// Iterations is the number of tests per logic (0 = 200).
	Iterations int `json:"iterations,omitempty"`
	// SeedPool is the number of sat and unsat seeds per logic pool
	// (0 = 20).
	SeedPool int   `json:"seed_pool,omitempty"`
	Seed     int64 `json:"seed"`
	// Threads is the advisory worker count (≤ 1 = single-threaded);
	// results are invariant to it.
	Threads int `json:"threads,omitempty"`
	// Mode selects the test-derivation strategy: fusion (default),
	// mutate, or wild (unknown-status mutation for the consensus
	// oracles).
	Mode string `json:"mode,omitempty"`
	// DisableModelCheck turns off the model-validation oracle, which
	// otherwise evaluates every sat model against the input script.
	DisableModelCheck bool `json:"disable_model_check,omitempty"`
	// ConcatOnly switches to the ConcatFuzz baseline (RQ4).
	ConcatOnly bool `json:"concat_only,omitempty"`
	// MaxPairs and ReplaceProb tune the fusion engine (core.Options;
	// 0 = its defaults).
	MaxPairs    int     `json:"max_pairs,omitempty"`
	ReplaceProb float64 `json:"replace_prob,omitempty"`
	// FusionTable names the fusion-function table (core.TableNamed):
	// "" is the paper's Figure 6, and the synthesized tables draw from
	// Seed+17.
	FusionTable string `json:"fusion_table,omitempty"`
	// Fuel bounds every solver invocation by a deterministic step count
	// (see solver.Limits.Fuel): 0 uses the solver default, a positive
	// value overrides it, and a negative value disables the meter.
	Fuel int64 `json:"fuel,omitempty"`
	// WallTimeout (nanoseconds), when positive, arms the wall-clock
	// watchdog backstop around each solve. A run cut off by the watchdog
	// is quarantined, never classified — and because wall-clock is
	// scheduling-dependent, campaigns using it forfeit bit-identical
	// resume and thread-count invariance, which fuel preserves.
	WallTimeout time.Duration `json:"wall_timeout_ns,omitempty"`
	// ArtifactDir, when set, persists every finding (and quarantined
	// input) as a replayable reproducer bundle under this directory.
	ArtifactDir string `json:"artifact_dir,omitempty"`
	// InjectDefects adds defects beyond the release's own catalogue
	// entries (fault-injection testing of the harness itself).
	InjectDefects []string `json:"inject_defects,omitempty"`
	// Backends configures cross-check solvers run on every tested
	// script in addition to the SUT, layering a differential oracle over
	// the campaign. Hermetic (sim) backends preserve the thread-count
	// invariance; external process backends — supervised, retried, and
	// circuit-broken by internal/backend — forfeit it the same way
	// WallTimeout does, and a persistently failing binary degrades the
	// campaign (its checks are skipped) instead of stalling it.
	Backends []BackendConfig `json:"backends,omitempty"`
	// Oracle selects the verdict-judging policy: known (default),
	// majority, metamorphic, or auto. The consensus policies act only
	// on unknown-status tasks. Quorum is the minimum number of definite
	// votes (SUT plus backends) the majority policy needs before calling
	// a consensus (0 = 2). omitempty keeps known-policy documents
	// byte-identical to what older builds wrote.
	Oracle string `json:"oracle,omitempty"`
	Quorum int    `json:"quorum,omitempty"`
	// Shard/Shards split the task space across independent processes:
	// this config's process classifies exactly the global task ids with
	// id % Shards == Shard. Shards ≤ 1 means unsharded.
	Shard  int `json:"shard,omitempty"`
	Shards int `json:"shards,omitempty"`
}

// withDefaults fills every defaulted field, so task counts, families,
// and RNG coordinates computed from a config match the running
// campaign's exactly.
func (cc CampaignConfig) withDefaults() CampaignConfig {
	if cc.Release == "" {
		cc.Release = "trunk"
	}
	if len(cc.Logics) == 0 {
		for _, l := range gen.AllLogics {
			cc.Logics = append(cc.Logics, string(l))
		}
	}
	if cc.Iterations == 0 {
		cc.Iterations = 200
	}
	if cc.SeedPool == 0 {
		cc.SeedPool = 20
	}
	// Clamp, don't just default: a negative thread count would size the
	// worker arrays with make([]T, Threads) and panic.
	if cc.Threads <= 0 {
		cc.Threads = 1
	}
	if cc.Mode == "" {
		cc.Mode = ModeFusion
	}
	if cc.Shards <= 0 {
		cc.Shards = 1
	}
	if cc.Oracle == "" {
		cc.Oracle = OracleKnown
	}
	if cc.Quorum == 0 {
		cc.Quorum = 2
	}
	return cc
}

// Validate rejects configurations that cannot identify a runnable
// campaign. It is called by Start, Resume, Merge, and the checkpoint
// decoder, so a corrupt or hand-edited document fails closed with a
// diagnostic instead of running a different experiment.
func (cc CampaignConfig) Validate() error {
	d := cc.withDefaults()
	if _, err := bugdb.DefectsIn(bugdb.SUT(d.SUT), d.Release); err != nil {
		return fmt.Errorf("harness: config: %v", err)
	}
	if cc.Iterations < 0 {
		return fmt.Errorf("harness: config: negative iterations %d", cc.Iterations)
	}
	if cc.SeedPool < 0 {
		return fmt.Errorf("harness: config: negative seed pool %d", cc.SeedPool)
	}
	for _, l := range d.Logics {
		if _, err := gen.New(gen.Logic(l), 0); err != nil {
			return fmt.Errorf("harness: config: %v", err)
		}
	}
	if d.MaxPairs < 0 {
		return fmt.Errorf("harness: config: negative max_pairs %d", d.MaxPairs)
	}
	if !(d.ReplaceProb >= 0 && d.ReplaceProb <= 1) {
		return fmt.Errorf("harness: config: replace_prob %v outside [0,1]", d.ReplaceProb)
	}
	if _, err := core.TableNamed(d.FusionTable, d.Seed+17); err != nil {
		return fmt.Errorf("harness: config: %v", err)
	}
	if d.WallTimeout < 0 {
		return fmt.Errorf("harness: config: negative wall timeout")
	}
	if cc.Shards < 0 || cc.Shard < 0 {
		return fmt.Errorf("harness: config: negative shard coordinates %d/%d", cc.Shard, cc.Shards)
	}
	if cc.Shard >= d.Shards {
		return fmt.Errorf("harness: config: shard %d out of range for %d shards", cc.Shard, d.Shards)
	}
	switch d.Mode {
	case ModeFusion, ModeMutate, ModeWild:
	default:
		return fmt.Errorf("harness: config: unknown campaign mode %q", d.Mode)
	}
	if d.ConcatOnly && d.Mode != ModeFusion {
		return fmt.Errorf("harness: config: concat_only requires fusion mode, got %q", d.Mode)
	}
	switch d.Oracle {
	case OracleKnown, OracleMajority, OracleMetamorphic, OracleAuto:
	default:
		return fmt.Errorf("harness: config: unknown oracle policy %q", d.Oracle)
	}
	if d.Quorum < 0 {
		return fmt.Errorf("harness: config: negative quorum %d", d.Quorum)
	}
	names := map[string]bool{}
	for i, bc := range d.Backends {
		if err := bc.validate(); err != nil {
			return fmt.Errorf("harness: config: backend %d: %w", i, err)
		}
		switch name := bc.name(); {
		case name == "sut":
			// Reserved: the consensus policies use "sut" as the
			// pseudo-voter name for the solver under test.
			return fmt.Errorf("harness: config: backend name %q is reserved", name)
		case names[name]:
			return fmt.Errorf("harness: config: duplicate backend name %q", name)
		default:
			names[name] = true
		}
	}
	return nil
}

// campaign is a validated config with its defaults filled, together
// with the runtime values derived from it. The worker and
// classification stages read it; derive is the one place the derived
// values are computed.
type campaign struct {
	CampaignConfig
	// defects is the SUT's defect set: the release's catalogue entries
	// plus InjectDefects. Solvers only read it, so workers share it.
	defects map[solver.Defect]bool
	// fusion carries MaxPairs, ReplaceProb and the named table.
	fusion core.Options
	// specs holds one built backend per Backends entry, in order.
	specs []backend.Spec
}

// derive validates the config and builds its runtime campaign.
func (cc CampaignConfig) derive() (*campaign, error) {
	if err := cc.Validate(); err != nil {
		return nil, err
	}
	c := &campaign{CampaignConfig: cc.withDefaults()}
	// Validate already resolved the release and the table; neither can
	// fail here.
	c.defects, _ = bugdb.DefectsIn(bugdb.SUT(c.SUT), c.Release)
	for _, d := range c.InjectDefects {
		c.defects[solver.Defect(d)] = true
	}
	table, _ := core.TableNamed(c.FusionTable, c.Seed+17)
	c.fusion = core.Options{MaxPairs: c.MaxPairs, ReplaceProb: c.ReplaceProb, Table: table}
	for _, bc := range c.Backends {
		c.specs = append(c.specs, bc.spec())
	}
	return c, nil
}

// total is the campaign-wide task count. Call on a defaulted config.
func (cc CampaignConfig) total() int { return len(cc.Logics) * cc.Iterations }

// ShardTaskCount returns the number of tasks this config's process
// classifies: the whole campaign when unsharded, this shard's
// allotment otherwise.
func (cc CampaignConfig) ShardTaskCount() int {
	return len(cc.withDefaults().includeIDs())
}

// includeIDs lists the global task ids this shard classifies, in
// ascending order: id % Shards == Shard. Call on a defaulted config.
func (cc CampaignConfig) includeIDs() []int {
	total := cc.total()
	if cc.Shards <= 1 {
		ids := make([]int, total)
		for i := range ids {
			ids[i] = i
		}
		return ids
	}
	var ids []int
	for id := cc.Shard; id < total; id += cc.Shards {
		ids = append(ids, id)
	}
	return ids
}

// savedSeed serializes one bug ancestor. The witness model of sat seeds
// is intentionally dropped: it is consumed during fusion (which never
// re-runs for an already-recorded bug), not by anything downstream of
// classification.
type savedSeed struct {
	Script string `json:"script"`
	Status int    `json:"status"`
}

// savedBug serializes one deduplicated finding in recording order.
// Enum-valued fields are stored as their integer representations and
// range-checked on load.
type savedBug struct {
	Defect     string       `json:"defect"`
	Kind       string       `json:"kind"`
	Logic      string       `json:"logic"`
	Oracle     int          `json:"oracle"`
	Observed   int          `json:"observed"`
	FusionMode int          `json:"fusion_mode"`
	Rules      []string     `json:"rules,omitempty"`
	Script     string       `json:"script"`
	Seeds      [2]savedSeed `json:"seeds"`
	Tasks      []int        `json:"tasks"`
}

func savedBugOf(b Bug) savedBug {
	sb := savedBug{
		Defect:     string(b.Defect),
		Kind:       string(b.Kind),
		Logic:      string(b.Logic),
		Oracle:     int(b.Oracle),
		Observed:   int(b.Observed),
		FusionMode: int(b.Mode),
		Rules:      append([]string(nil), b.Rules...),
		Script:     smtlib.Print(b.Script),
		Tasks:      append([]int(nil), b.Tasks...),
	}
	for i, a := range b.Ancestors {
		sb.Seeds[i] = savedSeed{Script: smtlib.Print(a.Script), Status: int(a.Status)}
	}
	return sb
}

func bugFromSaved(sb savedBug) (Bug, error) {
	if sb.Defect == "" {
		return Bug{}, fmt.Errorf("bug with empty defect")
	}
	if sb.Oracle < int(core.StatusSat) || sb.Oracle > int(core.StatusUnknown) {
		return Bug{}, fmt.Errorf("bug %s: oracle %d out of range", sb.Defect, sb.Oracle)
	}
	if sb.Observed < int(solver.ResUnknown) || sb.Observed > int(solver.ResTimeout) {
		return Bug{}, fmt.Errorf("bug %s: observed verdict %d out of range", sb.Defect, sb.Observed)
	}
	if sb.FusionMode < int(core.ModeSatConj) || sb.FusionMode > int(core.ModeMixedUnsatConj) {
		return Bug{}, fmt.Errorf("bug %s: fusion mode %d out of range", sb.Defect, sb.FusionMode)
	}
	if len(sb.Tasks) == 0 {
		return Bug{}, fmt.Errorf("bug %s: no trigger tasks", sb.Defect)
	}
	script, err := smtlib.ParseScript(sb.Script)
	if err != nil {
		return Bug{}, fmt.Errorf("bug %s: script: %v", sb.Defect, err)
	}
	b := Bug{
		Defect:   solver.Defect(sb.Defect),
		Kind:     bugdb.BugType(sb.Kind),
		Logic:    gen.Logic(sb.Logic),
		Oracle:   core.Status(sb.Oracle),
		Observed: solver.Result(sb.Observed),
		Mode:     core.Mode(sb.FusionMode),
		Rules:    append([]string(nil), sb.Rules...),
		Script:   script,
		Tasks:    append([]int(nil), sb.Tasks...),
	}
	for i, s := range sb.Seeds {
		if s.Status != int(core.StatusSat) && s.Status != int(core.StatusUnsat) {
			return Bug{}, fmt.Errorf("bug %s: seed %d status %d out of range", sb.Defect, i, s.Status)
		}
		sc, err := smtlib.ParseScript(s.Script)
		if err != nil {
			return Bug{}, fmt.Errorf("bug %s: seed %d: %v", sb.Defect, i, err)
		}
		b.Ancestors[i] = &core.Seed{Script: sc, Status: core.Status(s.Status)}
	}
	return b, nil
}

// Fingerprint returns a canonical serialization of everything the
// campaign observed: the funnel counts, the findings (scripts in
// printed form, triggers in task order), the backend reports and
// findings, and the artifact bundle keys. Two Results describe the
// same campaign outcome iff their fingerprints are byte-identical;
// the determinism suites and the CLI compare resumed and sharded runs
// against uninterrupted references with it. (Plain DeepEqual on
// Result is too strong a comparison across process boundaries: a
// restored Bug's script is re-parsed from its printed form, which is
// textually canonical but not pointer-identical.)
func (r *Result) Fingerprint() []byte {
	s := stateOf(r)
	for _, p := range r.Artifacts {
		// The bundle key alone: merged artifacts live under a different
		// parent directory than any shard's, by design.
		s.Artifacts = append(s.Artifacts, artifactRef{Key: filepath.Base(p)})
	}
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		// savedState is plain data; Marshal cannot fail on it.
		panic(err)
	}
	return append(data, '\n')
}

// breakerState serializes one backend's circuit-breaker position, so a
// resumed campaign does not grant a failing binary a fresh allowance.
type breakerState struct {
	Streak int  `json:"streak,omitempty"`
	Open   bool `json:"open,omitempty"`
}

// savedState is the complete classification state at a frontier: the
// tally, the findings with their trigger tasks (the dedup maps are
// reconstructible from them), the backend triage and breaker state,
// and the artifact refs.
type savedState struct {
	Tally
	Bugs            []savedBug       `json:"bugs,omitempty"`
	Backends        []BackendReport  `json:"backends,omitempty"`
	BackendFindings []BackendFinding `json:"backend_findings,omitempty"`
	Breakers        []breakerState   `json:"breakers,omitempty"`
	Artifacts       []artifactRef    `json:"artifacts,omitempty"`
}

// stateOf serializes a Result's findings and tallies; its bugs are
// taken in their current order.
func stateOf(res *Result) savedState {
	s := savedState{
		Tally:           res.Tally,
		Backends:        append([]BackendReport(nil), res.Backends...),
		BackendFindings: append([]BackendFinding(nil), res.BackendFindings...),
	}
	for _, b := range res.Bugs {
		s.Bugs = append(s.Bugs, savedBugOf(b))
	}
	return s
}

// captureState serializes the classification state. Bugs must still be
// in recording order (captureState is called before finish sorts them).
func captureState(st *runState) savedState {
	s := stateOf(st.res)
	for _, spec := range st.cfg.specs {
		streak, open := spec.Health.State()
		s.Breakers = append(s.Breakers, breakerState{Streak: streak, Open: open})
	}
	if st.aw != nil {
		s.Artifacts = append([]artifactRef(nil), st.aw.refs...)
	}
	return s
}

// foldStates rebuilds the classification state of the union of
// disjoint task sets from their saved states: resume folds one state,
// merge folds the K shard states of a campaign. The fold is the
// classification stage's bookkeeping replayed over the recorded
// findings:
//   - a defect's bug is the observation with the earliest trigger task
//     (its script and seeds were derived from that exact task, so they
//     match what a single-process run recorded), carrying every trigger
//     in task order, and bugs stay in recording (first-trigger) order;
//   - Duplicates is recomputed from the trigger lists, the other tallies
//     and the backend reports sum;
//   - per finding dedup key the earliest task wins (the dedup map
//     records it), and the survivors keep a stable task order.
//
// States must be validated against cfg. Breakers and artifact refs are
// the caller's: they do not fold.
func foldStates(cfg *campaign, tr *telemetry.Tracker, states []savedState) (*runState, error) {
	st := newRunState(cfg, tr)
	res := st.res
	type acc struct {
		winner savedBug
		tasks  []int
	}
	var bugs []*acc
	byDefect := map[string]*acc{}
	for _, s := range states {
		res.add(s.Tally)
		for i, rep := range s.Backends {
			res.Backends[i].add(rep)
		}
		for _, sb := range s.Bugs {
			a := byDefect[sb.Defect]
			if a == nil {
				a = &acc{winner: sb}
				byDefect[sb.Defect] = a
				bugs = append(bugs, a)
			} else if sb.Tasks[0] < a.winner.Tasks[0] {
				a.winner = sb
			}
			a.tasks = append(a.tasks, sb.Tasks...)
		}
		for _, f := range s.BackendFindings {
			key := findingKey(f)
			if t, ok := st.seen[key]; !ok || f.Task < t {
				st.seen[key] = f.Task
			}
		}
	}

	sort.SliceStable(bugs, func(i, j int) bool { return bugs[i].winner.Tasks[0] < bugs[j].winner.Tasks[0] })
	res.Duplicates = 0
	for i, a := range bugs {
		sort.Ints(a.tasks)
		sb := a.winner
		sb.Tasks = a.tasks
		b, err := bugFromSaved(sb)
		if err != nil {
			return nil, err
		}
		st.found[b.Defect] = i
		res.Bugs = append(res.Bugs, b)
		res.Duplicates += len(a.tasks) - 1
	}

	// All of one task's findings live in a single state, already in
	// classification's per-task emission order (known-status by backend
	// index, then majority, then metamorphic — an order no single sort
	// key reproduces), so a stable sort by task interleaves the states
	// without disturbing it.
	for _, s := range states {
		for _, f := range s.BackendFindings {
			if st.seen[findingKey(f)] == f.Task {
				res.BackendFindings = append(res.BackendFindings, f)
			}
		}
	}
	sort.SliceStable(res.BackendFindings, func(i, j int) bool {
		return res.BackendFindings[i].Task < res.BackendFindings[j].Task
	})
	return st, nil
}

// restoreState rebuilds the runtime classification state from a
// validated checkpoint state: the fold of that one state, plus the
// breaker state of the freshly built backend specs and the artifact
// writer's dedup set.
func restoreState(cfg *campaign, tr *telemetry.Tracker, s savedState) (*runState, error) {
	st, err := foldStates(cfg, tr, []savedState{s})
	if err != nil {
		return nil, err
	}
	for i, br := range s.Breakers {
		cfg.specs[i].Health.Restore(br.Streak, br.Open)
	}
	if st.aw != nil {
		st.aw.restore(s.Artifacts)
	}
	return st, nil
}

// validateState cross-checks a saved state against its config and
// frontier; done is the number of classified tasks. Every structural
// invariant the classification stage maintains is re-checked here, so
// a tampered document fails closed instead of resuming into impossible
// state.
func validateState(cc CampaignConfig, s savedState, done int) error {
	d := cc.withDefaults()
	include := d.includeIDs()
	if done < 0 || done > len(include) {
		return fmt.Errorf("frontier %d outside [0,%d]", done, len(include))
	}
	classified := make([]bool, d.total())
	for _, id := range include[:done] {
		classified[id] = true
	}
	for _, n := range s.Tally.counts() {
		if *n.v < 0 {
			return fmt.Errorf("negative %s count %d", n.name, *n.v)
		}
	}
	if s.Tests+s.InvalidInputs+s.Quarantined > done {
		return fmt.Errorf("counts (%d tests + %d invalid + %d quarantined) exceed frontier %d",
			s.Tests, s.InvalidInputs, s.Quarantined, done)
	}
	if s.OracleConsensus+s.OracleAbstained > s.Tests {
		return fmt.Errorf("majority votes (%d consensus + %d abstained) exceed %d tests",
			s.OracleConsensus, s.OracleAbstained, s.Tests)
	}
	if s.MetamorphicPairs+s.MetamorphicSkips > s.Tests {
		return fmt.Errorf("metamorphic pairs (%d + %d skips) exceed %d tests",
			s.MetamorphicPairs, s.MetamorphicSkips, s.Tests)
	}
	logicOK := map[string]bool{}
	for _, l := range d.Logics {
		logicOK[l] = true
	}
	dupes := 0
	seenDefect := map[string]bool{}
	lastFirst := -1
	for i, sb := range s.Bugs {
		if _, err := bugFromSaved(sb); err != nil {
			return fmt.Errorf("bugs[%d]: %v", i, err)
		}
		if seenDefect[sb.Defect] {
			return fmt.Errorf("bugs[%d]: duplicate defect %q", i, sb.Defect)
		}
		seenDefect[sb.Defect] = true
		if !logicOK[sb.Logic] {
			return fmt.Errorf("bugs[%d]: logic %q not in campaign", i, sb.Logic)
		}
		prev := -1
		for _, t := range sb.Tasks {
			if t < 0 || t >= len(classified) || !classified[t] {
				return fmt.Errorf("bugs[%d]: trigger task %d not classified at frontier %d", i, t, done)
			}
			if t <= prev {
				return fmt.Errorf("bugs[%d]: trigger tasks not strictly ascending", i)
			}
			prev = t
		}
		if sb.Tasks[0] <= lastFirst {
			return fmt.Errorf("bugs[%d]: not in recording order", i)
		}
		lastFirst = sb.Tasks[0]
		dupes += len(sb.Tasks) - 1
	}
	if dupes != s.Duplicates {
		return fmt.Errorf("duplicates %d disagree with trigger tasks (%d)", s.Duplicates, dupes)
	}
	if len(s.Backends) != len(d.Backends) {
		return fmt.Errorf("%d backend reports for %d configured backends", len(s.Backends), len(d.Backends))
	}
	// The SUT's pseudo-voter name is a valid finding attribution only
	// under the consensus policies.
	nameOK := map[string]bool{"sut": d.Oracle != OracleKnown}
	for i, rep := range s.Backends {
		bc := d.Backends[i]
		if rep.Name != bc.name() {
			return fmt.Errorf("backends[%d]: report for %q, config has %q", i, rep.Name, bc.name())
		}
		if rep.Hermetic != (bc.Sim != nil) {
			return fmt.Errorf("backends[%d]: hermetic flag %v disagrees with the config", i, rep.Hermetic)
		}
		for _, n := range rep.counts() {
			if *n.v < 0 {
				return fmt.Errorf("backends[%d]: negative %s count %d", i, n.name, *n.v)
			}
		}
		nameOK[rep.Name] = true
	}
	if len(s.Breakers) != 0 && len(s.Breakers) != len(d.Backends) {
		return fmt.Errorf("%d breaker entries for %d configured backends", len(s.Breakers), len(d.Backends))
	}
	for i, br := range s.Breakers {
		if br.Streak < 0 {
			return fmt.Errorf("breakers[%d]: negative streak %d", i, br.Streak)
		}
	}
	// Findings are in classification order with one per dedup key, so
	// the resume fold of the state is the identity.
	keys := map[bkKey]bool{}
	for i, f := range s.BackendFindings {
		if !nameOK[f.Backend] {
			return fmt.Errorf("backend_findings[%d]: unknown backend %q under oracle %q", i, f.Backend, d.Oracle)
		}
		switch f.Kind {
		case bugdb.MajorityDisagreement, bugdb.MetamorphicViolation:
		case bugdb.Disagreement, bugdb.Crash, bugdb.Garbled, bugdb.Performance:
			if f.Backend == "sut" {
				return fmt.Errorf("backend_findings[%d]: %s finding attributed to the sut", i, f.Kind)
			}
		default:
			return fmt.Errorf("backend_findings[%d]: unknown kind %q", i, f.Kind)
		}
		if f.Task < 0 || f.Task >= len(classified) || !classified[f.Task] {
			return fmt.Errorf("backend_findings[%d]: task %d not classified at frontier %d", i, f.Task, done)
		}
		if i > 0 && f.Task < s.BackendFindings[i-1].Task {
			return fmt.Errorf("backend_findings[%d]: not in task order", i)
		}
		if keys[findingKey(f)] {
			return fmt.Errorf("backend_findings[%d]: duplicate of an earlier finding", i)
		}
		keys[findingKey(f)] = true
	}
	for i, r := range s.Artifacts {
		if d.ArtifactDir == "" {
			return fmt.Errorf("artifacts[%d]: ref without an artifact dir in the config", i)
		}
		if r.Key == "" {
			return fmt.Errorf("artifacts[%d]: empty key", i)
		}
		if r.Task < 0 || r.Task >= len(classified) || !classified[r.Task] {
			return fmt.Errorf("artifacts[%d]: task %d not classified at frontier %d", i, r.Task, done)
		}
	}
	return nil
}

// Checkpoint is a paused campaign: its identity (Config), its frontier
// (Done tasks classified, in this shard's ascending task order), the
// complete classification state at that frontier, the telemetry
// snapshot, and the accumulated JSONL trace bytes. Serialize with
// EncodeCheckpoint; continue with Resume.
type Checkpoint struct {
	Config CampaignConfig `json:"config"`
	// Done is the classification frontier: the number of this shard's
	// task ids (ascending) already classified, cumulative across legs.
	Done      int                `json:"done"`
	State     savedState         `json:"state"`
	Telemetry telemetry.Snapshot `json:"telemetry"`
	// Trace accumulates the JSONL trace of all completed legs, so a
	// chain of pauses still yields a whole-shard trace in the final
	// envelope even though each process only appends new records to its
	// own writer. It stays empty when the first leg ran untraced.
	Trace []byte `json:"trace,omitempty"`
}

func (cp *Checkpoint) validate() error {
	if err := cp.Config.Validate(); err != nil {
		return err
	}
	if err := validateState(cp.Config, cp.State, cp.Done); err != nil {
		return fmt.Errorf("harness: checkpoint: %v", err)
	}
	return nil
}

// sealed is the outer document of checkpoints and envelopes: a kind
// discriminator, a schema version, and an integrity checksum over the
// payload bytes. Unknown fields anywhere fail the decode.
type sealed struct {
	Kind     string          `json:"kind"`
	Schema   int             `json:"schema"`
	Checksum string          `json:"checksum"`
	Payload  json.RawMessage `json:"payload"`
}

// payloadChecksum hashes the compact form of the payload JSON:
// MarshalIndent reflows embedded raw messages, so the checksum must be
// insensitive to inter-token whitespace (and only to that).
func payloadChecksum(b []byte) (string, error) {
	var compact bytes.Buffer
	if err := json.Compact(&compact, b); err != nil {
		return "", err
	}
	h := fnv.New64a()
	h.Write(compact.Bytes())
	return fmt.Sprintf("fnv64a:%016x", h.Sum64()), nil
}

func sealDoc(kind string, schema int, payload any) ([]byte, error) {
	data, err := json.Marshal(payload)
	if err != nil {
		return nil, err
	}
	sum, err := payloadChecksum(data)
	if err != nil {
		return nil, err
	}
	out, err := json.MarshalIndent(sealed{
		Kind:     kind,
		Schema:   schema,
		Checksum: sum,
		Payload:  data,
	}, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}

// openDoc verifies the outer document and returns the payload bytes.
func openDoc(data []byte, kind string, schema int) (json.RawMessage, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s sealed
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("harness: %s: %v", kind, err)
	}
	if dec.More() {
		return nil, fmt.Errorf("harness: %s: trailing data after document", kind)
	}
	if s.Kind != kind {
		return nil, fmt.Errorf("harness: expected a %s document, got kind %q", kind, s.Kind)
	}
	if s.Schema != schema {
		return nil, fmt.Errorf("harness: %s: unsupported schema %d (this build reads schema %d)", kind, s.Schema, schema)
	}
	got, err := payloadChecksum(s.Payload)
	if err != nil {
		return nil, fmt.Errorf("harness: %s: payload: %v", kind, err)
	}
	if got != s.Checksum {
		return nil, fmt.Errorf("harness: %s: payload checksum mismatch: document says %s, payload hashes to %s", kind, s.Checksum, got)
	}
	return s.Payload, nil
}

func decodeStrict(payload json.RawMessage, v any, kind string) error {
	dec := json.NewDecoder(bytes.NewReader(payload))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("harness: %s payload: %v", kind, err)
	}
	if dec.More() {
		return fmt.Errorf("harness: %s payload: trailing data", kind)
	}
	return nil
}

// EncodeCheckpoint serializes a checkpoint as a versioned, checksummed
// JSON document. The checkpoint is validated first, so an impossible
// state is caught at the producer, not the consumer.
func EncodeCheckpoint(cp *Checkpoint) ([]byte, error) {
	if cp == nil {
		return nil, fmt.Errorf("harness: nil checkpoint")
	}
	if err := cp.validate(); err != nil {
		return nil, err
	}
	return sealDoc(kindCheckpoint, CheckpointSchema, cp)
}

// DecodeCheckpoint parses and fully validates a checkpoint document.
// Any corruption — framing, schema skew, checksum mismatch, unknown
// fields, or a state that violates the classification invariants —
// fails with a diagnostic; a checkpoint that decodes is safe to Resume.
func DecodeCheckpoint(data []byte) (*Checkpoint, error) {
	payload, err := openDoc(data, kindCheckpoint, CheckpointSchema)
	if err != nil {
		return nil, err
	}
	var cp Checkpoint
	if err := decodeStrict(payload, &cp, kindCheckpoint); err != nil {
		return nil, err
	}
	if err := cp.validate(); err != nil {
		return nil, err
	}
	return &cp, nil
}

// RunOptions carries the per-process knobs that are NOT part of a
// campaign's identity: they may differ between the legs of a paused
// campaign, or between shards, without affecting results, metrics, or
// trace bytes.
type RunOptions struct {
	// Threads overrides the config's worker count for this leg (0 =
	// use the config's). Results are invariant to it either way.
	Threads int
	// Telemetry, when non-nil, receives the campaign's aggregated
	// metrics. On resume the checkpoint's snapshot is merged in first,
	// so the final snapshot equals an uninterrupted run's.
	Telemetry *telemetry.Tracker
	// Trace, when non-nil, receives this leg's JSONL trace records —
	// only the new ones, so a resuming process can append to the file
	// the paused process was writing. Checkpoints and envelopes carry
	// the accumulated byte stream separately.
	Trace io.Writer
	// StopAfter, when positive, pauses the campaign once that many more
	// tasks have been classified.
	StopAfter int
	// Stop is polled after every classified task; returning true pauses
	// the campaign at that frontier.
	Stop func() bool
	// Progress observes (classified, shard total) after every
	// classified task, called from the classification goroutine — the
	// single owner of the telemetry tracker, so a Progress callback may
	// snapshot it safely.
	Progress func(done, total int)
}

// Outcome is the result of one Start or Resume leg.
type Outcome struct {
	// Result holds the findings: the complete campaign result, or the
	// partial state at the pause frontier.
	Result *Result
	// Paused reports whether the leg stopped at a checkpoint instead of
	// completing.
	Paused bool
	// Checkpoint is set when Paused: continue the campaign by passing
	// it to Resume, in this process or any other.
	Checkpoint *Checkpoint
	// Envelope is set when the leg completed: the shard's foldable
	// result. Merge combines the K shards of one campaign; an unsharded
	// campaign's envelope merges alone.
	Envelope *Envelope
	// Telemetry is the metrics snapshot at the frontier, including
	// counts carried from pre-pause legs even when no tracker was
	// supplied this leg.
	Telemetry telemetry.Snapshot
}

// Start runs a campaign (or one shard of it) from task zero. Its
// findings, metrics, and trace are bit-identical for any thread count.
func Start(cc CampaignConfig, opt RunOptions) (*Outcome, error) {
	return runConfig(cc, opt, nil)
}

// Resume continues a paused campaign from its checkpoint. The resumed
// run — whatever its thread count, and however many times it pauses
// again — produces results, metrics, and a (concatenated) trace
// byte-identical to an uninterrupted run of the same config.
func Resume(cp *Checkpoint, opt RunOptions) (*Outcome, error) {
	if cp == nil {
		return nil, fmt.Errorf("harness: nil checkpoint")
	}
	if err := cp.validate(); err != nil {
		return nil, err
	}
	return runConfig(cp.Config, opt, cp)
}

func runConfig(cc CampaignConfig, opt RunOptions, cp *Checkpoint) (*Outcome, error) {
	cfg, err := cc.derive()
	if err != nil {
		return nil, err
	}
	if opt.Threads > 0 {
		cfg.Threads = opt.Threads
	}

	include := cfg.includeIDs()
	var carried telemetry.Snapshot
	var traceAcc bytes.Buffer
	if cp != nil {
		carried = cp.Telemetry
		if opt.Telemetry == nil && (len(carried.Counters) > 0 || len(carried.Histograms) > 0) {
			// The paused campaign was recording metrics; keep them whole
			// across a leg whose caller forgot to attach a tracker, the
			// same way the trace accumulator keeps the trace whole.
			opt.Telemetry = telemetry.NewTracker()
		}
		opt.Telemetry.Merge(carried)
		traceAcc.Write(cp.Trace)
	}

	ctl := runControls{
		stopAfter:   opt.StopAfter,
		stop:        opt.Stop,
		progress:    opt.Progress,
		suppressVet: cp != nil || cfg.Shard != 0,
	}
	// Tracing is armed when the caller wants live records OR when the
	// checkpoint already carries trace bytes (the envelope of a traced
	// campaign must stay whole across pauses, even through a leg whose
	// caller did not attach a writer). The accumulator only collects
	// when the carried trace is whole: a campaign that classified tasks
	// untraced can never hold a one-record-per-task trace, so its
	// checkpoints and envelope carry none and only the live writer sees
	// the records of the traced legs.
	whole := cp == nil || cp.Done == 0 || len(cp.Trace) > 0
	switch {
	case opt.Trace != nil && whole:
		ctl.trace = io.MultiWriter(opt.Trace, &traceAcc)
	case opt.Trace != nil:
		ctl.trace = opt.Trace
	case traceAcc.Len() > 0:
		ctl.trace = &traceAcc
	}

	var st *runState
	if cp != nil {
		st, err = restoreState(cfg, opt.Telemetry, cp.State)
		if err != nil {
			return nil, fmt.Errorf("harness: checkpoint: %v", err)
		}
		st.done = cp.Done
		include = include[cp.Done:]
	} else {
		st = newRunState(cfg, opt.Telemetry)
	}

	paused, err := runLeg(st, include, ctl)
	if err != nil {
		return nil, err
	}

	snap := carried
	if opt.Telemetry != nil {
		snap = opt.Telemetry.Snapshot()
	}
	finishBackends(st.res, cfg)
	state := captureState(st)
	traceBytes := append([]byte(nil), traceAcc.Bytes()...)

	out := &Outcome{Telemetry: snap}
	if paused {
		out.Paused = true
		out.Checkpoint = &Checkpoint{
			Config:    cc,
			Done:      st.done,
			State:     state,
			Telemetry: snap,
			Trace:     traceBytes,
		}
	} else {
		out.Envelope = &Envelope{
			Config:    cc,
			Tasks:     st.done,
			State:     state,
			Telemetry: snap,
			Trace:     traceBytes,
		}
	}
	res, err := finish(st)
	if err != nil {
		return nil, err
	}
	out.Result = res
	return out, nil
}
