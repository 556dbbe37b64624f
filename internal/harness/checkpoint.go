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

// SimBackendConfig selects a hermetic in-process cross-check backend
// (a simulated solver release), the serializable mirror of
// SimBackendSpec's arguments.
type SimBackendConfig struct {
	SUT     string `json:"sut"`
	Release string `json:"release,omitempty"` // "" = trunk
	Fuel    int64  `json:"fuel,omitempty"`    // Campaign.Fuel semantics
	// InjectDefects adds defects beyond the release's catalogued set,
	// mirroring SimBackendSpec's variadic parameter (consensus suites
	// script a dissenting voter with it).
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

// name returns the backend's report/finding label, matching what the
// built Spec will carry.
func (bc BackendConfig) name() string {
	switch {
	case bc.Sim != nil:
		release := bc.Sim.Release
		if release == "" {
			release = "trunk"
		}
		return bc.Sim.SUT + "@" + release
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
		release := bc.Sim.Release
		if release == "" {
			release = "trunk"
		}
		if _, err := bugdb.DefectsIn(bugdb.SUT(bc.Sim.SUT), release); err != nil {
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

// spec builds the runtime backend.Spec. Each call creates fresh Health
// state for process backends; Resume rehydrates it from the checkpoint.
func (bc BackendConfig) spec() (backend.Spec, error) {
	if err := bc.validate(); err != nil {
		return backend.Spec{}, err
	}
	if bc.Sim != nil {
		var inject []solver.Defect
		for _, d := range bc.Sim.InjectDefects {
			inject = append(inject, solver.Defect(d))
		}
		return SimBackendSpec(bugdb.SUT(bc.Sim.SUT), bc.Sim.Release, bc.Sim.Fuel, inject...), nil
	}
	p := bc.Process
	return backend.ProcessSpec(backend.ProcessConfig{
		Name:             p.Name,
		Path:             p.Path,
		Args:             p.Args,
		Timeout:          p.Timeout,
		Retries:          p.Retries,
		BreakerThreshold: p.Breaker,
	}), nil
}

// CampaignConfig is the serializable identity of a campaign: everything
// that determines its results, metrics, and trace, plus the shard
// coordinates. It deliberately omits the runtime attachments (Telemetry,
// Trace, worker count is advisory) — those live in RunOptions and may
// differ between the legs of a paused campaign or between shards
// without affecting any output byte.
//
// Campaign.Fusion's function-table override is not representable; a
// config always uses the default fusion table.
type CampaignConfig struct {
	SUT               string   `json:"sut"`
	Release           string   `json:"release,omitempty"`
	Logics            []string `json:"logics,omitempty"`
	Iterations        int      `json:"iterations,omitempty"`
	SeedPool          int      `json:"seed_pool,omitempty"`
	Seed              int64    `json:"seed"`
	Threads           int      `json:"threads,omitempty"`
	Mode              string   `json:"mode,omitempty"`
	DisableModelCheck bool     `json:"disable_model_check,omitempty"`
	ConcatOnly        bool     `json:"concat_only,omitempty"`
	// MaxPairs and ReplaceProb mirror core.Options.
	MaxPairs    int     `json:"max_pairs,omitempty"`
	ReplaceProb float64 `json:"replace_prob,omitempty"`
	Fuel        int64   `json:"fuel,omitempty"`
	// WallTimeout (nanoseconds) arms the wall-clock watchdog; campaigns
	// using it forfeit bit-identical resume the same way they forfeit
	// thread-count invariance.
	WallTimeout   time.Duration   `json:"wall_timeout_ns,omitempty"`
	ArtifactDir   string          `json:"artifact_dir,omitempty"`
	InjectDefects []string        `json:"inject_defects,omitempty"`
	Backends      []BackendConfig `json:"backends,omitempty"`
	// Oracle and Quorum mirror Campaign.Oracle/Quorum. omitempty keeps
	// pre-consensus checkpoints decodable and known-policy documents
	// byte-identical to what older builds wrote.
	Oracle string `json:"oracle,omitempty"`
	Quorum int    `json:"quorum,omitempty"`
	// Shard/Shards split the task space across independent processes:
	// this config's process classifies exactly the global task ids with
	// id % Shards == Shard. Shards ≤ 1 means unsharded.
	Shard  int `json:"shard,omitempty"`
	Shards int `json:"shards,omitempty"`
}

// withDefaults mirrors Campaign.withDefaults so task counts, families,
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
	if cc.Threads <= 0 {
		cc.Threads = 1
	}
	if cc.Mode == "" {
		cc.Mode = string(ModeFusion)
	}
	if cc.Shards <= 0 {
		cc.Shards = 1
	}
	if cc.Oracle == "" {
		cc.Oracle = string(OracleKnown)
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
	if d.ReplaceProb < 0 || d.ReplaceProb > 1 {
		return fmt.Errorf("harness: config: replace_prob %v outside [0,1]", d.ReplaceProb)
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
	// Mode, oracle, quorum, and backend naming are the runtime
	// Campaign's rules: one validator for both layers.
	cfg, err := d.campaign()
	if err != nil {
		return err
	}
	return validateCampaign(cfg)
}

// campaign builds the runtime Campaign (without telemetry/trace
// attachments), validating each backend config. Call on a defaulted
// config.
func (cc CampaignConfig) campaign() (Campaign, error) {
	cfg := Campaign{
		SUT:               bugdb.SUT(cc.SUT),
		Release:           cc.Release,
		Iterations:        cc.Iterations,
		SeedPool:          cc.SeedPool,
		Seed:              cc.Seed,
		Threads:           cc.Threads,
		Mode:              CampaignMode(cc.Mode),
		DisableModelCheck: cc.DisableModelCheck,
		ConcatOnly:        cc.ConcatOnly,
		Fusion:            core.Options{MaxPairs: cc.MaxPairs, ReplaceProb: cc.ReplaceProb},
		Fuel:              cc.Fuel,
		WallTimeout:       cc.WallTimeout,
		ArtifactDir:       cc.ArtifactDir,
		Oracle:            OraclePolicy(cc.Oracle),
		Quorum:            cc.Quorum,
	}
	for _, l := range cc.Logics {
		cfg.Logics = append(cfg.Logics, gen.Logic(l))
	}
	for _, d := range cc.InjectDefects {
		cfg.InjectDefects = append(cfg.InjectDefects, solver.Defect(d))
	}
	for i, bc := range cc.Backends {
		spec, err := bc.spec()
		if err != nil {
			return Campaign{}, fmt.Errorf("harness: config: backend %d: %w", i, err)
		}
		cfg.Backends = append(cfg.Backends, spec)
	}
	return cfg, nil
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
	for _, spec := range st.cfg.Backends {
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
func foldStates(cfg Campaign, states []savedState) (*runState, error) {
	st := newRunState(cfg)
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
func restoreState(cfg Campaign, s savedState) (*runState, error) {
	st, err := foldStates(cfg, []savedState{s})
	if err != nil {
		return nil, err
	}
	for i, br := range s.Breakers {
		cfg.Backends[i].Health.Restore(br.Streak, br.Open)
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
	nameOK := map[string]bool{"sut": OraclePolicy(d.Oracle) != OracleKnown}
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

// Start runs a campaign (or one shard of it) from task zero.
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
	if err := cc.Validate(); err != nil {
		return nil, err
	}
	dcc := cc.withDefaults()
	cfg, err := dcc.campaign()
	if err != nil {
		return nil, err
	}
	if opt.Threads > 0 {
		cfg.Threads = opt.Threads
	}
	cfg = cfg.withDefaults()

	include := dcc.includeIDs()
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
	cfg.Telemetry = opt.Telemetry

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
		cfg.Trace = io.MultiWriter(opt.Trace, &traceAcc)
	case opt.Trace != nil:
		cfg.Trace = opt.Trace
	case traceAcc.Len() > 0:
		cfg.Trace = &traceAcc
	}

	var st *runState
	if cp != nil {
		st, err = restoreState(cfg, cp.State)
		if err != nil {
			return nil, fmt.Errorf("harness: checkpoint: %v", err)
		}
		st.done = cp.Done
		include = include[cp.Done:]
	} else {
		st = newRunState(cfg)
	}

	ctl := runControls{
		stopAfter:   opt.StopAfter,
		stop:        opt.Stop,
		progress:    opt.Progress,
		suppressVet: cp != nil || dcc.Shard != 0,
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
