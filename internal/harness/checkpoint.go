// Checkpoint/resume for campaigns. A Checkpoint stores a campaign's
// funnel position — the classification frontier plus the task record
// of every task classified so far, the corpus-vetting telemetry, the
// breaker positions and the bundles written — as a versioned,
// checksummed JSON document. Resume replays the records through the
// classification fold, which rebuilds every piece of derived state
// (tallies, dedup maps, backend triage, telemetry), and continues:
// because every RNG stream derives from (campaign seed, logic,
// iteration) and classification is strict task-id order, the resumed
// campaign's results, metrics, and JSONL trace are byte-identical to
// an uninterrupted run's.
//
// The frontier is a single integer: classification folds records in
// strict global task order, so "Done = N" means exactly the first N
// included task ids are classified — there are never holes. Warm
// caches are scoped to one task, so the resumed leg runs exactly the
// tasks past the frontier.
package harness

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"path/filepath"
	"regexp"
	"time"

	"repro/internal/ast"
	"repro/internal/backend"
	"repro/internal/bugdb"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/smtlib"
	"repro/internal/solver"
	"repro/internal/telemetry"
)

// CheckpointSchema versions the checkpoint and envelope payload layout.
// Decoding any other schema fails closed: a version-skewed checkpoint
// must never resume silently wrong. Schema 2 stores task records in
// place of schema 1's folded classification state, telemetry and trace.
const CheckpointSchema = 2

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
// from the checkpoint. A sim backend's defect set is resolved here,
// once: every instance's solver only reads it.
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
	name, fuel := bc.name(), bc.Sim.Fuel
	// validate resolved the release: DefectsIn cannot fail here.
	defects, _ := bugdb.DefectsIn(bugdb.SUT(bc.Sim.SUT), bc.Sim.release())
	for _, d := range bc.Sim.InjectDefects {
		defects[solver.Defect(d)] = true
	}
	return backend.Spec{
		Name:     name,
		Hermetic: true,
		New: func(terms *ast.Table) backend.Backend {
			return backend.NewSim(name, solver.New(solver.Config{Defects: defects, Fuel: fuel, Terms: terms}))
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
	// ReplaceProb tunes the fusion engine (core.Options; 0 = its
	// default). Campaigns fuse with core's default pair bound.
	ReplaceProb float64 `json:"replace_prob,omitempty"`
	// FusionTable names the fusion-function table (core.TableNamed):
	// "" is the paper's Figure 6, and the synthesized tables draw from
	// Seed+17.
	FusionTable string `json:"fusion_table,omitempty"`
	// Fuel bounds every solver invocation by a deterministic step count
	// (solver.Config.Fuel): 0 uses the solver default, a positive value
	// overrides it, and a negative value disables the meter.
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

// Size bounds of a runnable campaign. Validate rejects a config whose
// task total (logics × iterations) exceeds MaxTasks, whose seed pool
// exceeds MaxSeedPool, or whose worker count exceeds MaxThreads: each
// sizes per-task, per-slot or per-worker allocations, and an unbounded
// size would let one oversized document or HTTP request exhaust the
// process's memory. A RunOptions.Threads above MaxThreads is clamped.
const (
	MaxTasks    = 1 << 20
	MaxSeedPool = 1 << 12
	MaxThreads  = 256
)

// withDefaults fills every defaulted field, so task counts and RNG
// coordinates computed from a config match the running
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
	// Divide rather than multiply: the product can overflow.
	if d.Iterations > MaxTasks/len(d.Logics) {
		return fmt.Errorf("harness: config: %d logics × %d iterations exceeds %d tasks", len(d.Logics), d.Iterations, MaxTasks)
	}
	if cc.SeedPool < 0 {
		return fmt.Errorf("harness: config: negative seed pool %d", cc.SeedPool)
	}
	if cc.SeedPool > MaxSeedPool {
		return fmt.Errorf("harness: config: seed pool %d exceeds %d", cc.SeedPool, MaxSeedPool)
	}
	if cc.Threads > MaxThreads {
		return fmt.Errorf("harness: config: %d threads exceeds %d", cc.Threads, MaxThreads)
	}
	for _, l := range d.Logics {
		if _, err := gen.New(gen.Logic(l), 0); err != nil {
			return fmt.Errorf("harness: config: %v", err)
		}
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
	// fusion carries ReplaceProb and the named table.
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
	c.defects, _ = cc.SUTDefects()
	table, _ := core.TableNamed(c.FusionTable, c.Seed+17)
	c.fusion = core.Options{ReplaceProb: c.ReplaceProb, Table: table}
	for _, bc := range c.Backends {
		c.specs = append(c.specs, bc.spec())
	}
	return c, nil
}

// SUTDefects returns the defect set of the campaign's solver under
// test: the catalogue entries present in its release plus
// InjectDefects. A reducer that replays a finding builds its solver
// from this set, so it sees the defects the campaign saw.
func (cc CampaignConfig) SUTDefects() (map[solver.Defect]bool, error) {
	d := cc.withDefaults()
	defects, err := bugdb.DefectsIn(bugdb.SUT(d.SUT), d.Release)
	if err != nil {
		return nil, err
	}
	for _, id := range d.InjectDefects {
		defects[solver.Defect(id)] = true
	}
	return defects, nil
}

// total is the campaign-wide task count. Call on a defaulted config.
func (cc CampaignConfig) total() int { return len(cc.Logics) * cc.Iterations }

// ShardTaskCount returns the number of tasks this config's process
// classifies: the whole campaign when unsharded, this shard's
// allotment otherwise. It counts without listing the ids, so it is
// safe on any config, validated or not.
func (cc CampaignConfig) ShardTaskCount() int {
	d := cc.withDefaults()
	if d.Iterations <= 0 || d.Iterations > MaxTasks/len(d.Logics) {
		return 0
	}
	n, _, _ := d.shardSpan()
	return n
}

// shardSpan describes the global task ids this shard classifies: n ids
// forming the progression first, first+step, … (id % Shards == Shard).
// Call on a defaulted, validated config.
func (cc CampaignConfig) shardSpan() (n, first, step int) {
	total := cc.total()
	if cc.Shards <= 1 {
		return total, 0, 1
	}
	if cc.Shard >= total {
		return 0, cc.Shard, cc.Shards
	}
	return (total - cc.Shard + cc.Shards - 1) / cc.Shards, cc.Shard, cc.Shards
}

// includeIDs lists the global task ids this shard classifies, in
// ascending order. Call on a defaulted, validated config.
func (cc CampaignConfig) includeIDs() []int {
	n, first, step := cc.shardSpan()
	ids := make([]int, n)
	for i := range ids {
		ids[i] = first + i*step
	}
	return ids
}

// savedBug is one deduplicated finding as the fingerprint renders it.
// Enum-valued fields are rendered as their integer representations.
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

// fingerprint is the canonical rendering of a Result.
type fingerprint struct {
	Tally
	Bugs            []savedBug       `json:"bugs,omitempty"`
	Backends        []BackendReport  `json:"backends,omitempty"`
	BackendFindings []BackendFinding `json:"backend_findings,omitempty"`
	Artifacts       []artifactRef    `json:"artifacts,omitempty"`
}

// Fingerprint returns a canonical serialization of everything the
// campaign observed: the funnel counts, the findings (scripts in
// printed form, triggers in task order), the backend reports and
// findings, and the artifact bundle keys. Two Results describe the
// same campaign outcome iff their fingerprints are byte-identical;
// the determinism suites and the CLI compare resumed and sharded runs
// against uninterrupted references with it. (Plain DeepEqual on
// Result is too strong a comparison across process boundaries: a
// replayed Bug's script is re-parsed from its printed witness, which
// is textually canonical but not pointer-identical.)
func (r *Result) Fingerprint() []byte {
	fp := fingerprint{Tally: r.Tally, Backends: r.Backends, BackendFindings: r.BackendFindings}
	for _, b := range r.Bugs {
		sb := savedBug{
			Defect:     string(b.Defect),
			Kind:       string(b.Kind),
			Logic:      string(b.Logic),
			Oracle:     int(b.Oracle),
			Observed:   int(b.Observed),
			FusionMode: int(b.Mode),
			Rules:      b.Rules,
			Script:     smtlib.Print(b.Script),
			Tasks:      b.Tasks,
		}
		for i, a := range b.Ancestors {
			sb.Seeds[i] = savedSeed{Script: smtlib.Print(a.Script), Status: a.Status}
		}
		fp.Bugs = append(fp.Bugs, sb)
	}
	for _, p := range r.Artifacts {
		// The bundle key alone: merged artifacts live under a different
		// parent directory than any shard's, by design.
		fp.Artifacts = append(fp.Artifacts, artifactRef{Key: filepath.Base(p)})
	}
	data, err := json.MarshalIndent(fp, "", "  ")
	if err != nil {
		// fingerprint is plain data; Marshal cannot fail on it.
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

// breakersOf captures the backends' breaker positions.
func breakersOf(cfg *campaign) []breakerState {
	var brs []breakerState
	for _, spec := range cfg.specs {
		streak, open := spec.Health.State()
		brs = append(brs, breakerState{Streak: streak, Open: open})
	}
	return brs
}

// docBody is what checkpoints and envelopes store besides their config
// and frontier: the task records up to the frontier, the corpus-vetting
// telemetry (empty on non-zero shards), and the two pieces of process
// state a record cannot carry: the backends' breaker positions and the
// reproducer bundles written. Everything else a document reports — its
// Result, telemetry snapshot and trace — is a fold of these.
type docBody struct {
	Records   []taskRecord       `json:"records"`
	Vetting   telemetry.Snapshot `json:"vetting"`
	Breakers  []breakerState     `json:"breakers,omitempty"`
	Artifacts []artifactRef      `json:"artifacts,omitempty"`
}

// validate checks a document against its config and its frontier of
// done classified tasks, which a complete document (an envelope) must
// reach: the config, the records (see validateRecords), the stored
// breaker and bundle state, and a replay of the fold, which must find a
// witness on exactly the tasks that record a bug.
func (b *docBody) validate(kind string, cc CampaignConfig, done int, complete bool) error {
	cfg, err := cc.derive()
	if err != nil {
		return err
	}
	if err := b.check(cfg, done, complete); err != nil {
		return fmt.Errorf("harness: %s: %v", kind, err)
	}
	return nil
}

func (b *docBody) check(cfg *campaign, done int, complete bool) error {
	d := cfg.CampaignConfig
	n, _, _ := d.shardSpan()
	switch {
	case done < 0 || done > n || complete && done != n:
		return fmt.Errorf("frontier %d, shard %d/%d owns %d tasks", done, d.Shard, d.Shards, n)
	case len(b.Records) != done:
		return fmt.Errorf("%d records for frontier %d", len(b.Records), done)
	case len(b.Breakers) != 0 && len(b.Breakers) != len(d.Backends):
		return fmt.Errorf("%d breaker entries for %d configured backends", len(b.Breakers), len(d.Backends))
	}
	if err := validateRecords(d, b.Records); err != nil {
		return err
	}
	for i, br := range b.Breakers {
		if br.Streak < 0 {
			return fmt.Errorf("breakers[%d]: negative streak %d", i, br.Streak)
		}
	}
	classified := map[int]bool{}
	for _, r := range b.Records {
		classified[int(r.Task)] = true
	}
	for i, r := range b.Artifacts {
		switch {
		case d.ArtifactDir == "":
			return fmt.Errorf("artifacts[%d]: ref without an artifact dir in the config", i)
		case !bundleKey.MatchString(r.Key):
			return fmt.Errorf("artifacts[%d]: malformed key %q", i, r.Key)
		case !classified[r.Task]:
			return fmt.Errorf("artifacts[%d]: task %d not classified at the frontier", i, r.Task)
		}
	}
	st := newRunState(cfg, nil)
	for i, r := range b.Records {
		fl, err := st.apply(r, nil, nil)
		if err != nil {
			return err
		}
		if r.Facts != nil && r.Facts.Witness != nil && !fl.finding {
			return fmt.Errorf("record %d (task %d): witness on a task that records no bug", i, r.Task)
		}
	}
	return nil
}

// bundleKey matches a bundle directory name (bugHash's rendering).
var bundleKey = regexp.MustCompile(`^[0-9a-f]{16}$`)

// foldRecords replays records, in task order, with the vetting
// telemetry into a fresh run state for cfg, and finishes it: the
// Result (artifacts not yet filled), telemetry snapshot and trace they
// fold to.
func foldRecords(cfg *campaign, recs []taskRecord, vetting []telemetry.Snapshot, breakers []breakerState) (*runState, *Merged, error) {
	st := newRunState(cfg, nil)
	for _, v := range vetting {
		st.tr.Merge(v)
	}
	var trace bytes.Buffer
	jw := telemetry.NewJSONLWriter(&trace)
	if err := st.replay(recs, jw); err != nil {
		return nil, nil, err
	}
	if err := jw.Close(); err != nil {
		return nil, nil, err
	}
	res, _ := finish(st, breakers)
	return st, &Merged{Result: res, Telemetry: st.tr.Snapshot(), Trace: trace.Bytes()}, nil
}

// fold is a document's own Result, telemetry snapshot and trace; the
// Result's artifact paths point into the config's artifact directory.
func (b *docBody) fold(cc CampaignConfig) (*Merged, error) {
	cfg, err := cc.derive()
	if err != nil {
		return nil, err
	}
	_, m, err := foldRecords(cfg, b.Records, []telemetry.Snapshot{b.Vetting}, b.Breakers)
	if err != nil {
		return nil, err
	}
	for _, r := range b.Artifacts {
		m.Result.Artifacts = append(m.Result.Artifacts, filepath.Join(cfg.ArtifactDir, r.Key))
	}
	return m, nil
}

// Checkpoint is a paused campaign: its identity (Config), its frontier
// (Done tasks classified, in this shard's ascending task order), and
// the records up to that frontier with the state they cannot carry (see
// docBody). Serialize with EncodeCheckpoint; continue with Resume.
type Checkpoint struct {
	Config CampaignConfig `json:"config"`
	// Done is the classification frontier: the number of this shard's
	// task ids (ascending) already classified, cumulative across legs.
	Done int `json:"done"`
	docBody
}

func (cp *Checkpoint) validate() error {
	return cp.docBody.validate(kindCheckpoint, cp.Config, cp.Done, false)
}

// Fold returns the checkpoint's partial Result, telemetry snapshot and
// trace at its frontier: exactly what the paused leg reported.
func (cp *Checkpoint) Fold() (*Merged, error) { return cp.docBody.fold(cp.Config) }

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

// decodeStrict decodes exactly one JSON value into v: unknown fields
// and trailing data fail.
func decodeStrict(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if dec.More() {
		return fmt.Errorf("trailing data")
	}
	return nil
}

// encodeDoc seals a document after validating it, so an impossible
// document is caught at the producer, not the consumer.
func encodeDoc(kind string, doc any, validate func() error) ([]byte, error) {
	if err := validate(); err != nil {
		return nil, err
	}
	return sealDoc(kind, CheckpointSchema, doc)
}

// decodeDoc verifies the outer document, decodes its payload into doc
// and validates it. Any corruption — framing, kind or schema skew,
// checksum mismatch, unknown fields, or records that violate the
// document invariants — fails with a diagnostic.
func decodeDoc(data []byte, kind string, doc any, validate func() error) error {
	var s sealed
	if err := decodeStrict(data, &s); err != nil {
		return fmt.Errorf("harness: %s: %v", kind, err)
	}
	if s.Kind != kind {
		return fmt.Errorf("harness: expected a %s document, got kind %q", kind, s.Kind)
	}
	if s.Schema != CheckpointSchema {
		return fmt.Errorf("harness: %s: unsupported schema %d (this build reads schema %d)", kind, s.Schema, CheckpointSchema)
	}
	got, err := payloadChecksum(s.Payload)
	if err != nil {
		return fmt.Errorf("harness: %s: payload: %v", kind, err)
	}
	if got != s.Checksum {
		return fmt.Errorf("harness: %s: payload checksum mismatch: document says %s, payload hashes to %s", kind, s.Checksum, got)
	}
	if err := decodeStrict(s.Payload, doc); err != nil {
		return fmt.Errorf("harness: %s payload: %v", kind, err)
	}
	return validate()
}

// EncodeCheckpoint serializes a checkpoint as a versioned, checksummed
// JSON document.
func EncodeCheckpoint(cp *Checkpoint) ([]byte, error) {
	if cp == nil {
		return nil, fmt.Errorf("harness: nil checkpoint")
	}
	return encodeDoc(kindCheckpoint, cp, cp.validate)
}

// DecodeCheckpoint parses and fully validates a checkpoint document; a
// checkpoint that decodes is safe to Resume.
func DecodeCheckpoint(data []byte) (*Checkpoint, error) {
	var cp Checkpoint
	if err := decodeDoc(data, kindCheckpoint, &cp, cp.validate); err != nil {
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
	// use the config's; above MaxThreads, MaxThreads). Results are
	// invariant to it either way.
	Threads int
	// Telemetry, when non-nil, receives the campaign's aggregated
	// metrics. On resume the checkpoint's records are folded in first,
	// so the final snapshot equals an uninterrupted run's.
	Telemetry *telemetry.Tracker
	// Trace, when non-nil, receives this leg's JSONL trace records —
	// only the new ones, so a resuming process can append to the file
	// the paused process was writing. A document's whole trace is a
	// fold of its records (Checkpoint.Fold, Envelope.Fold).
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
	// counts carried from pre-pause legs, when the leg ran with
	// RunOptions.Telemetry (empty otherwise; a document's metrics are
	// always available from its Fold).
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
		cfg.Threads = min(opt.Threads, MaxThreads)
	}

	st := newRunState(cfg, opt.Telemetry)
	if cfg.ArtifactDir != "" {
		st.aw = newArtifactWriter(cfg.ArtifactDir)
	}
	if cp != nil {
		// Resume replays the checkpoint's records: the fold rebuilds
		// every piece of derived state exactly as the paused leg had it.
		for i, br := range cp.Breakers {
			cfg.specs[i].Health.Restore(br.Streak, br.Open)
		}
		st.vetting = cp.Vetting
		st.tr.Merge(cp.Vetting)
		if err := st.replay(cp.Records, nil); err != nil {
			return nil, fmt.Errorf("harness: checkpoint: %v", err)
		}
		if st.aw != nil {
			st.aw.restore(cp.Artifacts)
		}
	}

	ctl := runControls{
		stopAfter:   opt.StopAfter,
		stop:        opt.Stop,
		progress:    opt.Progress,
		trace:       opt.Trace,
		suppressVet: cfg.Shard != 0 || len(st.records) > 0,
	}
	paused, err := runLeg(st, cfg.includeIDs()[len(st.records):], ctl)
	if err != nil {
		return nil, err
	}

	body := docBody{Records: st.records, Vetting: st.vetting, Breakers: breakersOf(cfg)}
	if st.aw != nil {
		body.Artifacts = append([]artifactRef(nil), st.aw.refs...)
	}
	out := &Outcome{Paused: paused}
	if opt.Telemetry != nil {
		out.Telemetry = st.tr.Snapshot()
	}
	if paused {
		out.Checkpoint = &Checkpoint{Config: cc, Done: len(st.records), docBody: body}
	} else {
		out.Envelope = &Envelope{Config: cc, Tasks: len(st.records), docBody: body}
	}
	if out.Result, err = finish(st, body.Breakers); err != nil {
		return nil, err
	}
	return out, nil
}
