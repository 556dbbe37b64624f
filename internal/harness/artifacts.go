package harness

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"slices"

	"repro/internal/ast"
	"repro/internal/core"
	"repro/internal/smtlib"
	"repro/internal/solver"
)

// ManifestSchema versions the on-disk manifest layout. Schema 2
// embeds the campaign's config in place of schema 1's eleven copied
// campaign fields.
const ManifestSchema = 2

// Manifest is the JSON sidecar of one reproducer bundle. Together with
// the three .smt2 files it makes a finding independently replayable:
// the campaign config plus the task coordinates (logic, iteration)
// regenerate the exact same test case and rebuild the exact same
// solver.
type Manifest struct {
	Schema int `json:"schema"`

	// Campaign is the config of the campaign that filed the bundle,
	// defaults filled, with its per-process fields (Threads,
	// ArtifactDir, Shard, Shards) cleared: bundle bytes do not depend
	// on where the campaign ran.
	Campaign CampaignConfig `json:"campaign"`

	// What was observed.
	BugType      string   `json:"bug_type"` // soundness/crash/performance, or "quarantine"
	Defect       string   `json:"defect,omitempty"`
	Oracle       string   `json:"oracle"`
	Observed     string   `json:"observed"`
	Reason       string   `json:"reason,omitempty"`
	DefectsFired []string `json:"defects_fired,omitempty"`
	FaultMsg     string   `json:"fault_msg,omitempty"`
	FaultStack   string   `json:"fault_stack,omitempty"`

	// Task coordinates: with Campaign.Seed they key the task's RNG.
	Logic     string `json:"logic"`
	Iteration int    `json:"iteration"`
	// Mode is the test's derivation: a fusion mode, or "mutation".
	Mode string `json:"mode,omitempty"`
	// MutationRules lists the operator-mutation rules applied to derive
	// the test case (mutation findings only).
	MutationRules []string `json:"mutation_rules,omitempty"`

	// Backend identity, set on cross-check findings (bug_type
	// "backend-*"): which backend disagreed or failed, its full command
	// line, and the process post-mortem. Recorded so Replay can state
	// which backend a bundle implicates even when the binary is no
	// longer available on the replaying machine.
	Backend        string   `json:"backend,omitempty"`
	BackendArgv    []string `json:"backend_argv,omitempty"`
	BackendExit    int      `json:"backend_exit,omitempty"`
	BackendStderr  string   `json:"backend_stderr,omitempty"`
	BackendRetries int      `json:"backend_retries,omitempty"`

	// Consensus-oracle coordinates, set on majority/metamorphic finding
	// bundles. Votes is the full vote vector ("voter=verdict", SUT
	// first, abstainers included); Consensus the majority outcome;
	// MetaRelation/MetaRules/VariantVerdicts describe the metamorphic
	// pair (the variant script itself is persisted as variant.smt2
	// alongside fused.smt2).
	Votes           []string `json:"votes,omitempty"`
	Consensus       string   `json:"consensus,omitempty"`
	MetaRelation    string   `json:"meta_relation,omitempty"`
	MetaRules       []string `json:"meta_rules,omitempty"`
	VariantVerdicts []string `json:"variant_verdicts,omitempty"`
}

// artifactRef records one written bundle for checkpointing and shard
// merging: the dedup key (also the bundle's directory name), the task
// whose classification wrote it, and the finding's identity. The
// identity lets Merge decide whether the single-process run would have
// written this bundle: a shard records its locally-first trigger of a
// defect, but globally that task may be a duplicate whose bundle the
// unsharded run never writes.
type artifactRef struct {
	Key  string `json:"key"`
	Task int    `json:"task"`
	// BugType is the manifest's bug_type: a SUT bug kind, "quarantine",
	// or "backend-<kind>".
	BugType string `json:"bug_type,omitempty"`
	// Defect is set for SUT bug bundles.
	Defect string `json:"defect,omitempty"`
	// Backend/Oracle/Observed carry a backend finding's dedup
	// coordinates.
	Backend  string `json:"backend,omitempty"`
	Oracle   string `json:"oracle,omitempty"`
	Observed string `json:"observed,omitempty"`
}

// artifactWriter persists reproducer bundles under one directory,
// deduplicated by bug hash. It is only ever called from the in-order
// classification loop, so it needs no locking and writes in a
// deterministic order.
type artifactWriter struct {
	dir     string
	written map[string]bool
	paths   []string
	refs    []artifactRef
	err     error // first write error, surfaced at campaign end
}

func newArtifactWriter(dir string) *artifactWriter {
	return &artifactWriter{dir: dir, written: map[string]bool{}}
}

// restore rehydrates the dedup state from a checkpoint's refs: bundles
// written before the pause (already on disk under the same directory)
// keep suppressing duplicates, and the cumulative path list stays in
// write order.
func (w *artifactWriter) restore(refs []artifactRef) {
	for _, r := range refs {
		w.written[r.Key] = true
		w.paths = append(w.paths, filepath.Join(w.dir, r.Key))
		w.refs = append(w.refs, r)
	}
}

// bugHash identifies a bundle: same SUT, observation kind, defect,
// backend, and fused text hash to the same directory, so duplicate
// triggers do not pile up bundles, while a SUT finding and a backend
// finding on the same fused script get distinct bundles.
func bugHash(sut, release, obs, fusedText string) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%s|%s|%s", sut, release, obs, fusedText)
	return fmt.Sprintf("%016x", h.Sum64())
}

// write persists one bundle: seed1.smt2, seed2.smt2, fused.smt2 (the
// test case — a fused script or a mutant), and manifest.json under
// dir/<bughash>/. task is the classifying task's global id, recorded
// for checkpointing and shard merging. Returns the bundle path (""
// when skipped as a duplicate).
func (w *artifactWriter) write(m Manifest, ancestors [2]*core.Seed, script *smtlib.Script, task int) string {
	return w.writeExtra(m, ancestors, script, task, nil)
}

// writeExtra is write with additional bundle files (name → contents):
// metamorphic findings persist the variant script as variant.smt2.
func (w *artifactWriter) writeExtra(m Manifest, ancestors [2]*core.Seed, script *smtlib.Script, task int, extra map[string]string) string {
	if w == nil {
		return ""
	}
	fusedText := smtlib.Print(script)
	key := bugHash(m.Campaign.SUT, m.Campaign.Release, m.BugType+"|"+m.Defect+"|"+m.FaultMsg+"|"+m.Backend, fusedText)
	if w.written[key] {
		return ""
	}
	w.written[key] = true
	dir := filepath.Join(w.dir, key)
	if err := w.writeBundle(dir, m, ancestors, fusedText, extra); err != nil && w.err == nil {
		w.err = err
	}
	w.paths = append(w.paths, dir)
	w.refs = append(w.refs, artifactRef{
		Key:      key,
		Task:     task,
		BugType:  m.BugType,
		Defect:   m.Defect,
		Backend:  m.Backend,
		Oracle:   m.Oracle,
		Observed: m.Observed,
	})
	return dir
}

func (w *artifactWriter) writeBundle(dir string, m Manifest, ancestors [2]*core.Seed, fusedText string, extra map[string]string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	files := map[string]string{
		"seed1.smt2": smtlib.Print(ancestors[0].Script),
		"seed2.smt2": smtlib.Print(ancestors[1].Script),
		"fused.smt2": fusedText,
	}
	for name, text := range extra {
		files[name] = text
	}
	for name, text := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(text), 0o644); err != nil {
			return err
		}
	}
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "manifest.json"), append(data, '\n'), 0o644)
}

// ReadManifest loads a bundle's manifest.json.
func ReadManifest(bundleDir string) (Manifest, error) {
	var m Manifest
	data, err := os.ReadFile(filepath.Join(bundleDir, "manifest.json"))
	if err != nil {
		return m, err
	}
	if err := json.Unmarshal(data, &m); err != nil {
		return m, err
	}
	if m.Schema != ManifestSchema {
		return m, fmt.Errorf("artifacts: unsupported manifest schema %d", m.Schema)
	}
	return m, nil
}

// ReplayReport is the outcome of replaying one reproducer bundle.
type ReplayReport struct {
	// FusedMatches reports whether the regenerated fused script is
	// byte-identical to the persisted fused.smt2.
	FusedMatches bool
	// ResultMatches reports whether the SUT's verdict equals the
	// manifest's observed verdict.
	ResultMatches bool
	// DefectFired reports whether the manifest's primary defect fired
	// again (vacuously true for quarantine bundles with no defect).
	DefectFired bool
	// VariantMatches reports whether the regenerated metamorphic
	// variant is byte-identical to the persisted variant.smt2
	// (vacuously true for bundles without one).
	VariantMatches bool
	Observed       solver.Result
	// Backend names the cross-check backend a backend-finding bundle
	// implicates ("" for SUT findings). Replay regenerates the fused
	// test and re-runs the SUT, but never re-invokes the backend — the
	// binary may be absent on the replaying machine — so for backend
	// bundles ResultMatches is vacuously true and the manifest's
	// backend_argv/backend_exit/backend_stderr fields carry the
	// original observation.
	Backend string
}

// Exact reports a fully faithful reproduction.
func (r ReplayReport) Exact() bool {
	return r.FusedMatches && r.ResultMatches && r.DefectFired && r.VariantMatches
}

// Replay regenerates the bundle's test case from its recorded
// coordinates alone — the campaign config narrowed to the bundle's
// logic, plus the iteration — and re-runs the solver under test on it,
// verifying the finding reproduces exactly.
func Replay(bundleDir string) (ReplayReport, error) {
	var rep ReplayReport
	m, err := ReadManifest(bundleDir)
	if err != nil {
		return rep, err
	}
	wantFused, err := os.ReadFile(filepath.Join(bundleDir, "fused.smt2"))
	if err != nil {
		return rep, err
	}

	// Every RNG stream is keyed by the logic's name, not its position,
	// so the one-logic campaign regenerates the task's corpus and test.
	// Replay never re-invokes a backend, so the campaign has none.
	cc := m.Campaign
	cc.Logics = []string{m.Logic}
	cc.Backends = nil
	cfg, err := cc.derive()
	if err != nil {
		return rep, err
	}
	pools, corpus, err := buildCorpus(cfg, nil)
	if err != nil {
		return rep, err
	}
	rec, lv := runTask(cfg, pools, ast.NewTable(corpus), m.Iteration)
	f := rec.Facts
	if f == nil {
		return rep, fmt.Errorf("artifacts: task (seed=%d logic=%s iter=%d) produced no fused test on replay", cc.Seed, m.Logic, m.Iteration)
	}
	rep.Observed = f.Observed
	rep.Backend = m.Backend
	rep.FusedMatches = smtlib.Print(lv.script) == string(wantFused)
	if m.Backend != "" {
		// A backend-finding bundle: the observed verdict belongs to the
		// cross-check backend, which Replay does not re-invoke. The SUT
		// replay above still verifies the fused test regenerates.
		rep.ResultMatches = true
	} else {
		rep.ResultMatches = f.Observed.String() == m.Observed ||
			(f.Crashed && m.Observed == "crash") ||
			(rec.Status == statusFault && m.Observed == "internal-fault")
	}
	rep.VariantMatches = true
	if wantVariant, err := os.ReadFile(filepath.Join(bundleDir, "variant.smt2")); err == nil {
		// A metamorphic bundle: the variant must regenerate byte-for-byte
		// from the same coordinates (its RNG stream is the task's
		// metaSeed domain, replayed by runTask under the manifest's
		// oracle policy).
		rep.VariantMatches = lv.variant != nil && smtlib.Print(lv.variant.Script) == string(wantVariant)
	}
	fired := f.Fired
	if v := f.Variant; v != nil {
		fired = slices.Concat(fired, v.Fired)
	}
	rep.DefectFired = m.Defect == "" || slices.Contains(fired, solver.Defect(m.Defect))
	return rep, nil
}
