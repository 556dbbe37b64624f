// Sharding: a campaign's task space splits across K independent
// processes, each classifying the global task ids congruent to its
// shard index mod K. Every per-task quantity (verdict, fuel delta,
// artifacts, trace record) is computed identically to the unsharded
// run because task RNG derives from (campaign seed, logic, iteration)
// alone and warm state is reconstructed per family; only the
// *cross-task* folds — bug dedup, duplicate counts, backend triage,
// funnel counters, trace finding flags — see a shard-local view.
// Merge re-folds those from the envelopes' trigger-task lists, so the
// merged Result, metrics, and trace are byte-identical to a
// single-process run of the same config.
package harness

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/bugdb"
	"repro/internal/telemetry"
)

// Envelope is one completed shard (or a whole unsharded campaign): the
// config it ran, the per-shard classification state, telemetry
// snapshot, and JSONL trace bytes, in a form Merge can fold. Produced
// by Start/Resume on completion; serialized with EncodeEnvelope.
type Envelope struct {
	Config CampaignConfig `json:"config"`
	// Tasks is the number of task ids this shard classified — always
	// the shard's full allotment, since envelopes only exist for
	// completed runs (a partial run yields a Checkpoint instead).
	Tasks     int                `json:"tasks"`
	State     savedState         `json:"state"`
	Telemetry telemetry.Snapshot `json:"telemetry"`
	Trace     []byte             `json:"trace,omitempty"`
}

// validate checks the envelope's invariants and returns its decoded
// trace records (nil when untraced), so Merge decodes each trace once.
func (e *Envelope) validate() ([]TraceRecord, error) {
	if err := e.Config.Validate(); err != nil {
		return nil, err
	}
	d := e.Config.withDefaults()
	ids := d.includeIDs()
	if e.Tasks != len(ids) {
		return nil, fmt.Errorf("harness: envelope: %d tasks classified, shard %d/%d owns %d (envelopes are complete runs)",
			e.Tasks, d.Shard, d.Shards, len(ids))
	}
	if err := validateState(e.Config, e.State, e.Tasks); err != nil {
		return nil, fmt.Errorf("harness: envelope: %v", err)
	}
	if len(e.Trace) == 0 {
		return nil, nil
	}
	// A traced envelope holds one record per owned task, in task order.
	recs, err := DecodeTrace(bytes.NewReader(e.Trace))
	if err != nil {
		return nil, fmt.Errorf("harness: envelope: %w", err)
	}
	if len(recs) != len(ids) {
		return nil, fmt.Errorf("harness: envelope: trace holds %d records, shard %d/%d owns %d tasks",
			len(recs), d.Shard, d.Shards, len(ids))
	}
	for i, r := range recs {
		if r.Task != ids[i] {
			return nil, fmt.Errorf("harness: envelope: trace record %d is task %d, want %d", i+1, r.Task, ids[i])
		}
	}
	return recs, nil
}

// EncodeEnvelope serializes a shard envelope as a versioned,
// checksummed JSON document.
func EncodeEnvelope(e *Envelope) ([]byte, error) {
	if e == nil {
		return nil, fmt.Errorf("harness: nil envelope")
	}
	if _, err := e.validate(); err != nil {
		return nil, err
	}
	return sealDoc(kindEnvelope, CheckpointSchema, e)
}

// DecodeEnvelope parses and fully validates an envelope document,
// failing closed on any corruption, version skew, or state that
// violates the classification invariants.
func DecodeEnvelope(data []byte) (*Envelope, error) {
	payload, err := openDoc(data, kindEnvelope, CheckpointSchema)
	if err != nil {
		return nil, err
	}
	var e Envelope
	if err := decodeStrict(payload, &e, kindEnvelope); err != nil {
		return nil, err
	}
	if _, err := e.validate(); err != nil {
		return nil, err
	}
	return &e, nil
}

// Merged is the fold of one campaign's shard envelopes: a Result,
// telemetry snapshot, and JSONL trace byte-identical to what a
// single-process run of the same config would have produced.
type Merged struct {
	Result    *Result
	Telemetry telemetry.Snapshot
	Trace     []byte
}

// identityJSON is a config's campaign identity: the defaulted config
// with the fields that legitimately vary across shard processes
// (shard coordinates, worker count, artifact directory) zeroed out.
func identityJSON(cc CampaignConfig) ([]byte, error) {
	d := cc.withDefaults()
	d.Shard = 0
	d.Threads = 0
	d.ArtifactDir = ""
	return json.Marshal(d)
}

// Merge folds the K shard envelopes of one campaign. artifactDir, when
// non-empty, receives a copy of each merged finding's reproducer
// bundle (an unsharded campaign writes exactly those bundles); when
// empty, Result.Artifacts points at the bundles in the shards' own
// artifact directories.
func Merge(envs []*Envelope, artifactDir string) (*Merged, error) {
	if len(envs) == 0 {
		return nil, fmt.Errorf("harness: merge of zero envelopes")
	}
	var traceRecs []TraceRecord
	for i, e := range envs {
		if e == nil {
			return nil, fmt.Errorf("harness: merge: envelope %d is nil", i)
		}
		recs, err := e.validate()
		if err != nil {
			return nil, fmt.Errorf("harness: merge: envelope %d: %w", i, err)
		}
		traceRecs = append(traceRecs, recs...)
	}

	// The envelopes must be the K shards of one campaign: identical
	// identity, shard indices covering 0..K-1 exactly once.
	wantID, err := identityJSON(envs[0].Config)
	if err != nil {
		return nil, err
	}
	shards := envs[0].Config.withDefaults().Shards
	if len(envs) != shards {
		return nil, fmt.Errorf("harness: merge: %d envelopes for a %d-shard campaign", len(envs), shards)
	}
	byShard := make([]*Envelope, shards)
	for i, e := range envs {
		id, err := identityJSON(e.Config)
		if err != nil {
			return nil, err
		}
		if !bytes.Equal(id, wantID) {
			return nil, fmt.Errorf("harness: merge: envelope %d belongs to a different campaign", i)
		}
		s := e.Config.withDefaults().Shard
		if byShard[s] != nil {
			return nil, fmt.Errorf("harness: merge: two envelopes for shard %d", s)
		}
		byShard[s] = e
	}

	// The fold runs on the campaign identity: no shard's artifact
	// directory, and no runtime attachments.
	cc := envs[0].Config
	cc.ArtifactDir = ""
	cfg, err := cc.derive()
	if err != nil {
		return nil, err
	}
	states := make([]savedState, len(byShard))
	for i, e := range byShard {
		states[i] = e.State
	}
	st, err := foldStates(cfg, nil, states)
	if err != nil {
		return nil, fmt.Errorf("harness: merge: %v", err)
	}
	res := st.res
	if err := mergeArtifacts(res, st.seen, byShard, artifactDir); err != nil {
		return nil, err
	}
	sortBugs(res.Bugs)

	snap := mergeTelemetry(byShard, res)
	trace, err := mergeTraces(traceRecs, res)
	if err != nil {
		return nil, err
	}
	return &Merged{Result: res, Telemetry: snap, Trace: trace}, nil
}

// mergeArtifacts re-folds the bundle dedup. A shard writes a bundle at
// its locally-first trigger of a finding, but the unsharded run writes
// one bundle per finding, at its globally-first trigger — so a ref
// survives the merge only when its task is the merged finding's
// recording trigger. The surviving refs, in task order, are exactly
// the single-run bundle list. findingTask maps each merged backend
// finding's dedup key to its recording task. When dstDir is set, each
// surviving bundle is copied there from its shard's artifact directory.
func mergeArtifacts(res *Result, findingTask map[bkKey]int, byShard []*Envelope, dstDir string) error {
	bugTask := map[string]int{}
	for _, b := range res.Bugs {
		bugTask[string(b.Defect)] = b.Tasks[0]
	}
	keep := func(r artifactRef) bool {
		switch {
		case strings.HasPrefix(r.BugType, "backend-"):
			t, ok := findingTask[findingKey(BackendFinding{Backend: r.Backend,
				Kind: bugdb.BugType(strings.TrimPrefix(r.BugType, "backend-")), Oracle: r.Oracle, Observed: r.Observed})]
			return ok && t == r.Task
		case r.Defect != "":
			t, ok := bugTask[r.Defect]
			return ok && t == r.Task
		default:
			// Quarantine bundles are task-local (and only exist under a
			// wall-clock watchdog, where bit-identity is already
			// forfeit): the per-key dedup below is the whole fold.
			return true
		}
	}

	type ref struct {
		artifactRef
		srcDir string
	}
	var all []ref
	for _, e := range byShard {
		dir := e.Config.withDefaults().ArtifactDir
		for _, r := range e.State.Artifacts {
			all = append(all, ref{artifactRef: r, srcDir: dir})
		}
	}
	// Stable sort by task: each task's refs live in exactly one shard's
	// list, already in within-task write order, so stability preserves
	// the single-run order for multi-artifact tasks.
	sort.SliceStable(all, func(i, j int) bool { return all[i].Task < all[j].Task })
	written := map[string]bool{}
	for _, r := range all {
		if written[r.Key] || !keep(r.artifactRef) {
			continue
		}
		written[r.Key] = true
		src := filepath.Join(r.srcDir, r.Key)
		if dstDir == "" {
			res.Artifacts = append(res.Artifacts, src)
			continue
		}
		dst := filepath.Join(dstDir, r.Key)
		if err := copyBundle(src, dst); err != nil {
			return fmt.Errorf("harness: merge: artifact %s: %w", r.Key, err)
		}
		res.Artifacts = append(res.Artifacts, dst)
	}
	return nil
}

func copyBundle(src, dst string) error {
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	for _, ent := range entries {
		if ent.IsDir() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, ent.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, ent.Name()), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// mergeTelemetry sums the shard snapshots, then overwrites the three
// dedup-dependent counters with the merged values: per-shard findings
// over-count duplicates that cross shard boundaries, and the funnel
// invariant (counter totals == Result counts) must hold for the merged
// pair exactly as it does for a single run.
func mergeTelemetry(byShard []*Envelope, res *Result) telemetry.Snapshot {
	var snap telemetry.Snapshot
	any := false
	for _, e := range byShard {
		if len(e.Telemetry.Counters) > 0 || len(e.Telemetry.Histograms) > 0 {
			any = true
		}
		snap.Accumulate(e.Telemetry)
	}
	if !any {
		return telemetry.Snapshot{}
	}
	fix := func(name string, v int) {
		if v == 0 {
			delete(snap.Counters, name)
			return
		}
		if snap.Counters == nil {
			snap.Counters = map[string]int64{}
		}
		snap.Counters[name] = int64(v)
	}
	fix("yy_funnel_findings_total", len(res.Bugs))
	fix("yy_funnel_duplicates_total", res.Duplicates)
	fix("yy_backend_findings_total", len(res.BackendFindings))
	return snap
}

// mergeTraces interleaves the shards' validated trace records into
// global task order and rewrites the two dedup-dependent flags per
// record — finding (this task recorded the bug) and duplicate (it
// re-triggered one) — from the merged trigger lists. Everything else
// in a record is task-local and already identical to the single-run
// record, so re-marshaling yields byte-identical JSONL. No records
// (no shard traced) yields a nil trace.
func mergeTraces(recs []TraceRecord, res *Result) ([]byte, error) {
	if len(recs) == 0 {
		return nil, nil
	}
	finding := map[int]bool{}
	duplicate := map[int]bool{}
	for _, b := range res.Bugs {
		finding[b.Tasks[0]] = true
		for _, t := range b.Tasks[1:] {
			duplicate[t] = true
		}
	}
	sort.SliceStable(recs, func(i, j int) bool { return recs[i].Task < recs[j].Task })
	var buf bytes.Buffer
	for i := range recs {
		recs[i].Finding = finding[recs[i].Task]
		recs[i].Duplicate = duplicate[recs[i].Task]
		data, err := json.Marshal(&recs[i])
		if err != nil {
			return nil, err
		}
		buf.Write(data)
		buf.WriteByte('\n')
	}
	return buf.Bytes(), nil
}
