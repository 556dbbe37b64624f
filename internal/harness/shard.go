// Sharding: a campaign's task space splits across K independent
// processes, each classifying the global task ids congruent to its
// shard index mod K. Every per-task quantity (verdict, fuel delta,
// artifacts, the task record) is computed identically to the unsharded
// run because task RNG derives from (campaign seed, logic, iteration)
// alone and warm caches are scoped to one task; only the
// *cross-task* folds — bug dedup, duplicate counts, backend triage,
// funnel counters, trace finding flags — see a shard-local view. Merge
// replays the shards' records in global task order through the same
// fold, so the merged Result, metrics, and trace are byte-identical to
// a single-process run of the same config.
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
// config it ran and the records of every task it owns with the state
// they cannot carry (see docBody), in a form Merge can fold. Produced
// by Start/Resume on completion; serialized with EncodeEnvelope.
type Envelope struct {
	Config CampaignConfig `json:"config"`
	// Tasks is the number of task ids this shard classified — always
	// the shard's full allotment, since envelopes only exist for
	// completed runs (a partial run yields a Checkpoint instead).
	Tasks int `json:"tasks"`
	docBody
}

func (e *Envelope) validate() error {
	return e.docBody.validate(kindEnvelope, e.Config, e.Tasks, true)
}

// Fold returns the envelope's own Result, telemetry snapshot and trace:
// for an unsharded campaign, exactly what the run reported; for one
// shard, its shard-local view (Merge folds the K shards together).
func (e *Envelope) Fold() (*Merged, error) { return e.docBody.fold(e.Config) }

// EncodeEnvelope serializes a shard envelope as a versioned,
// checksummed JSON document.
func EncodeEnvelope(e *Envelope) ([]byte, error) {
	if e == nil {
		return nil, fmt.Errorf("harness: nil envelope")
	}
	return encodeDoc(kindEnvelope, e, e.validate)
}

// DecodeEnvelope parses and fully validates an envelope document.
func DecodeEnvelope(data []byte) (*Envelope, error) {
	var e Envelope
	if err := decodeDoc(data, kindEnvelope, &e, e.validate); err != nil {
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
	for i, e := range envs {
		if e == nil {
			return nil, fmt.Errorf("harness: merge: envelope %d is nil", i)
		}
		if err := e.validate(); err != nil {
			return nil, fmt.Errorf("harness: merge: envelope %d: %w", i, err)
		}
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
	// directory, no sharding, and no runtime attachments. It replays
	// every shard's records in global task order, exactly as a single
	// process classifies them.
	cc := envs[0].Config
	cc.ArtifactDir, cc.Shard, cc.Shards = "", 0, 0
	cfg, err := cc.derive()
	if err != nil {
		return nil, err
	}
	var recs []taskRecord
	var vetting []telemetry.Snapshot
	breakers := make([]breakerState, len(cfg.specs))
	for _, e := range byShard {
		recs = append(recs, e.Records...)
		vetting = append(vetting, e.Vetting)
		// A backend ends the merged campaign quarantined if its breaker
		// opened in any shard.
		for i, br := range e.Breakers {
			breakers[i].Open = breakers[i].Open || br.Open
		}
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].Task < recs[j].Task })
	st, m, err := foldRecords(cfg, recs, vetting, breakers)
	if err != nil {
		return nil, fmt.Errorf("harness: merge: %v", err)
	}
	res := m.Result
	if err := mergeArtifacts(res, st.seen, byShard, artifactDir); err != nil {
		return nil, err
	}
	return m, nil
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
		for _, r := range e.Artifacts {
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
