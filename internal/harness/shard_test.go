package harness

import (
	"bytes"
	"encoding/json"
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/telemetry"
)

// TestShardSplitCoversTaskSpace checks the ownership rule underlying
// sharding: for any K, the shards' task id lists partition [0, total)
// exactly — no id unowned, none owned twice.
func TestShardSplitCoversTaskSpace(t *testing.T) {
	cc := ckptConfig()
	total := cc.withDefaults().total()
	for _, k := range []int{1, 2, 3, 7, total, total + 3} {
		owned := map[int]int{}
		for s := 0; s < k; s++ {
			sc := cc
			sc.Shards, sc.Shard = k, s
			prev := -1
			for _, id := range sc.withDefaults().includeIDs() {
				if id <= prev {
					t.Fatalf("K=%d shard %d ids not ascending at %d", k, s, id)
				}
				prev = id
				if other, dup := owned[id]; dup {
					t.Fatalf("K=%d task %d owned by shards %d and %d", k, id, other, s)
				}
				owned[id] = s
			}
		}
		if len(owned) != total {
			t.Fatalf("K=%d shards own %d of %d tasks", k, len(owned), total)
		}
	}
}

// TestShardMergeDeterminism splits the same campaign K ways for
// several K, runs every shard as its own campaign with a different
// worker count, round-trips each envelope through its serialized form,
// and merges. The merged result fingerprint, telemetry snapshot, JSONL
// trace, and reproducer-bundle tree must be byte-identical to the
// unsharded single-process run — including the cross-shard folds the
// shards cannot see locally: global bug dedup, duplicate counts,
// backend finding dedup, funnel counters, and trace finding flags.
func TestShardMergeDeterminism(t *testing.T) {
	base := ckptConfig()
	refCC := base
	refCC.ArtifactDir = t.TempDir()
	ref, refTrace := runToCompletion(t, refCC)
	refTree := dirSnapshot(t, refCC.ArtifactDir)
	if len(ref.Result.Bugs) == 0 || len(ref.Result.BackendFindings) == 0 || ref.Result.Duplicates == 0 {
		t.Fatalf("reference campaign too tame to exercise the merge folds: %+v", summaryLine(ref))
	}

	for _, k := range []int{2, 3, 7} {
		t.Run(fmt.Sprintf("K=%d", k), func(t *testing.T) {
			shardRoot := t.TempDir()
			envs := make([]*Envelope, k)
			for s := 0; s < k; s++ {
				sc := base
				sc.Shards, sc.Shard = k, s
				sc.ArtifactDir = filepath.Join(shardRoot, fmt.Sprintf("sh%d", s))
				tr := telemetry.NewTracker()
				var tb bytes.Buffer
				out, err := Start(sc, RunOptions{Telemetry: tr, Trace: &tb, Threads: s%3 + 1})
				if err != nil {
					t.Fatalf("shard %d: %v", s, err)
				}
				if out.Paused {
					t.Fatalf("shard %d paused", s)
				}
				data, err := EncodeEnvelope(out.Envelope)
				if err != nil {
					t.Fatalf("shard %d encode: %v", s, err)
				}
				env, err := DecodeEnvelope(data)
				if err != nil {
					t.Fatalf("shard %d decode: %v", s, err)
				}
				// Merge maps envelopes by their shard index, not their
				// position in the argument list.
				envs[k-1-s] = env
			}
			mergedDir := t.TempDir()
			m, err := Merge(envs, mergedDir)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(m.Result.Fingerprint(), ref.Result.Fingerprint()) {
				t.Errorf("merged result diverged:\nref %s\ngot %s",
					ref.Result.Fingerprint(), m.Result.Fingerprint())
			}
			if !reflect.DeepEqual(m.Telemetry, ref.Telemetry) {
				t.Errorf("merged telemetry diverged:\nref %+v\ngot %+v", ref.Telemetry, m.Telemetry)
			}
			if !bytes.Equal(m.Trace, refTrace) {
				t.Errorf("merged trace diverged (%d vs %d bytes)", len(m.Trace), len(refTrace))
			}
			if got := dirSnapshot(t, mergedDir); !reflect.DeepEqual(got, refTree) {
				t.Errorf("merged bundle tree diverged:\nref  %v\ngot %v", keysOf(refTree), keysOf(got))
			}
		})
	}
}

func summaryLine(out *Outcome) string {
	r := out.Result
	return fmt.Sprintf("bugs=%d dups=%d backend=%d", len(r.Bugs), r.Duplicates, len(r.BackendFindings))
}

// TestMergeFailClosed checks Merge refuses envelope sets that are not
// the K shards of one campaign: short sets, duplicated shards, and
// envelopes from a different experiment.
func TestMergeFailClosed(t *testing.T) {
	shardEnv := func(cc CampaignConfig, k, s int) *Envelope {
		t.Helper()
		sc := cc
		sc.Shards, sc.Shard = k, s
		out, err := Start(sc, RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return out.Envelope
	}
	cc := ckptConfig()
	e0 := shardEnv(cc, 2, 0)
	e1 := shardEnv(cc, 2, 1)

	if _, err := Merge(nil, ""); err == nil {
		t.Error("merged zero envelopes")
	}
	if _, err := Merge([]*Envelope{e0}, ""); err == nil {
		t.Error("merged half of a 2-shard campaign")
	}
	if _, err := Merge([]*Envelope{e0, e0}, ""); err == nil {
		t.Error("merged the same shard twice")
	}
	if _, err := Merge([]*Envelope{e0, nil}, ""); err == nil {
		t.Error("merged a nil envelope")
	}

	foreign := cc
	foreign.Seed = 12345
	if _, err := Merge([]*Envelope{e0, shardEnv(foreign, 2, 1)}, ""); err == nil {
		t.Error("merged shards of two different campaigns")
	}

	// Thread count and artifact directory are process-local choices, not
	// campaign identity: envelopes differing only there must merge.
	varied := cc
	varied.Threads = 4
	varied.ArtifactDir = t.TempDir()
	if _, err := Merge([]*Envelope{e0, shardEnv(varied, 2, 1)}, ""); err != nil {
		t.Errorf("thread/artifact variation rejected: %v", err)
	}

	// A merged campaign must also round-trip: the merge of envelopes is
	// rejected when an envelope claims a partial shard. Simulate by
	// tampering the task count.
	bad := *e1
	bad.Tasks--
	if _, err := Merge([]*Envelope{e0, &bad}, ""); err == nil {
		t.Error("merged an envelope with a short task count")
	}

	// A semantically impossible record behind a complete task count: an
	// out-of-range backend verdict would fold into the merged report.
	bad2 := *e1
	bad2.Records = append([]taskRecord(nil), e1.Records...)
	bad2.Records[0].Facts = &taskFacts{Backends: []backendRun{{Verdict: -5}}}
	if _, err := Merge([]*Envelope{e0, &bad2}, ""); err == nil {
		t.Error("merged an envelope with an out-of-range backend verdict")
	}
}

// TestEnvelopeTraceFailClosed checks that an envelope's records — the
// source its trace and result are folded from — are validated on
// encode and decode: exactly one record per task the shard owns, in
// task order, each of a known status.
func TestEnvelopeTraceFailClosed(t *testing.T) {
	cc := ckptConfig()
	cc.Shards, cc.Shard = 2, 1
	out, err := Start(cc, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	env := out.Envelope
	if data, err := EncodeEnvelope(env); err != nil {
		t.Fatalf("valid envelope rejected on encode: %v", err)
	} else if _, err := DecodeEnvelope(data); err != nil {
		t.Fatalf("valid envelope rejected on decode: %v", err)
	}
	recs := env.Records
	if len(recs) < 3 {
		t.Fatalf("envelope has %d records, want at least 3", len(recs))
	}
	join := func(rs ...[]taskRecord) []taskRecord {
		var out []taskRecord
		for _, r := range rs {
			out = append(out, r...)
		}
		return out
	}
	cases := []struct {
		name    string
		records []taskRecord
		want    string // substring of the expected diagnostic
	}{
		{"truncated", recs[:len(recs)-1], "records"},
		{"missing task", join(recs[:1], recs[2:]), "records"},
		{"repeated task", join(recs[:1], recs[:1], recs[2:]), "want"},
		{"foreign task", join([]taskRecord{{Task: recs[0].Task - 1}}, recs[1:]), "want"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			bad := *env
			bad.Records = tc.records
			if _, err := EncodeEnvelope(&bad); err == nil {
				t.Error("encoded an envelope with damaged records")
			}
			// Seal without validation, as a foreign writer could.
			doc, err := sealDoc(kindEnvelope, CheckpointSchema, &bad)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := DecodeEnvelope(doc); err == nil {
				t.Fatal("decoded an envelope with damaged records")
			} else if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("diagnostic %q does not mention %q", err, tc.want)
			}
		})
	}
	t.Run("wrong schema", func(t *testing.T) {
		// Schema 1 envelopes carried folded state and a trace instead of
		// records; this build reads neither.
		doc, err := sealDoc(kindEnvelope, 1, env)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := DecodeEnvelope(doc); err == nil || !strings.Contains(err.Error(), "unsupported schema") {
			t.Errorf("got %v", err)
		}
	})
	// A status this build does not know fails the decode itself.
	payload, err := json.Marshal(env)
	if err != nil {
		t.Fatal(err)
	}
	payload = bytes.Replace(payload, []byte(`"status":"tested"`), []byte(`"status":"frobnicated"`), 1)
	doc, err := sealDoc(kindEnvelope, CheckpointSchema, json.RawMessage(payload))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeEnvelope(doc); err == nil || !strings.Contains(err.Error(), "frobnicated") {
		t.Errorf("unknown status: got %v", err)
	}
}

// TestResumeTracedAfterUntracedPause covers a campaign whose first leg
// ran without a trace writer or tracker and whose later legs attach
// one. The live writers see only their own legs' records, but every
// task has a record whatever the leg, so the envelope folds to the
// uninterrupted traced run's whole trace and metrics — and it still
// encodes, decodes and merges.
func TestResumeTracedAfterUntracedPause(t *testing.T) {
	cc := ckptConfig()
	cc.Shards, cc.Shard = 2, 1
	ids := cc.withDefaults().includeIDs()
	ref, refTrace := runToCompletion(t, cc)
	out, err := Start(cc, RunOptions{StopAfter: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Paused {
		t.Fatal("untraced leg did not pause")
	}
	var live bytes.Buffer
	out, err = Resume(out.Checkpoint, RunOptions{Trace: &live, StopAfter: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Paused {
		t.Fatal("traced leg did not pause")
	}
	data, err := EncodeCheckpoint(out.Checkpoint)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := DecodeCheckpoint(data)
	if err != nil {
		t.Fatal(err)
	}
	out, err = Resume(cp, RunOptions{Trace: &live})
	if err != nil {
		t.Fatal(err)
	}
	recs, err := DecodeTrace(bytes.NewReader(live.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(ids)-2 {
		t.Fatalf("live writers got %d records, want %d", len(recs), len(ids)-2)
	}
	for i, r := range recs {
		if r.Task != ids[i+2] {
			t.Fatalf("live record %d is task %d, want %d", i, r.Task, ids[i+2])
		}
	}
	data, err = EncodeEnvelope(out.Envelope)
	if err != nil {
		t.Fatalf("envelope rejected on encode: %v", err)
	}
	env, err := DecodeEnvelope(data)
	if err != nil {
		t.Fatalf("envelope rejected on decode: %v", err)
	}
	folded, err := env.Fold()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(folded.Trace, refTrace) {
		t.Errorf("envelope trace diverged from the traced run's (%d vs %d bytes)", len(folded.Trace), len(refTrace))
	}
	if !reflect.DeepEqual(folded.Telemetry, ref.Telemetry) {
		t.Error("telemetry diverged from the traced run's")
	}
	other := cc
	other.Shard = 0
	o0, err := Start(other, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Merge([]*Envelope{o0.Envelope, env}, ""); err != nil {
		t.Fatalf("merge: %v", err)
	}
}

// FuzzEnvelopeMerge holds Merge to the identity resume relies on: any
// unsharded envelope the decoder accepts merges alone without error,
// into exactly the envelope's own fold — the same result fingerprint,
// telemetry and trace.
func FuzzEnvelopeMerge(f *testing.F) {
	var tb bytes.Buffer
	out, err := Start(ckptConfig(), RunOptions{Telemetry: telemetry.NewTracker(), Trace: &tb})
	if err != nil {
		f.Fatal(err)
	}
	valid, err := EncodeEnvelope(out.Envelope)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(flipByte(valid, len(valid)/3))

	f.Fuzz(func(t *testing.T, data []byte) {
		e, err := DecodeEnvelope(data)
		if err != nil || e.Config.withDefaults().Shards > 1 {
			return
		}
		m, err := Merge([]*Envelope{e}, "")
		if err != nil {
			t.Fatalf("accepted envelope does not merge alone: %v", err)
		}
		own, err := e.Fold()
		if err != nil {
			t.Fatalf("accepted envelope does not fold: %v", err)
		}
		if !bytes.Equal(m.Result.Fingerprint(), own.Result.Fingerprint()) {
			t.Errorf("merge changed the result:\nown    %s\nmerged %s", own.Result.Fingerprint(), m.Result.Fingerprint())
		}
		if !reflect.DeepEqual(m.Telemetry, own.Telemetry) {
			t.Errorf("merge changed the telemetry:\nown    %+v\nmerged %+v", own.Telemetry, m.Telemetry)
		}
		if !bytes.Equal(m.Trace, own.Trace) {
			t.Errorf("merge changed the trace (%d vs %d bytes)", len(own.Trace), len(m.Trace))
		}
	})
}

// sameSlice is reflect.DeepEqual that does not tell nil from empty.
func sameSlice[T any](a, b []T) bool {
	return len(a) == 0 && len(b) == 0 || reflect.DeepEqual(a, b)
}
