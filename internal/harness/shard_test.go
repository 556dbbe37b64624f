package harness

import (
	"bytes"
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

	// Semantically impossible state behind a complete task count: a
	// negative backend tally would fold into the merged report.
	negative := *e1
	negative.State.Backends = append([]BackendReport(nil), e1.State.Backends...)
	negative.State.Backends[0].Checks = -5
	if _, err := Merge([]*Envelope{e0, &negative}, ""); err == nil {
		t.Error("merged an envelope with a negative backend tally")
	}
}

// TestEnvelopeTraceFailClosed checks that an envelope's embedded trace
// is validated on encode and decode: it must hold exactly one record
// per task the shard owns, in task order, each of the current schema.
func TestEnvelopeTraceFailClosed(t *testing.T) {
	cc := ckptConfig()
	cc.Shards, cc.Shard = 2, 1
	var tb bytes.Buffer
	out, err := Start(cc, RunOptions{Telemetry: telemetry.NewTracker(), Trace: &tb})
	if err != nil {
		t.Fatal(err)
	}
	env := out.Envelope
	if data, err := EncodeEnvelope(env); err != nil {
		t.Fatalf("valid traced envelope rejected on encode: %v", err)
	} else if _, err := DecodeEnvelope(data); err != nil {
		t.Fatalf("valid traced envelope rejected on decode: %v", err)
	}
	lines := bytes.SplitAfter(bytes.TrimSuffix(env.Trace, []byte("\n")), []byte("\n"))
	if len(lines) < 3 {
		t.Fatalf("trace has %d records, want at least 3", len(lines))
	}
	join := func(ls ...[]byte) []byte { return bytes.Join(ls, nil) }
	rest := join(lines[2:]...)
	cases := []struct {
		name  string
		trace []byte
		want  string // substring of the expected diagnostic
	}{
		{"truncated line", env.Trace[:len(env.Trace)-len(lines[len(lines)-1])/2], "trace line"},
		{"wrong schema", join(bytes.Replace(lines[0], []byte(fmt.Sprintf(`"schema":%d`, TraceSchema)), []byte(`"schema":99`), 1), lines[1], rest), "schema"},
		{"missing task", join(lines[0], rest), "records"},
		{"repeated task", join(lines[0], lines[0], rest), "want"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			bad := *env
			bad.Trace = tc.trace
			if _, err := EncodeEnvelope(&bad); err == nil {
				t.Error("encoded an envelope with a damaged trace")
			}
			// Seal without validation, as a foreign writer could.
			doc, err := sealDoc(kindEnvelope, CheckpointSchema, &bad)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := DecodeEnvelope(doc); err == nil {
				t.Fatal("decoded an envelope with a damaged trace")
			} else if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("diagnostic %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestResumeTracedAfterUntracedPause covers a campaign whose first leg
// ran without a trace writer and whose later legs attach one. The live
// writers see each traced leg's records, but no whole-shard trace
// exists, so checkpoints and the envelope carry none — and the
// envelope still encodes, decodes and merges.
func TestResumeTracedAfterUntracedPause(t *testing.T) {
	cc := ckptConfig()
	cc.Shards, cc.Shard = 2, 1
	ids := cc.withDefaults().includeIDs()
	out, err := Start(cc, RunOptions{StopAfter: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Paused || len(out.Checkpoint.Trace) != 0 {
		t.Fatalf("untraced leg: paused=%v, checkpoint trace %d bytes", out.Paused, len(out.Checkpoint.Trace))
	}
	var live bytes.Buffer
	out, err = Resume(out.Checkpoint, RunOptions{Trace: &live, StopAfter: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Paused || len(out.Checkpoint.Trace) != 0 {
		t.Fatalf("traced leg: paused=%v, checkpoint trace %d bytes, want none", out.Paused, len(out.Checkpoint.Trace))
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
	if len(out.Envelope.Trace) != 0 {
		t.Fatalf("envelope carries a %d-byte partial trace", len(out.Envelope.Trace))
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
	other := cc
	other.Shard = 0
	o0, err := Start(other, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	m, err := Merge([]*Envelope{o0.Envelope, env}, "")
	if err != nil {
		t.Fatalf("merge: %v", err)
	}
	if m.Trace != nil {
		t.Errorf("merge of untraced envelopes produced a %d-byte trace", len(m.Trace))
	}
}

// FuzzEnvelopeMerge holds the state fold to the identity that resume
// relies on: any unsharded envelope the decoder accepts merges alone
// without error, and the merged tally, backend reports, bugs (defect
// and trigger list) and backend findings equal the envelope's own
// state.
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
		res, s := m.Result, e.State
		if res.Tally != s.Tally {
			t.Errorf("tally changed:\nstate  %+v\nmerged %+v", s.Tally, res.Tally)
		}
		if !sameSlice(res.Backends, s.Backends) {
			t.Errorf("backend reports changed:\nstate  %+v\nmerged %+v", s.Backends, res.Backends)
		}
		if !sameSlice(res.BackendFindings, s.BackendFindings) {
			t.Errorf("backend findings changed:\nstate  %+v\nmerged %+v", s.BackendFindings, res.BackendFindings)
		}
		want, got := map[string][]int{}, map[string][]int{}
		for _, sb := range s.Bugs {
			want[sb.Defect] = sb.Tasks
		}
		for _, b := range res.Bugs {
			got[string(b.Defect)] = b.Tasks
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("bug triggers changed:\nstate  %v\nmerged %v", want, got)
		}
	})
}

// sameSlice is reflect.DeepEqual that does not tell nil from empty.
func sameSlice[T any](a, b []T) bool {
	return len(a) == 0 && len(b) == 0 || reflect.DeepEqual(a, b)
}
