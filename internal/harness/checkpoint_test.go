package harness

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/telemetry"
)

// ckptConfig is the shared small campaign for the checkpoint and shard
// determinism suites: two logics, a cross-check backend, and enough
// iterations that the task space contains multi-member warm-state
// families, SUT bugs, duplicates, and backend findings.
func ckptConfig() CampaignConfig {
	return CampaignConfig{
		SUT:        "z3sim",
		Logics:     []string{"QF_LIA", "QF_S"},
		Iterations: 10,
		SeedPool:   4,
		Seed:       7,
		Backends:   []BackendConfig{{Sim: &SimBackendConfig{SUT: "cvc4sim"}}},
	}
}

// runToCompletion runs cc uninterrupted with telemetry and tracing
// attached, returning the outcome and the live trace bytes.
func runToCompletion(t *testing.T, cc CampaignConfig) (*Outcome, []byte) {
	t.Helper()
	tr := telemetry.NewTracker()
	var tb bytes.Buffer
	out, err := Start(cc, RunOptions{Telemetry: tr, Trace: &tb})
	if err != nil {
		t.Fatal(err)
	}
	if out.Paused || out.Envelope == nil {
		t.Fatal("run did not complete")
	}
	return out, tb.Bytes()
}

// TestCheckpointEveryFrontier kills the campaign at every possible
// frontier, round-trips the checkpoint through its serialized form, and
// resumes with a rotating worker count: result fingerprint, telemetry
// snapshot, concatenated leg traces, and the envelope's folded trace
// must all be byte-identical to the uninterrupted run, no matter
// where the cut lands — family boundaries, mid-family, before and
// after bug and backend-finding recording tasks alike.
func TestCheckpointEveryFrontier(t *testing.T) {
	cc := ckptConfig()
	ref, refTrace := runToCompletion(t, cc)
	total := cc.ShardTaskCount()
	if total < 4 {
		t.Fatalf("campaign too small to cut: %d tasks", total)
	}
	step := 1
	if testing.Short() {
		step = 5
	}
	for stop := 1; stop < total; stop += step {
		tr1 := telemetry.NewTracker()
		var tb1 bytes.Buffer
		out1, err := Start(cc, RunOptions{Telemetry: tr1, Trace: &tb1, StopAfter: stop, Threads: stop%3 + 1})
		if err != nil {
			t.Fatal(err)
		}
		if !out1.Paused {
			t.Fatalf("stop=%d did not pause", stop)
		}
		if out1.Checkpoint.Done != stop {
			t.Fatalf("stop=%d checkpoint frontier %d", stop, out1.Checkpoint.Done)
		}
		data, err := EncodeCheckpoint(out1.Checkpoint)
		if err != nil {
			t.Fatalf("stop=%d encode: %v", stop, err)
		}
		cp, err := DecodeCheckpoint(data)
		if err != nil {
			t.Fatalf("stop=%d decode: %v", stop, err)
		}
		tr2 := telemetry.NewTracker()
		var tb2 bytes.Buffer
		out2, err := Resume(cp, RunOptions{Telemetry: tr2, Trace: &tb2, Threads: (stop+1)%3 + 1})
		if err != nil {
			t.Fatalf("stop=%d resume: %v", stop, err)
		}
		if out2.Paused {
			t.Fatalf("stop=%d resumed leg paused", stop)
		}
		if !bytes.Equal(out2.Result.Fingerprint(), ref.Result.Fingerprint()) {
			t.Errorf("stop=%d result diverged:\nref %s\ngot %s",
				stop, ref.Result.Fingerprint(), out2.Result.Fingerprint())
		}
		if !reflect.DeepEqual(out2.Telemetry, ref.Telemetry) {
			t.Errorf("stop=%d telemetry diverged", stop)
		}
		legs := append(append([]byte(nil), tb1.Bytes()...), tb2.Bytes()...)
		if !bytes.Equal(legs, refTrace) {
			t.Errorf("stop=%d concatenated leg traces diverged (%d vs %d bytes)",
				stop, len(legs), len(refTrace))
		}
		folded, err := out2.Envelope.Fold()
		if err != nil {
			t.Fatalf("stop=%d envelope fold: %v", stop, err)
		}
		if !bytes.Equal(folded.Trace, refTrace) {
			t.Errorf("stop=%d envelope trace diverged", stop)
		}
	}
}

// TestCheckpointChainedResume pauses and resumes the same campaign
// repeatedly — a few tasks per leg, alternating worker counts, every
// hop through the serialized document — and also resumes one
// intermediate checkpoint twice, since a checkpoint is a value: nothing
// about consuming it once may change what a second consumer sees.
func TestCheckpointChainedResume(t *testing.T) {
	cc := ckptConfig()
	ref, refTrace := runToCompletion(t, cc)

	var (
		out      *Outcome
		err      error
		traceAcc bytes.Buffer
		mid      []byte // serialized checkpoint of one intermediate hop
		frontier int
		legs     int
	)
	for {
		var tb bytes.Buffer
		opt := RunOptions{
			Telemetry: telemetry.NewTracker(),
			Trace:     &tb,
			StopAfter: 3,
			Threads:   legs%4 + 1,
		}
		if out == nil {
			out, err = Start(cc, opt)
		} else {
			data, encErr := EncodeCheckpoint(out.Checkpoint)
			if encErr != nil {
				t.Fatalf("leg %d encode: %v", legs, encErr)
			}
			if mid == nil && legs == 2 {
				mid = data
			}
			cp, decErr := DecodeCheckpoint(data)
			if decErr != nil {
				t.Fatalf("leg %d decode: %v", legs, decErr)
			}
			out, err = Resume(cp, opt)
		}
		if err != nil {
			t.Fatalf("leg %d: %v", legs, err)
		}
		traceAcc.Write(tb.Bytes())
		legs++
		if !out.Paused {
			break
		}
		if out.Checkpoint.Done <= frontier {
			t.Fatalf("leg %d: frontier did not advance (%d -> %d)", legs, frontier, out.Checkpoint.Done)
		}
		frontier = out.Checkpoint.Done
		if legs > 200 {
			t.Fatal("campaign never completed")
		}
	}
	if legs < 4 {
		t.Fatalf("chain too short to be interesting: %d legs", legs)
	}
	if !bytes.Equal(out.Result.Fingerprint(), ref.Result.Fingerprint()) {
		t.Errorf("chained result diverged after %d legs:\nref %s\ngot %s",
			legs, ref.Result.Fingerprint(), out.Result.Fingerprint())
	}
	if !reflect.DeepEqual(out.Telemetry, ref.Telemetry) {
		t.Errorf("chained telemetry diverged after %d legs", legs)
	}
	if !bytes.Equal(traceAcc.Bytes(), refTrace) {
		t.Errorf("chained trace diverged after %d legs", legs)
	}

	// Second consumption of the intermediate checkpoint.
	if mid == nil {
		t.Fatal("no intermediate checkpoint captured")
	}
	cp, err := DecodeCheckpoint(mid)
	if err != nil {
		t.Fatal(err)
	}
	again, err := Resume(cp, RunOptions{Telemetry: telemetry.NewTracker(), Threads: 3})
	if err != nil {
		t.Fatal(err)
	}
	if again.Paused {
		t.Fatal("replayed checkpoint paused without a budget")
	}
	if !bytes.Equal(again.Result.Fingerprint(), ref.Result.Fingerprint()) {
		t.Error("resuming the same checkpoint twice diverged")
	}
}

// TestCheckpointAtFrontierZero resumes a checkpoint that classified
// nothing yet (and so recorded no corpus-vetting telemetry): the
// resumed leg counts the vetting itself and reproduces the
// uninterrupted run.
func TestCheckpointAtFrontierZero(t *testing.T) {
	cc := ckptConfig()
	ref, refTrace := runToCompletion(t, cc)
	data, err := EncodeCheckpoint(&Checkpoint{Config: cc})
	if err != nil {
		t.Fatal(err)
	}
	cp, err := DecodeCheckpoint(data)
	if err != nil {
		t.Fatal(err)
	}
	var tb bytes.Buffer
	out, err := Resume(cp, RunOptions{Telemetry: telemetry.NewTracker(), Trace: &tb, Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Result.Fingerprint(), ref.Result.Fingerprint()) {
		t.Error("result diverged")
	}
	if !reflect.DeepEqual(out.Telemetry, ref.Telemetry) {
		t.Errorf("telemetry diverged:\nref %+v\ngot %+v", ref.Telemetry, out.Telemetry)
	}
	if !bytes.Equal(tb.Bytes(), refTrace) {
		t.Error("trace diverged")
	}
}

// TestCheckpointArtifactContinuity cuts a campaign right after its
// first reproducer bundle lands and checks the resumed leg completes
// the artifact directory to exactly the uninterrupted run's tree — no
// re-written, missing, or duplicate bundles.
func TestCheckpointArtifactContinuity(t *testing.T) {
	cc := ckptConfig()
	refCC := cc
	refCC.ArtifactDir = t.TempDir()
	ref, _ := runToCompletion(t, refCC)
	refs := ref.Envelope.Artifacts
	if len(refs) < 2 {
		t.Fatalf("campaign wrote %d bundles, need >= 2 to cut between them", len(refs))
	}

	cutCC := cc
	cutCC.ArtifactDir = t.TempDir()
	stop := refs[0].Task + 1 // first bundle written, the rest pending
	out1, err := Start(cutCC, RunOptions{StopAfter: stop})
	if err != nil {
		t.Fatal(err)
	}
	if !out1.Paused {
		t.Fatalf("stop=%d did not pause", stop)
	}
	data, err := EncodeCheckpoint(out1.Checkpoint)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := DecodeCheckpoint(data)
	if err != nil {
		t.Fatal(err)
	}
	out2, err := Resume(cp, RunOptions{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out2.Result.Fingerprint(), ref.Result.Fingerprint()) {
		t.Error("resumed result diverged")
	}
	want := dirSnapshot(t, refCC.ArtifactDir)
	got := dirSnapshot(t, cutCC.ArtifactDir)
	if !reflect.DeepEqual(want, got) {
		t.Errorf("artifact trees diverged:\nref  %v\ngot %v", keysOf(want), keysOf(got))
	}
}

// dirSnapshot maps every file under dir (by slash-separated relative
// path) to its contents.
func dirSnapshot(t *testing.T, dir string) map[string]string {
	t.Helper()
	snap := map[string]string{}
	err := filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		if err != nil {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		snap[filepath.ToSlash(rel)] = string(data)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

func keysOf(m map[string]string) []string {
	var ks []string
	for k := range m {
		ks = append(ks, k)
	}
	return ks
}

// pausedCheckpoint runs ckptConfig to an arbitrary frontier and returns
// the in-memory checkpoint plus its sealed serialization.
func pausedCheckpoint(t *testing.T) (*Checkpoint, []byte) {
	t.Helper()
	out, err := Start(ckptConfig(), RunOptions{StopAfter: 7})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Paused {
		t.Fatal("campaign did not pause")
	}
	data, err := EncodeCheckpoint(out.Checkpoint)
	if err != nil {
		t.Fatal(err)
	}
	return out.Checkpoint, data
}

// TestCheckpointFailClosed feeds the decoder every class of damage a
// checkpoint document can suffer — truncation, bit rot, trailing junk,
// kind and schema skew, unknown fields, and semantically impossible
// records behind a valid checksum — and requires a diagnostic error for
// each: a damaged checkpoint must never run as a different experiment.
func TestCheckpointFailClosed(t *testing.T) {
	cp, data := pausedCheckpoint(t)

	// Byte-level damage on the serialized document.
	byteCases := []struct {
		name string
		data []byte
		want string // substring of the expected diagnostic
	}{
		{"empty", nil, ""},
		{"not json", []byte("not a checkpoint"), ""},
		{"truncated", data[:len(data)/2], ""},
		{"trailing garbage", append(append([]byte(nil), data...), []byte("{}")...), "trailing"},
		{"bit flip", flipByte(data, len(data)/2), ""},
	}
	for _, tc := range byteCases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := DecodeCheckpoint(tc.data)
			if err == nil {
				t.Fatalf("decoded damaged document: %+v", got)
			}
			if tc.want != "" && !strings.Contains(err.Error(), tc.want) {
				t.Errorf("diagnostic %q does not mention %q", err, tc.want)
			}
		})
	}

	// Document-level skew: a well-formed sealed document that is not a
	// current-schema checkpoint.
	t.Run("wrong kind", func(t *testing.T) {
		out, err := Start(ckptConfig(), RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		env, err := EncodeEnvelope(out.Envelope)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := DecodeCheckpoint(env); err == nil {
			t.Fatal("decoded an envelope as a checkpoint")
		} else if !strings.Contains(err.Error(), kindEnvelope) {
			t.Errorf("diagnostic %q does not name the offending kind", err)
		}
	})
	t.Run("schema skew", func(t *testing.T) {
		// Schema 1 stored folded state instead of records; 99 is a
		// future writer. Neither may be read.
		for _, schema := range []string{"1", "99"} {
			var doc map[string]json.RawMessage
			if err := json.Unmarshal(data, &doc); err != nil {
				t.Fatal(err)
			}
			doc["schema"] = json.RawMessage(schema)
			skewed, err := json.Marshal(doc)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := DecodeCheckpoint(skewed); err == nil {
				t.Fatalf("decoded a schema-%s checkpoint", schema)
			} else if !strings.Contains(err.Error(), "unsupported schema") {
				t.Errorf("diagnostic %q does not mention the schema", err)
			}
		}
	})
	t.Run("checksum mismatch", func(t *testing.T) {
		// Valid JSON, valid kind and schema, payload edited without
		// resealing: only the checksum can catch it.
		tampered := bytes.Replace(data, []byte(`"done": 7`), []byte(`"done": 8`), 1)
		if bytes.Equal(tampered, data) {
			t.Fatal("tamper target not found in document")
		}
		if _, err := DecodeCheckpoint(tampered); err == nil {
			t.Fatal("decoded a tampered payload")
		} else if !strings.Contains(err.Error(), "checksum") {
			t.Errorf("diagnostic %q does not mention the checksum", err)
		}
	})
	t.Run("unknown field", func(t *testing.T) {
		// Properly resealed payload with a field this version does not
		// know — a document from a newer writer must not be half-read,
		// and neither must a config that sets the removed max_pairs.
		for _, field := range []string{"frobnicator", "config.max_pairs"} {
			var payload map[string]json.RawMessage
			raw, err := json.Marshal(cp)
			if err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(raw, &payload); err != nil {
				t.Fatal(err)
			}
			if inner, ok := strings.CutPrefix(field, "config."); ok {
				var config map[string]json.RawMessage
				if err := json.Unmarshal(payload["config"], &config); err != nil {
					t.Fatal(err)
				}
				config[inner] = json.RawMessage("4")
				if payload["config"], err = json.Marshal(config); err != nil {
					t.Fatal(err)
				}
			} else {
				payload[field] = json.RawMessage("true")
			}
			doc, err := sealDoc(kindCheckpoint, CheckpointSchema, payload)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := DecodeCheckpoint(doc); err == nil {
				t.Fatalf("decoded a payload with the unknown field %s", field)
			}
		}
	})

	t.Run("negative count", func(t *testing.T) {
		// Counter increments are positive by construction; a decoded
		// one that is not fails the decode.
		raw, err := json.Marshal(cp)
		if err != nil {
			t.Fatal(err)
		}
		bad := bytes.Replace(raw, []byte(`"yy_solves_total":1`), []byte(`"yy_solves_total":-1`), 1)
		if bytes.Equal(bad, raw) {
			t.Fatal("tamper target not found in checkpoint")
		}
		doc, err := sealDoc(kindCheckpoint, CheckpointSchema, json.RawMessage(bad))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := DecodeCheckpoint(doc); err == nil || !strings.Contains(err.Error(), "not positive") {
			t.Errorf("got %v", err)
		}
	})
	t.Run("damaged witness", func(t *testing.T) {
		// A witness is parsed when it is decoded: text that does not
		// parse, or a field this version does not know, fails the decode.
		raw, err := json.Marshal(cp)
		if err != nil {
			t.Fatal(err)
		}
		for _, to := range []string{`"witness":{"script":"(((`, `"witness":{"frobnicator":1,"script":"`} {
			bad := bytes.Replace(raw, []byte(`"witness":{"script":"`), []byte(to), 1)
			if bytes.Equal(bad, raw) {
				t.Fatal("checkpoint carries no witness")
			}
			doc, err := sealDoc(kindCheckpoint, CheckpointSchema, json.RawMessage(bad))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := DecodeCheckpoint(doc); err == nil || !strings.Contains(err.Error(), "witness") {
				t.Errorf("%s: got %v", to, err)
			}
		}
	})

	// Semantic damage behind a valid seal: EncodeCheckpoint must refuse
	// to produce the document, and a hand-sealed one must not decode.
	// Only records and the state they cannot carry are stored, so the
	// damage is to those: everything else is re-derived by the fold.
	bug, plain := -1, -1 // a task that records a bug, and one that does not
	for i, r := range cp.Records {
		switch {
		case r.Facts != nil && r.Facts.Witness != nil && bug < 0:
			bug = i
		case r.Status == statusTested && r.Facts.Witness == nil && plain < 0:
			plain = i
		}
	}
	if bug < 0 || plain < 0 || len(cp.Records[0].Facts.Backends) == 0 {
		t.Fatalf("checkpoint too tame for the record cases: bug %d, plain %d", bug, plain)
	}
	semCases := []struct {
		name   string
		mutate func(c *Checkpoint)
		want   string // substring of the expected diagnostic ("" = any)
	}{
		{"frontier past the end", func(c *Checkpoint) { c.Done = c.Config.withDefaults().total() + 5 }, ""},
		{"negative frontier", func(c *Checkpoint) { c.Done = -1 }, ""},
		{"records short of the frontier", func(c *Checkpoint) { c.Records = c.Records[:c.Done-1] }, "records for frontier"},
		{"counts exceed frontier", func(c *Checkpoint) { c.Done-- }, "records for frontier"},
		{"repeated task", func(c *Checkpoint) { c.Records[1] = c.Records[0] }, "want"},
		{"tasks out of order", func(c *Checkpoint) { c.Records[0], c.Records[1] = c.Records[1], c.Records[0] }, "want"},
		{"unrunnable config", func(c *Checkpoint) { c.Config.SUT = "no-such-solver" }, ""},
		{"oracle out of range", func(c *Checkpoint) { c.Records[0].Oracle = 7 }, "oracle"},
		{"verdict out of range", func(c *Checkpoint) { c.Records[0].Facts.Observed = -4 }, "observed verdict"},
		{"facts on a task that did not run", func(c *Checkpoint) { c.Records[0].Status, c.Records[0].Facts.Backends = statusSkipped, nil }, "facts"},
		{"backend outputs missing", func(c *Checkpoint) { c.Records[0].Facts.Backends = nil }, "backend outputs"},
		{"backend verdict out of range", func(c *Checkpoint) { c.Records[0].Facts.Backends[0].Verdict = 42 }, "verdict 42"},
		{"negative backend tally", func(c *Checkpoint) { c.Records[0].Facts.Backends[0].Retries = -1 }, "negative retries"},
		{"bug without a witness", func(c *Checkpoint) { c.Records[bug].Facts.Witness = nil }, "without a witness"},
		{"witness on a plain task", func(c *Checkpoint) { c.Records[plain].Facts.Witness = c.Records[bug].Facts.Witness }, "records no bug"},
		{"negative breaker streak", func(c *Checkpoint) { c.Breakers = []breakerState{{Streak: -1}} }, "negative streak"},
		{"bundle without an artifact dir", func(c *Checkpoint) { c.Artifacts = []artifactRef{{Key: "0123456789abcdef"}} }, "artifact dir"},
		{"malformed bundle key", func(c *Checkpoint) {
			c.Config.ArtifactDir = t.TempDir()
			c.Artifacts = []artifactRef{{Key: "../escape"}}
		}, "malformed key"},
	}
	for _, tc := range semCases {
		t.Run(tc.name, func(t *testing.T) {
			bad := cloneCheckpoint(t, cp)
			tc.mutate(bad)
			if _, err := EncodeCheckpoint(bad); err == nil {
				t.Error("encoded a semantically impossible checkpoint")
			} else if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("diagnostic %q does not mention %q", err, tc.want)
			}
			doc, err := sealDoc(kindCheckpoint, CheckpointSchema, bad)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := DecodeCheckpoint(doc); err == nil {
				t.Error("decoded a semantically impossible checkpoint")
			}
		})
	}
}

// cloneCheckpoint deep-copies a checkpoint through its JSON form so
// tests can mutate the copy freely.
func cloneCheckpoint(t *testing.T, cp *Checkpoint) *Checkpoint {
	t.Helper()
	raw, err := json.Marshal(cp)
	if err != nil {
		t.Fatal(err)
	}
	var out Checkpoint
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	return &out
}

func flipByte(data []byte, i int) []byte {
	out := append([]byte(nil), data...)
	out[i] ^= 0x20
	return out
}

// FuzzCheckpointRoundTrip holds the decoder to its contract on
// arbitrary bytes: it either rejects with an error or yields a
// checkpoint that survives encode→decode unchanged. It must never
// panic and never accept a document it cannot faithfully re-emit.
func FuzzCheckpointRoundTrip(f *testing.F) {
	out, err := Start(ckptConfig(), RunOptions{StopAfter: 5})
	if err != nil {
		f.Fatal(err)
	}
	valid, err := EncodeCheckpoint(out.Checkpoint)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add([]byte("{}"))
	f.Add([]byte(`{"kind":"yinyang-checkpoint","schema":2,"checksum":"fnv64a:0000000000000000","payload":{}}`))
	f.Add(valid[:len(valid)/2])
	f.Add(flipByte(valid, len(valid)/3))

	f.Fuzz(func(t *testing.T, data []byte) {
		cp, err := DecodeCheckpoint(data)
		if err != nil {
			return // rejected: fail-closed is the contract
		}
		enc, err := EncodeCheckpoint(cp)
		if err != nil {
			t.Fatalf("accepted checkpoint does not re-encode: %v", err)
		}
		cp2, err := DecodeCheckpoint(enc)
		if err != nil {
			t.Fatalf("re-encoded checkpoint does not decode: %v", err)
		}
		if !reflect.DeepEqual(cp, cp2) {
			t.Fatalf("round trip changed the checkpoint:\nfirst  %+v\nsecond %+v", cp, cp2)
		}
	})
}
