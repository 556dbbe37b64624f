package harness

import (
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/solver"
)

// wildAutoConfig is a small wild-mode campaign under the auto policy
// with a dissenting voter: the cvc4sim 1.7 backend carries the
// guard-collapse defect, so at this seed it both loses a majority vote
// and violates a metamorphic pair relation.
func wildAutoConfig() CampaignConfig {
	return CampaignConfig{
		SUT:               "cvc4sim",
		Release:           "1.5",
		Logics:            []string{"QF_NRA"},
		Iterations:        40,
		SeedPool:          8,
		Seed:              15,
		Mode:              "wild",
		Oracle:            "auto",
		DisableModelCheck: true,
		Backends: []BackendConfig{
			{Sim: &SimBackendConfig{SUT: "cvc4sim", Release: "1.6"}},
			{Sim: &SimBackendConfig{SUT: "cvc4sim", Release: "1.7",
				InjectDefects: []string{string(solver.DefLeGuardCollapse)}}},
		},
	}
}

// TestDocumentGolden pins the document format across builds: a paused
// checkpoint must equal the committed fuzz-corpus seed, for each golden
// campaign the sealed envelope (state, telemetry and trace included)
// and the result fingerprint must equal the files under
// testdata/golden/ byte for byte, and so must every file of the
// wild-auto campaign's reproducer bundles (majority and metamorphic
// findings, manifests and variant scripts included). A refactor of the
// classification state, its serialization or the finding path that
// changes any byte fails here.
func TestDocumentGolden(t *testing.T) {
	t.Run("checkpoint", func(t *testing.T) {
		out, err := Start(ckptConfig(), RunOptions{StopAfter: 5})
		if err != nil {
			t.Fatal(err)
		}
		got, err := EncodeCheckpoint(out.Checkpoint)
		if err != nil {
			t.Fatal(err)
		}
		want := readCorpusBytes(t, filepath.Join("testdata", "fuzz", "FuzzCheckpointRoundTrip", "valid-checkpoint"))
		sameBytes(t, "valid-checkpoint", got, want)
	})
	for _, g := range []struct {
		name string
		cc   CampaignConfig
	}{
		{"ckpt", ckptConfig()},
		{"wild-auto", wildAutoConfig()},
	} {
		t.Run(g.name, func(t *testing.T) {
			out, _ := runToCompletion(t, g.cc)
			env, err := EncodeEnvelope(out.Envelope)
			if err != nil {
				t.Fatal(err)
			}
			for _, doc := range []struct {
				file string
				got  []byte
			}{
				{g.name + ".envelope.json", env},
				{g.name + ".fingerprint.json", out.Result.Fingerprint()},
			} {
				want, err := os.ReadFile(filepath.Join("testdata", "golden", doc.file))
				if err != nil {
					t.Fatal(err)
				}
				sameBytes(t, doc.file, doc.got, want)
			}
		})
	}
	// The bundles come from a run of their own: an artifact directory
	// adds bundle refs to the envelope pinned above.
	t.Run("wild-auto-bundles", func(t *testing.T) {
		cc := wildAutoConfig()
		cc.ArtifactDir = t.TempDir()
		if _, err := Start(cc, RunOptions{}); err != nil {
			t.Fatal(err)
		}
		got := dirSnapshot(t, cc.ArtifactDir)
		want := dirSnapshot(t, filepath.Join("testdata", "golden", "wild-auto.bundles"))
		if len(want) == 0 {
			t.Fatal("no golden bundles")
		}
		if len(got) != len(want) {
			t.Errorf("%d bundle files %v, want %d", len(got), keysOf(got), len(want))
		}
		for name, w := range want {
			sameBytes(t, name, []byte(got[name]), []byte(w))
		}
	})
}

// readCorpusBytes extracts the single []byte value of a go-fuzz corpus
// file.
func readCorpusBytes(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	body, ok := strings.CutPrefix(string(data), "go test fuzz v1\n[]byte(")
	if !ok {
		t.Fatalf("%s: not a single-[]byte corpus file", path)
	}
	body = strings.TrimSuffix(strings.TrimSpace(body), ")")
	s, err := strconv.Unquote(body)
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return []byte(s)
}

// sameBytes reports the first diverging line of two documents.
func sameBytes(t *testing.T, name string, got, want []byte) {
	t.Helper()
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Errorf("%s diverges at line %d:\ngot  %s\nwant %s", name, i+1, gl[i], wl[i])
			return
		}
	}
	t.Errorf("%s: %d bytes, want %d (one is a prefix of the other)", name, len(got), len(want))
}
