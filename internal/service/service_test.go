package service

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/harness"
)

// smallConfig is the suite's stock campaign: one logic, a cross-check
// backend, small enough that a full run takes well under a second.
func smallConfig() harness.CampaignConfig {
	return harness.CampaignConfig{
		SUT:        "z3sim",
		Logics:     []string{"QF_LIA"},
		Iterations: 8,
		SeedPool:   3,
		Seed:       11,
		Backends:   []harness.BackendConfig{{Sim: &harness.SimBackendConfig{SUT: "cvc4sim"}}},
	}
}

// bigConfig is large enough that a pause requested right after submit
// always lands before the campaign completes.
func bigConfig() harness.CampaignConfig {
	cc := smallConfig()
	cc.Logics = []string{"QF_LIA", "QF_S"}
	cc.Iterations = 100
	return cc
}

func newTestServer(t *testing.T, spool string) (*Server, *httptest.Server) {
	t.Helper()
	srv, err := New(spool)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, ts
}

func request(t *testing.T, method, url string, body []byte) (int, []byte) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

func submit(t *testing.T, ts *httptest.Server, req submitRequest) Info {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	code, data := request(t, http.MethodPost, ts.URL+"/api/v1/campaigns", body)
	if code != http.StatusCreated {
		t.Fatalf("submit: %d %s", code, data)
	}
	var info Info
	if err := json.Unmarshal(data, &info); err != nil {
		t.Fatal(err)
	}
	return info
}

// waitState polls inspect until the job reaches want (failing fast if
// it lands in failed instead).
func waitState(t *testing.T, ts *httptest.Server, id, want string) Info {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		code, data := request(t, http.MethodGet, ts.URL+"/api/v1/campaigns/"+id, nil)
		if code != http.StatusOK {
			t.Fatalf("inspect %s: %d %s", id, code, data)
		}
		var info Info
		if err := json.Unmarshal(data, &info); err != nil {
			t.Fatal(err)
		}
		if info.State == want {
			return info
		}
		if info.State == StateFailed && want != StateFailed {
			t.Fatalf("job %s failed: %s", id, info.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s waiting for %s", id, info.State, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestLifecycleByteIdentity walks the full control-plane lifecycle —
// submit with a task budget, park paused, download the checkpoint,
// resume with a different worker count, inspect to completion — and
// holds the service to the harness's determinism bar: the envelope of
// the paused-and-resumed job must be byte-identical to that of a job
// that ran straight through, and the streamed trace must equal the
// envelope's.
func TestLifecycleByteIdentity(t *testing.T) {
	_, ts := newTestServer(t, "")

	cut := submit(t, ts, submitRequest{Config: smallConfig(), StopAfter: 2})
	info := waitState(t, ts, cut.ID, StatePaused)
	if info.Done != 2 {
		t.Fatalf("paused at frontier %d, budget was 2", info.Done)
	}
	if info.Total != smallConfig().ShardTaskCount() {
		t.Fatalf("total %d, want %d", info.Total, smallConfig().ShardTaskCount())
	}

	code, cpData := request(t, http.MethodGet, ts.URL+"/api/v1/campaigns/"+cut.ID+"/checkpoint", nil)
	if code != http.StatusOK {
		t.Fatalf("checkpoint: %d %s", code, cpData)
	}
	cp, err := harness.DecodeCheckpoint(cpData)
	if err != nil {
		t.Fatalf("served checkpoint does not decode: %v", err)
	}
	if cp.Done != 2 {
		t.Fatalf("served checkpoint frontier %d", cp.Done)
	}

	code, data := request(t, http.MethodPost, ts.URL+"/api/v1/campaigns/"+cut.ID+"/resume", []byte(`{"threads": 3}`))
	if code != http.StatusAccepted {
		t.Fatalf("resume: %d %s", code, data)
	}
	waitState(t, ts, cut.ID, StateDone)

	straight := submit(t, ts, submitRequest{Config: smallConfig()})
	waitState(t, ts, straight.ID, StateDone)

	var envs [2][]byte
	var traces [2][]byte
	for i, id := range []string{cut.ID, straight.ID} {
		code, env := request(t, http.MethodGet, ts.URL+"/api/v1/campaigns/"+id+"/envelope", nil)
		if code != http.StatusOK {
			t.Fatalf("envelope %s: %d %s", id, code, env)
		}
		if _, err := harness.DecodeEnvelope(env); err != nil {
			t.Fatalf("served envelope does not decode: %v", err)
		}
		envs[i] = env
		code, tr := request(t, http.MethodGet, ts.URL+"/api/v1/campaigns/"+id+"/trace", nil)
		if code != http.StatusOK {
			t.Fatalf("trace %s: %d", id, code)
		}
		traces[i] = tr
	}
	if !bytes.Equal(envs[0], envs[1]) {
		t.Error("paused-and-resumed envelope differs from straight-run envelope")
	}
	if !bytes.Equal(traces[0], traces[1]) {
		t.Error("paused-and-resumed trace differs from straight-run trace")
	}
	env, err := harness.DecodeEnvelope(envs[0])
	if err != nil {
		t.Fatal(err)
	}
	folded, err := env.Fold()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(traces[0], folded.Trace) {
		t.Error("streamed trace differs from the envelope's folded trace")
	}
	for _, line := range bytes.Split(bytes.TrimSuffix(traces[0], []byte("\n")), []byte("\n")) {
		if !json.Valid(line) {
			t.Fatalf("trace stream line is not JSON: %q", line)
		}
	}

	// Metrics: the per-job scrape and the fleet scrape both expose the
	// funnel sentinel with a live value.
	for _, path := range []string{"/api/v1/campaigns/" + cut.ID + "/metrics", "/metrics"} {
		code, prom := request(t, http.MethodGet, ts.URL+path, nil)
		if code != http.StatusOK {
			t.Fatalf("%s: %d", path, code)
		}
		sentinel := false
		for _, line := range strings.Split(string(prom), "\n") {
			if strings.HasPrefix(line, "yy_funnel_solved_total ") && !strings.HasPrefix(line, "yy_funnel_solved_total 0") {
				sentinel = true
			}
		}
		if !sentinel {
			t.Errorf("%s: no live yy_funnel_solved_total sentinel in:\n%s", path, prom)
		}
	}
}

// TestAsyncPauseCut submits a long campaign with no budget, pauses it
// mid-flight at whatever frontier the race happens to pick, resumes,
// and still demands byte-identity with a straight run — the cut
// position is arbitrary, the result must not be.
func TestAsyncPauseCut(t *testing.T) {
	_, ts := newTestServer(t, "")

	cut := submit(t, ts, submitRequest{Config: bigConfig(), Threads: 2})
	code, data := request(t, http.MethodPost, ts.URL+"/api/v1/campaigns/"+cut.ID+"/pause", nil)
	if code != http.StatusAccepted {
		t.Fatalf("pause: %d %s", code, data)
	}
	info := waitState(t, ts, cut.ID, StatePaused)
	if info.Done <= 0 || info.Done >= info.Total {
		t.Fatalf("pause landed at frontier %d of %d", info.Done, info.Total)
	}
	code, data = request(t, http.MethodPost, ts.URL+"/api/v1/campaigns/"+cut.ID+"/resume", nil)
	if code != http.StatusAccepted {
		t.Fatalf("resume: %d %s", code, data)
	}
	waitState(t, ts, cut.ID, StateDone)

	straight := submit(t, ts, submitRequest{Config: bigConfig(), Threads: 2})
	waitState(t, ts, straight.ID, StateDone)

	_, cutEnv := request(t, http.MethodGet, ts.URL+"/api/v1/campaigns/"+cut.ID+"/envelope", nil)
	_, refEnv := request(t, http.MethodGet, ts.URL+"/api/v1/campaigns/"+straight.ID+"/envelope", nil)
	if !bytes.Equal(cutEnv, refEnv) {
		t.Errorf("envelope after async pause at frontier %d differs from straight run", info.Done)
	}
}

// TestHTTPErrors exercises the API's failure surface: malformed and
// unknown-field bodies, invalid configs, unknown ids, lifecycle
// conflicts, and wrong methods.
func TestHTTPErrors(t *testing.T) {
	_, ts := newTestServer(t, "")

	// A parked job for lifecycle-conflict probes.
	parked := submit(t, ts, submitRequest{Config: smallConfig(), StopAfter: 1})
	waitState(t, ts, parked.ID, StatePaused)
	// A completed job: no checkpoint, resume conflicts.
	done := submit(t, ts, submitRequest{Config: smallConfig()})
	waitState(t, ts, done.ID, StateDone)

	cases := []struct {
		name   string
		method string
		path   string
		body   string
		want   int
	}{
		{"malformed submit", "POST", "/api/v1/campaigns", `{"config": `, http.StatusBadRequest},
		{"unknown submit field", "POST", "/api/v1/campaigns", `{"config": {"sut": "z3sim"}, "frobnicator": 1}`, http.StatusBadRequest},
		{"trailing submit data", "POST", "/api/v1/campaigns", `{"config": {"sut": "z3sim"}} {}`, http.StatusBadRequest},
		{"invalid config", "POST", "/api/v1/campaigns", `{"config": {"sut": "no-such-solver"}}`, http.StatusBadRequest},
		{"bad shard coordinates", "POST", "/api/v1/campaigns", `{"config": {"sut": "z3sim", "shard": 5, "shards": 2}}`, http.StatusBadRequest},
		// Oversized sizes once killed the whole process with an
		// unrecoverable out-of-memory error instead of failing the request.
		{"oversized iterations", "POST", "/api/v1/campaigns", `{"config": {"sut": "z3sim", "logics": ["QF_LIA"], "iterations": 1099511627776}}`, http.StatusBadRequest},
		{"overflowing task total", "POST", "/api/v1/campaigns", `{"config": {"sut": "z3sim", "iterations": 4611686018427387904}}`, http.StatusBadRequest},
		{"oversized seed pool", "POST", "/api/v1/campaigns", `{"config": {"sut": "z3sim", "logics": ["QF_LIA"], "seed_pool": 1099511627776}}`, http.StatusBadRequest},
		{"oversized submit threads", "POST", "/api/v1/campaigns", `{"config": {"sut": "z3sim", "logics": ["QF_LIA"], "iterations": 2}, "threads": 1099511627776}`, http.StatusBadRequest},
		{"oversized config threads", "POST", "/api/v1/campaigns", `{"config": {"sut": "z3sim", "logics": ["QF_LIA"], "iterations": 2, "threads": 1099511627776}}`, http.StatusBadRequest},
		{"oversized resume threads", "POST", "/api/v1/campaigns/" + parked.ID + "/resume", `{"threads": 1099511627776}`, http.StatusBadRequest},
		{"inspect unknown id", "GET", "/api/v1/campaigns/c999", "", http.StatusNotFound},
		{"pause unknown id", "POST", "/api/v1/campaigns/c999/pause", "", http.StatusNotFound},
		{"resume unknown id", "POST", "/api/v1/campaigns/c999/resume", "", http.StatusNotFound},
		{"checkpoint unknown id", "GET", "/api/v1/campaigns/c999/checkpoint", "", http.StatusNotFound},
		{"trace unknown id", "GET", "/api/v1/campaigns/c999/trace", "", http.StatusNotFound},
		{"pause a paused job", "POST", "/api/v1/campaigns/" + parked.ID + "/pause", "", http.StatusConflict},
		{"pause a done job", "POST", "/api/v1/campaigns/" + done.ID + "/pause", "", http.StatusConflict},
		{"resume a done job", "POST", "/api/v1/campaigns/" + done.ID + "/resume", "", http.StatusConflict},
		{"malformed resume body", "POST", "/api/v1/campaigns/" + parked.ID + "/resume", `{"threads": `, http.StatusBadRequest},
		{"checkpoint of done job", "GET", "/api/v1/campaigns/" + done.ID + "/checkpoint", "", http.StatusNotFound},
		{"envelope of paused job", "GET", "/api/v1/campaigns/" + parked.ID + "/envelope", "", http.StatusNotFound},
		{"wrong method on pause", "GET", "/api/v1/campaigns/" + parked.ID + "/pause", "", http.StatusMethodNotAllowed},
		{"wrong method on list", "DELETE", "/api/v1/campaigns", "", http.StatusMethodNotAllowed},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var body []byte
			if tc.body != "" {
				body = []byte(tc.body)
			}
			code, data := request(t, tc.method, ts.URL+tc.path, body)
			if code != tc.want {
				t.Errorf("%s %s: got %d, want %d (%s)", tc.method, tc.path, code, tc.want, data)
			}
			if tc.want != http.StatusMethodNotAllowed && !json.Valid(data) {
				t.Errorf("error body is not JSON: %q", data)
			}
		})
	}

	// The paused job must still be resumable after all that probing.
	code, data := request(t, http.MethodPost, ts.URL+"/api/v1/campaigns/"+parked.ID+"/resume", nil)
	if code != http.StatusAccepted {
		t.Fatalf("resume after error probes: %d %s", code, data)
	}
	waitState(t, ts, parked.ID, StateDone)
}

// TestConcurrentClients hammers every read endpoint from many
// goroutines while jobs run, pause, and resume underneath — the race
// detector (ci runs this suite with -race) is the assertion.
func TestConcurrentClients(t *testing.T) {
	_, ts := newTestServer(t, "")

	job := submit(t, ts, submitRequest{Config: bigConfig(), Threads: 2})
	var wg sync.WaitGroup
	stop := make(chan struct{})
	paths := []string{
		"/api/v1/campaigns",
		"/api/v1/campaigns/" + job.ID,
		"/api/v1/campaigns/" + job.ID + "/trace",
		"/api/v1/campaigns/" + job.ID + "/metrics",
		"/metrics",
	}
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for n := 0; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Get(ts.URL + paths[(i+n)%len(paths)])
				if err != nil {
					t.Errorf("client %d: %v", i, err)
					return
				}
				io.Copy(io.Discard, resp.Body) //nolint:errcheck
				resp.Body.Close()
			}
		}(i)
	}
	// Pause and resume mid-hammer for lifecycle churn.
	request(t, http.MethodPost, ts.URL+"/api/v1/campaigns/"+job.ID+"/pause", nil)
	waitState(t, ts, job.ID, StatePaused)
	request(t, http.MethodPost, ts.URL+"/api/v1/campaigns/"+job.ID+"/resume", nil)
	waitState(t, ts, job.ID, StateDone)
	close(stop)
	wg.Wait()
}

// TestNoGoroutineLeaks runs a full lifecycle and shuts the server
// down; every runner goroutine must park.
func TestNoGoroutineLeaks(t *testing.T) {
	before := runtime.NumGoroutine()

	srv, err := New("")
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	j := submit(t, ts, submitRequest{Config: smallConfig(), StopAfter: 3})
	waitState(t, ts, j.ID, StatePaused)
	request(t, http.MethodPost, ts.URL+"/api/v1/campaigns/"+j.ID+"/resume", nil)
	waitState(t, ts, j.ID, StateDone)
	// And one still running when Close lands: Close must pause it and
	// wait for its runner.
	submit(t, ts, submitRequest{Config: bigConfig()})
	ts.Close()
	srv.Close()
	http.DefaultClient.CloseIdleConnections()

	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines leaked: %d before, %d after\n%s",
				before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestSpoolDurability pauses a job, discards the server, and reloads
// the spool in a fresh one: the job must come back paused at the same
// frontier with its trace intact, resume, and produce an envelope
// byte-identical to a straight run — and the envelope must survive a
// second reload.
func TestSpoolDurability(t *testing.T) {
	spool := t.TempDir()

	srv1, err := New(spool)
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(srv1.Handler())
	j := submit(t, ts1, submitRequest{Config: smallConfig(), StopAfter: 2})
	paused := waitState(t, ts1, j.ID, StatePaused)
	_, traceBefore := request(t, http.MethodGet, ts1.URL+"/api/v1/campaigns/"+j.ID+"/trace", nil)
	ts1.Close()
	srv1.Close()

	srv2, err := New(spool)
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(srv2.Handler())
	defer func() {
		ts2.Close()
		srv2.Close()
	}()
	info := waitState(t, ts2, j.ID, StatePaused)
	if info.Done != paused.Done {
		t.Fatalf("reloaded frontier %d, was %d", info.Done, paused.Done)
	}
	_, traceAfter := request(t, http.MethodGet, ts2.URL+"/api/v1/campaigns/"+j.ID+"/trace", nil)
	if !bytes.Equal(traceBefore, traceAfter) {
		t.Error("trace not preserved across reload")
	}
	code, data := request(t, http.MethodPost, ts2.URL+"/api/v1/campaigns/"+j.ID+"/resume", []byte(`{"threads": 2}`))
	if code != http.StatusAccepted {
		t.Fatalf("resume reloaded job: %d %s", code, data)
	}
	waitState(t, ts2, j.ID, StateDone)
	_, env := request(t, http.MethodGet, ts2.URL+"/api/v1/campaigns/"+j.ID+"/envelope", nil)
	// Inspect reports done before the runner has landed the envelope
	// and the status flip on disk; wait for it before reloading.
	srv2.Wait()

	_, tsRef := newTestServer(t, "")
	ref := submit(t, tsRef, submitRequest{Config: smallConfig()})
	waitState(t, tsRef, ref.ID, StateDone)
	_, refEnv := request(t, http.MethodGet, tsRef.URL+"/api/v1/campaigns/"+ref.ID+"/envelope", nil)
	if !bytes.Equal(env, refEnv) {
		t.Error("envelope of spool-reloaded job differs from straight run")
	}

	// Third server: the done job reloads with its envelope.
	srv3, err := New(spool)
	if err != nil {
		t.Fatal(err)
	}
	ts3 := httptest.NewServer(srv3.Handler())
	defer func() {
		ts3.Close()
		srv3.Close()
	}()
	waitState(t, ts3, j.ID, StateDone)
	_, env3 := request(t, http.MethodGet, ts3.URL+"/api/v1/campaigns/"+j.ID+"/envelope", nil)
	if !bytes.Equal(env, env3) {
		t.Error("envelope changed across reload")
	}
}

// TestSpoolFailClosed covers the reload paths that must not run: a job
// that was mid-leg when the process died (no checkpoint to continue
// from) and a paused job whose checkpoint document rotted on disk.
// Both reload as failed with a diagnostic — visible, never re-run.
func TestSpoolFailClosed(t *testing.T) {
	writeJob := func(t *testing.T, spool, id, state string, extra map[string][]byte) {
		t.Helper()
		dir := filepath.Join(spool, id)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		cfg, err := json.Marshal(smallConfig())
		if err != nil {
			t.Fatal(err)
		}
		st, err := json.Marshal(jobStatus{State: state, Submitted: "2026-08-08T00:00:00Z", Updated: "2026-08-08T00:00:00Z"})
		if err != nil {
			t.Fatal(err)
		}
		files := map[string][]byte{"config.json": cfg, "status.json": st}
		for name, data := range extra {
			files[name] = data
		}
		for name, data := range files {
			if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}

	t.Run("interrupted mid-leg", func(t *testing.T) {
		spool := t.TempDir()
		writeJob(t, spool, "c1", StateRunning, nil)
		_, ts := newTestServer(t, spool)
		info := waitState(t, ts, "c1", StateFailed)
		if !strings.Contains(info.Error, "interrupted") {
			t.Errorf("diagnostic %q does not say the job was interrupted", info.Error)
		}
		code, _ := request(t, http.MethodPost, ts.URL+"/api/v1/campaigns/c1/resume", nil)
		if code != http.StatusConflict {
			t.Errorf("resume of interrupted job: %d, want 409", code)
		}
	})
	t.Run("rotten checkpoint", func(t *testing.T) {
		spool := t.TempDir()
		writeJob(t, spool, "c1", StatePaused, map[string][]byte{"checkpoint.json": []byte("not a checkpoint")})
		_, ts := newTestServer(t, spool)
		info := waitState(t, ts, "c1", StateFailed)
		if !strings.Contains(info.Error, "checkpoint.json unusable") {
			t.Errorf("diagnostic %q does not name the rotten checkpoint", info.Error)
		}
	})
	t.Run("id numbering resumes past reloaded jobs", func(t *testing.T) {
		spool := t.TempDir()
		writeJob(t, spool, "c7", StateRunning, nil)
		_, ts := newTestServer(t, spool)
		info := submit(t, ts, submitRequest{Config: smallConfig(), StopAfter: 1})
		if info.ID != "c8" {
			t.Errorf("new job id %s, want c8", info.ID)
		}
		waitState(t, ts, info.ID, StatePaused)
	})
}

// TestListOrder checks listings stay in submission order and cover
// every job.
func TestListOrder(t *testing.T) {
	_, ts := newTestServer(t, "")
	var want []string
	for i := 0; i < 3; i++ {
		info := submit(t, ts, submitRequest{Config: smallConfig(), StopAfter: 1})
		want = append(want, info.ID)
	}
	code, data := request(t, http.MethodGet, ts.URL+"/api/v1/campaigns", nil)
	if code != http.StatusOK {
		t.Fatalf("list: %d", code)
	}
	var infos []Info
	if err := json.Unmarshal(data, &infos); err != nil {
		t.Fatal(err)
	}
	if len(infos) != len(want) {
		t.Fatalf("list has %d jobs, want %d", len(infos), len(want))
	}
	for i, info := range infos {
		if info.ID != want[i] {
			t.Errorf("list[%d] = %s, want %s", i, info.ID, want[i])
		}
	}
	for _, id := range want {
		waitState(t, ts, id, StatePaused)
	}
}
