package service

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

// retentionServer builds a server with a terminal-job cap plus an HTTP
// front end, mirroring newTestServer.
func retentionServer(t *testing.T, spool string, retain int) (*Server, *httptest.Server) {
	t.Helper()
	srv, err := NewWithRetention(spool, retain)
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

// seedSpoolJob handwrites a job directory, simulating state left by an
// earlier server process.
func seedSpoolJob(t *testing.T, spool, id, state string) {
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
	for name, data := range map[string][]byte{"config.json": cfg, "status.json": st} {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

func spooled(t *testing.T, spool, id string) bool {
	t.Helper()
	_, err := os.Stat(filepath.Join(spool, id))
	if err != nil && !os.IsNotExist(err) {
		t.Fatal(err)
	}
	return err == nil
}

// TestSpoolRetention drives the terminal-job cap end to end: completed
// jobs age out oldest-first once the cap is exceeded, jobs that reload
// as failed (interrupted mid-leg) count against the cap, and paused
// jobs are never collected no matter how old they are — a paused job's
// checkpoint is the only copy of its frontier.
func TestSpoolRetention(t *testing.T) {
	spool := t.TempDir()
	// A job interrupted mid-leg by a previous process: reloads as
	// failed, i.e. terminal, so it competes with the cap from the start.
	seedSpoolJob(t, spool, "c1", StateRunning)

	srv, ts := retentionServer(t, spool, 2)
	if info := waitState(t, ts, "c1", StateFailed); info.Error == "" {
		t.Error("interrupted job reloaded without a diagnostic")
	}

	// A paused job, submitted before the churn below, so it is the
	// oldest non-terminal job when collection happens.
	pausedJob := submit(t, ts, submitRequest{Config: bigConfig(), StopAfter: 2})
	waitState(t, ts, pausedJob.ID, StatePaused)

	// Two completions fill the cap alongside the failed c1...
	first := submit(t, ts, submitRequest{Config: smallConfig()})
	waitState(t, ts, first.ID, StateDone)
	srv.Wait() // gc runs on the runner goroutine after the status flip
	if !spooled(t, spool, "c1") {
		t.Fatal("cap not yet exceeded but a job was collected")
	}

	// ...so the next one evicts the oldest terminal job (c1), and the
	// one after that evicts the next (first). The paused job, older
	// than both, stays.
	second := submit(t, ts, submitRequest{Config: smallConfig()})
	waitState(t, ts, second.ID, StateDone)
	srv.Wait()
	if spooled(t, spool, "c1") {
		t.Error("oldest terminal job not collected from disk")
	}
	third := submit(t, ts, submitRequest{Config: smallConfig()})
	waitState(t, ts, third.ID, StateDone)
	srv.Wait()
	if spooled(t, spool, first.ID) {
		t.Error("second-oldest terminal job not collected from disk")
	}
	if !spooled(t, spool, pausedJob.ID) {
		t.Fatal("paused job collected; its checkpoint is gone")
	}
	want := []string{pausedJob.ID, second.ID, third.ID}
	if got := srv.jobIDs(); !reflect.DeepEqual(got, want) {
		t.Errorf("listing after collection: %v, want %v", got, want)
	}

	// A tighter cap on restart collects down to it immediately, still
	// sparing the paused job.
	ts.Close()
	srv.Close()
	srv2, err := NewWithRetention(spool, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	if spooled(t, spool, second.ID) {
		t.Error("restart with a tighter cap kept an over-cap terminal job")
	}
	if !spooled(t, spool, third.ID) || !spooled(t, spool, pausedJob.ID) {
		t.Error("restart collected jobs inside the cap")
	}
	if got, want := srv2.jobIDs(), []string{pausedJob.ID, third.ID}; !reflect.DeepEqual(got, want) {
		t.Errorf("listing after restart: %v, want %v", got, want)
	}

	// The surviving paused job still resumes: retention never touched
	// its checkpoint.
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	code, data := request(t, http.MethodPost, ts2.URL+"/api/v1/campaigns/"+pausedJob.ID+"/resume", []byte(`{}`))
	if code != http.StatusAccepted {
		t.Fatalf("resume of retained paused job: %d %s", code, data)
	}
	srv2.Wait()
	// Completing made it terminal — and the oldest terminal job, so
	// under the cap of 1 it is collected right after it lands.
	if got, want := srv2.jobIDs(), []string{third.ID}; !reflect.DeepEqual(got, want) {
		t.Errorf("listing after resumed job completed: %v, want %v", got, want)
	}
	if spooled(t, spool, pausedJob.ID) {
		t.Error("completed job not collected under the cap")
	}
}

// TestSpoolRetentionDisabled: retain 0 (the New default) keeps every
// terminal job.
func TestSpoolRetentionDisabled(t *testing.T) {
	spool := t.TempDir()
	srv, ts := newTestServer(t, spool)
	var ids []string
	for i := 0; i < 3; i++ {
		j := submit(t, ts, submitRequest{Config: smallConfig()})
		waitState(t, ts, j.ID, StateDone)
		ids = append(ids, j.ID)
	}
	srv.Wait()
	for _, id := range ids {
		if !spooled(t, spool, id) {
			t.Errorf("job %s collected with retention disabled", id)
		}
	}
}

// TestSpoolCrashConsistency restarts the server on the spools a crash
// leaves behind between a leg's artifact write and its status flip
// (persistOutcome writes the document first), and mid-write of a file
// (a leftover *.tmp). Every job must be listed exactly once, in the
// state reloadJob documents: a job whose status still says running or
// pausing is failed as interrupted whatever artifact sits beside it, a
// paused or done job reloads from its document and ignores a stale
// temporary file, and new submits get ids beyond the reloaded ones.
func TestSpoolCrashConsistency(t *testing.T) {
	// Real artifacts: one finished job and one paused job.
	src := t.TempDir()
	srv, ts := newTestServer(t, src)
	done := submit(t, ts, submitRequest{Config: smallConfig()})
	waitState(t, ts, done.ID, StateDone)
	paused := submit(t, ts, submitRequest{Config: smallConfig(), StopAfter: 2})
	pausedInfo := waitState(t, ts, paused.ID, StatePaused)
	_, envelope := request(t, http.MethodGet, ts.URL+"/api/v1/campaigns/"+done.ID+"/envelope", nil)
	ts.Close()
	srv.Close()
	read := func(id, name string) []byte {
		t.Helper()
		data, err := os.ReadFile(filepath.Join(src, id, name))
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	status := func(state string) []byte {
		st, err := json.Marshal(jobStatus{State: state, Submitted: "2026-08-08T00:00:00Z", Updated: "2026-08-08T00:00:00Z"})
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	cfg := read(done.ID, "config.json")
	env, cp := read(done.ID, "envelope.json"), read(paused.ID, "checkpoint.json")
	interrupted := "interrupted: the server terminated while this campaign was running"
	jobs := []struct {
		id         string
		files      map[string][]byte
		state, err string
	}{
		// Envelope written, checkpoint not yet removed, status not flipped.
		{"c1", map[string][]byte{"status.json": status(StateRunning), "envelope.json": env, "checkpoint.json": cp}, StateFailed, interrupted},
		// Checkpoint of a pause written, status not flipped.
		{"c2", map[string][]byte{"status.json": status(StateRunning), "checkpoint.json": cp}, StateFailed, interrupted},
		{"c3", map[string][]byte{"status.json": status(StatePausing), "checkpoint.json": cp}, StateFailed, interrupted},
		// A crash inside writeFileAtomic leaves its temporary file.
		{"c4", map[string][]byte{"status.json": read(paused.ID, "status.json"), "checkpoint.json": cp,
			"checkpoint.json.tmp": cp[:len(cp)/2], "status.json.tmp": []byte(`{"state":"run`)}, StatePaused, ""},
		{"c6", map[string][]byte{"status.json": read(done.ID, "status.json"), "envelope.json": env,
			"envelope.json.tmp": []byte("{")}, StateDone, ""},
	}
	spool := t.TempDir()
	for _, j := range jobs {
		dir := filepath.Join(spool, j.id)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		j.files["config.json"] = cfg
		for name, data := range j.files {
			if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}

	check := func(ts *httptest.Server, extra ...string) {
		t.Helper()
		code, data := request(t, http.MethodGet, ts.URL+"/api/v1/campaigns", nil)
		if code != http.StatusOK {
			t.Fatalf("list: %d %s", code, data)
		}
		var infos []Info
		if err := json.Unmarshal(data, &infos); err != nil {
			t.Fatal(err)
		}
		var ids []string
		for _, info := range infos {
			ids = append(ids, info.ID)
		}
		want := []string{"c1", "c2", "c3", "c4", "c6"}
		if !reflect.DeepEqual(ids, append(want, extra...)) {
			t.Fatalf("listed %v, want %v", ids, append(want, extra...))
		}
		for i, j := range jobs {
			if infos[i].State != j.state || infos[i].Error != j.err {
				t.Errorf("%s: state %s error %q, want %s %q", j.id, infos[i].State, infos[i].Error, j.state, j.err)
			}
		}
	}
	srv2, ts2 := newTestServer(t, spool)
	check(ts2)
	if info := waitState(t, ts2, "c4", StatePaused); info.Done != pausedInfo.Done {
		t.Errorf("c4 reloaded at frontier %d, was paused at %d", info.Done, pausedInfo.Done)
	}
	if _, got := request(t, http.MethodGet, ts2.URL+"/api/v1/campaigns/c6/envelope", nil); string(got) != string(envelope) {
		t.Error("c6 serves an envelope other than the one on disk")
	}
	next := submit(t, ts2, submitRequest{Config: smallConfig(), StopAfter: 1})
	if next.ID != "c7" {
		t.Errorf("new job id %s, want c7", next.ID)
	}
	waitState(t, ts2, next.ID, StatePaused)
	code, data := request(t, http.MethodPost, ts2.URL+"/api/v1/campaigns/c4/resume", nil)
	if code != http.StatusAccepted {
		t.Fatalf("resume c4: %d %s", code, data)
	}
	waitState(t, ts2, "c4", StateDone)
	jobs[3].state = StateDone
	if _, got := request(t, http.MethodGet, ts2.URL+"/api/v1/campaigns/c4/envelope", nil); string(got) != string(envelope) {
		t.Error("the resumed crash survivor's envelope differs from the straight run's")
	}
	ts2.Close()
	srv2.Close()

	// A second restart reloads the same jobs once each, plus c7.
	_, ts3 := newTestServer(t, spool)
	check(ts3, "c7")
}

// readStatus reads a job's status.json.
func readStatus(t *testing.T, spool, id string) jobStatus {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(spool, id, "status.json"))
	if err != nil {
		t.Fatal(err)
	}
	var st jobStatus
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestSpoolUnwritableOutcome resumes a paused job whose envelope cannot
// be written — a directory sits where writeFileAtomic puts its
// temporary file, which fails for any user, root included. The job
// must end failed, in memory and in status.json, without inspect ever
// showing it done.
func TestSpoolUnwritableOutcome(t *testing.T) {
	spool := t.TempDir()
	_, ts := newTestServer(t, spool)
	j := submit(t, ts, submitRequest{Config: smallConfig(), StopAfter: 2})
	waitState(t, ts, j.ID, StatePaused)
	if err := os.MkdirAll(filepath.Join(spool, j.ID, "envelope.json.tmp", "block"), 0o755); err != nil {
		t.Fatal(err)
	}
	code, data := request(t, http.MethodPost, ts.URL+"/api/v1/campaigns/"+j.ID+"/resume", nil)
	if code != http.StatusAccepted {
		t.Fatalf("resume: %d %s", code, data)
	}
	deadline := time.Now().Add(30 * time.Second)
	var info Info
	for {
		code, data := request(t, http.MethodGet, ts.URL+"/api/v1/campaigns/"+j.ID, nil)
		if code != http.StatusOK {
			t.Fatalf("inspect: %d %s", code, data)
		}
		if err := json.Unmarshal(data, &info); err != nil {
			t.Fatal(err)
		}
		if info.State == StateDone {
			t.Fatal("inspect shows done for a job whose envelope was never written")
		}
		if info.State == StateFailed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s", info.State)
		}
		time.Sleep(time.Millisecond)
	}
	if !strings.Contains(info.Error, "persisting outcome") {
		t.Errorf("diagnostic %q does not name the failed write", info.Error)
	}
	if st := readStatus(t, spool, j.ID); st.State != StateFailed {
		t.Errorf("status.json says %s, want failed", st.State)
	}
}

// TestSpoolUnwritableStatus pauses a job whose status.json can no
// longer be written (a directory sits at its temporary file). The
// server must mark the job failed and keep serving, however often the
// write fails.
func TestSpoolUnwritableStatus(t *testing.T) {
	spool := t.TempDir()
	_, ts := newTestServer(t, spool)
	j := submit(t, ts, submitRequest{Config: bigConfig()})
	if err := os.MkdirAll(filepath.Join(spool, j.ID, "status.json.tmp", "block"), 0o755); err != nil {
		t.Fatal(err)
	}
	request(t, http.MethodPost, ts.URL+"/api/v1/campaigns/"+j.ID+"/pause", nil)
	if info := waitState(t, ts, j.ID, StateFailed); !strings.Contains(info.Error, "persisting status") {
		t.Errorf("diagnostic %q does not name the failed status write", info.Error)
	}
}
