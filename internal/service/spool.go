package service

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"time"

	"repro/internal/harness"
)

// Spool layout (when the server is created with a spool directory):
//
//	<spool>/<id>/config.json       the submitted CampaignConfig
//	<spool>/<id>/status.json       state machine position + summary
//	<spool>/<id>/checkpoint.json   sealed checkpoint (paused jobs)
//	<spool>/<id>/envelope.json     sealed envelope (done jobs)
//
// On restart the server reloads every job: paused jobs resume exactly
// where they left off (the checkpoint document is the durable source
// of truth — the reloaded job is indistinguishable from one paused in
// this process), done/failed jobs reload for inspection, and jobs that
// were mid-leg when the process died are marked failed ("interrupted")
// rather than silently re-run: without a checkpoint there is no
// frontier to continue from, and re-running from zero would double the
// already-persisted trace.

// jobStatus is the status.json payload.
type jobStatus struct {
	State     string  `json:"state"`
	Error     string  `json:"error,omitempty"`
	Done      int     `json:"done"`
	Summary   Summary `json:"summary"`
	Submitted string  `json:"submitted"`
	Updated   string  `json:"updated"`
}

// New creates a server. spool of "" keeps jobs in memory only;
// otherwise jobs persist under the directory and reload on restart.
// Every spooled job is retained forever; use NewWithRetention to cap
// the terminal-job history.
func New(spool string) (*Server, error) {
	return NewWithRetention(spool, 0)
}

// NewWithRetention creates a server whose spool keeps at most retain
// terminal (done or failed) jobs — older terminal jobs are garbage-
// collected from disk and from the listing as new ones land. retain 0
// keeps everything. Jobs that are running, pausing, or paused are
// never collected, whatever their age: a paused job's checkpoint is
// the only copy of its frontier.
func NewWithRetention(spool string, retain int) (*Server, error) {
	s := &Server{jobs: map[string]*Job{}, spool: spool, retain: retain}
	if spool == "" {
		return s, nil
	}
	if err := os.MkdirAll(spool, 0o755); err != nil {
		return nil, fmt.Errorf("service: creating spool: %w", err)
	}
	if err := s.reload(); err != nil {
		return nil, err
	}
	// Reload marks mid-leg casualties failed, which can push the
	// terminal count over the cap — collect before serving.
	s.gc()
	return s, nil
}

// gc enforces the retention policy: when retain > 0, only the newest
// retain terminal jobs (by submission order) keep their spool
// directories. Non-terminal jobs do not count against the cap and are
// never deleted.
func (s *Server) gc() {
	if s.spool == "" || s.retain <= 0 {
		return
	}
	s.mu.Lock()
	var terminal []string
	for _, id := range s.order {
		j := s.jobs[id]
		j.mu.Lock()
		st := j.state
		j.mu.Unlock()
		if st == StateDone || st == StateFailed {
			terminal = append(terminal, id)
		}
	}
	var evict []string
	if n := len(terminal) - s.retain; n > 0 {
		evict = terminal[:n]
	}
	if len(evict) > 0 {
		evicted := map[string]bool{}
		for _, id := range evict {
			evicted[id] = true
			delete(s.jobs, id)
		}
		keep := s.order[:0]
		for _, id := range s.order {
			if !evicted[id] {
				keep = append(keep, id)
			}
		}
		s.order = keep
	}
	s.mu.Unlock()
	for _, id := range evict {
		// Best-effort: a directory that survives a failed remove is
		// re-collected at the next gc or reload.
		os.RemoveAll(filepath.Join(s.spool, id))
	}
}

func (s *Server) jobDir(j *Job) string {
	if s.spool == "" {
		return ""
	}
	return filepath.Join(s.spool, j.id)
}

func (s *Server) persistConfig(j *Job) {
	dir := s.jobDir(j)
	if dir == "" {
		return
	}
	j.mu.Lock()
	data, err := json.MarshalIndent(j.config, "", "  ")
	j.mu.Unlock()
	if err == nil {
		err = os.MkdirAll(dir, 0o755)
	}
	if err == nil {
		err = writeFileAtomic(filepath.Join(dir, "config.json"), append(data, '\n'))
	}
	if err != nil {
		s.spoolFailed(j, fmt.Errorf("persisting config: %w", err))
	}
}

// status snapshots the job's status.json payload; callers hold j.mu.
func (j *Job) status() jobStatus {
	return jobStatus{
		State:     j.state,
		Error:     j.errMsg,
		Done:      j.done,
		Summary:   j.summary,
		Submitted: j.submitted.UTC().Format(time.RFC3339),
		Updated:   j.updated.UTC().Format(time.RFC3339),
	}
}

func (s *Server) persistStatus(j *Job) {
	dir := s.jobDir(j)
	if dir == "" {
		return
	}
	j.spoolMu.Lock()
	j.mu.Lock()
	st := j.status()
	j.mu.Unlock()
	err := writeStatus(dir, st)
	j.spoolMu.Unlock()
	if err != nil {
		s.spoolFailed(j, err)
	}
}

func writeStatus(dir string, st jobStatus) error {
	data, err := json.MarshalIndent(st, "", "  ")
	if err == nil {
		err = writeFileAtomic(filepath.Join(dir, "status.json"), append(data, '\n'))
	}
	if err != nil {
		return fmt.Errorf("persisting status: %w", err)
	}
	return nil
}

// persistOutcome writes a finished leg to the job's spool directory:
// the checkpoint or envelope document first, the status st last, so a
// crash between the two re-marks the job with its old state and a
// newer artifact — never a state claiming an artifact that is not on
// disk.
func persistOutcome(dir string, st jobStatus, out *harness.Outcome) error {
	var err error
	switch st.State {
	case StatePaused:
		var data []byte
		if data, err = harness.EncodeCheckpoint(out.Checkpoint); err == nil {
			err = writeFileAtomic(filepath.Join(dir, "checkpoint.json"), data)
		}
	case StateDone:
		var data []byte
		if data, err = harness.EncodeEnvelope(out.Envelope); err == nil {
			err = writeFileAtomic(filepath.Join(dir, "envelope.json"), data)
		}
		if err == nil {
			// The checkpoint of a completed campaign is stale state.
			if rmErr := os.Remove(filepath.Join(dir, "checkpoint.json")); rmErr != nil && !os.IsNotExist(rmErr) {
				err = rmErr
			}
		}
	}
	if err != nil {
		return err
	}
	return writeStatus(dir, st)
}

// spoolFailed marks a job failed because its durable record could not
// be written: an unpersistable job must not pretend to be durable.
func (s *Server) spoolFailed(j *Job, err error) {
	j.spoolMu.Lock()
	j.mu.Lock()
	j.state = StateFailed
	j.errMsg = err.Error()
	j.touch()
	st := j.status()
	j.mu.Unlock()
	writeStatus(s.jobDir(j), st) // best-effort; the spool may still be broken
	j.spoolMu.Unlock()
	s.gc()
}

func writeFileAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

var jobDirName = regexp.MustCompile(`^c([0-9]+)$`)

// reload restores the spooled jobs at startup.
func (s *Server) reload() error {
	entries, err := os.ReadDir(s.spool)
	if err != nil {
		return fmt.Errorf("service: reading spool: %w", err)
	}
	type slot struct {
		n  int
		id string
	}
	var slots []slot
	for _, ent := range entries {
		m := jobDirName.FindStringSubmatch(ent.Name())
		if !ent.IsDir() || m == nil {
			continue
		}
		n, err := strconv.Atoi(m[1])
		if err != nil {
			continue
		}
		slots = append(slots, slot{n: n, id: ent.Name()})
	}
	sort.Slice(slots, func(i, j int) bool { return slots[i].n < slots[j].n })
	for _, sl := range slots {
		j, err := s.reloadJob(sl.id)
		if err != nil {
			return fmt.Errorf("service: reloading job %s: %w", sl.id, err)
		}
		s.jobs[j.id] = j
		s.order = append(s.order, j.id)
		if sl.n > s.nextID {
			s.nextID = sl.n
		}
	}
	return nil
}

func (s *Server) reloadJob(id string) (*Job, error) {
	dir := filepath.Join(s.spool, id)
	j := &Job{id: id}

	data, err := os.ReadFile(filepath.Join(dir, "config.json"))
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(data, &j.config); err != nil {
		return nil, fmt.Errorf("config.json: %v", err)
	}
	if err := j.config.Validate(); err != nil {
		return nil, fmt.Errorf("config.json: %v", err)
	}

	var st jobStatus
	data, err = os.ReadFile(filepath.Join(dir, "status.json"))
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(data, &st); err != nil {
		return nil, fmt.Errorf("status.json: %v", err)
	}
	j.state = st.State
	j.errMsg = st.Error
	j.done = st.Done
	j.summary = st.Summary
	if t, err := time.Parse(time.RFC3339, st.Submitted); err == nil {
		j.submitted = t
	}
	if t, err := time.Parse(time.RFC3339, st.Updated); err == nil {
		j.updated = t
	}

	switch st.State {
	case StatePaused:
		data, err := os.ReadFile(filepath.Join(dir, "checkpoint.json"))
		if err != nil {
			return nil, err
		}
		cp, err := harness.DecodeCheckpoint(data)
		var m *harness.Merged
		if err == nil {
			m, err = cp.Fold()
		}
		if err != nil {
			// Fail closed, but keep the job visible so the operator sees
			// why it cannot resume.
			j.state = StateFailed
			j.errMsg = fmt.Sprintf("checkpoint.json unusable: %v", err)
			return j, nil
		}
		// The job's metrics and trace are folds of the document's
		// records, like everything else it reports.
		j.checkpoint = cp
		j.done = cp.Done
		j.telemetry = m.Telemetry
		j.trace.Write(m.Trace)
	case StateDone:
		data, err := os.ReadFile(filepath.Join(dir, "envelope.json"))
		if err != nil {
			return nil, err
		}
		env, err := harness.DecodeEnvelope(data)
		var m *harness.Merged
		if err == nil {
			m, err = env.Fold()
		}
		if err != nil {
			j.state = StateFailed
			j.errMsg = fmt.Sprintf("envelope.json unusable: %v", err)
			return j, nil
		}
		j.envelope = env
		j.done = env.Tasks
		j.telemetry = m.Telemetry
		j.trace.Write(m.Trace)
	case StateRunning, StatePausing:
		// The process died mid-leg: no checkpoint was written, so there
		// is no frontier to continue from.
		j.state = StateFailed
		j.errMsg = "interrupted: the server terminated while this campaign was running"
	case StateFailed:
		// Reloads as-is.
	default:
		return nil, fmt.Errorf("status.json: unknown state %q", st.State)
	}
	return j, nil
}
