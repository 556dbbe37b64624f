package service

import (
	"encoding/json"
	"fmt"
	"net/http"

	"repro/internal/harness"
	"repro/internal/telemetry"
)

// API surface (all campaign payloads are JSON):
//
//	POST /api/v1/campaigns                   submit   → 201 {id}
//	GET  /api/v1/campaigns                   list     → 200 [info]
//	GET  /api/v1/campaigns/{id}              inspect  → 200 info
//	POST /api/v1/campaigns/{id}/pause        pause    → 202 info (409 unless running)
//	POST /api/v1/campaigns/{id}/resume       resume   → 202 info (409 unless paused)
//	GET  /api/v1/campaigns/{id}/checkpoint   download → 200 sealed checkpoint document
//	GET  /api/v1/campaigns/{id}/envelope     download → 200 sealed envelope document
//	GET  /api/v1/campaigns/{id}/trace        stream   → 200 JSONL (the records so far)
//	GET  /api/v1/campaigns/{id}/metrics      scrape   → 200 Prometheus text (this job)
//	GET  /metrics                            scrape   → 200 Prometheus text (all jobs)
//
// Errors are {"error": "..."} with 400 (malformed request), 404
// (unknown job / artifact not available), 409 (lifecycle conflict), or
// 405 via the mux for wrong methods.

// Handler returns the server's HTTP interface.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /api/v1/campaigns", s.handleSubmit)
	mux.HandleFunc("GET /api/v1/campaigns", s.handleList)
	mux.HandleFunc("GET /api/v1/campaigns/{id}", s.withJob(s.handleInspect))
	mux.HandleFunc("POST /api/v1/campaigns/{id}/pause", s.withJob(s.handlePause))
	mux.HandleFunc("POST /api/v1/campaigns/{id}/resume", s.withJob(s.handleResume))
	mux.HandleFunc("GET /api/v1/campaigns/{id}/checkpoint", s.withJob(s.handleCheckpoint))
	mux.HandleFunc("GET /api/v1/campaigns/{id}/envelope", s.withJob(s.handleEnvelope))
	mux.HandleFunc("GET /api/v1/campaigns/{id}/trace", s.withJob(s.handleTrace))
	mux.HandleFunc("GET /api/v1/campaigns/{id}/metrics", s.withJob(s.handleJobMetrics))
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

// Info is a job's inspect payload.
type Info struct {
	ID    string `json:"id"`
	State string `json:"state"`
	// Done/Total are the classification frontier over this campaign's
	// (shard's) task allotment.
	Done    int     `json:"done"`
	Total   int     `json:"total"`
	Summary Summary `json:"summary"`
	Error   string  `json:"error,omitempty"`
	// Submitted/Updated are RFC 3339 operator timestamps.
	Submitted string                 `json:"submitted"`
	Updated   string                 `json:"updated"`
	Config    harness.CampaignConfig `json:"config"`
}

func (j *Job) info() Info {
	j.mu.Lock()
	defer j.mu.Unlock()
	total := j.total
	if total == 0 {
		// Before the first Progress callback, derive the allotment from
		// the config so clients see a stable denominator.
		total = j.config.ShardTaskCount()
	}
	return Info{
		ID:        j.id,
		State:     j.state,
		Done:      j.done,
		Total:     total,
		Summary:   j.summary,
		Error:     j.errMsg,
		Submitted: j.submitted.UTC().Format("2006-01-02T15:04:05Z"),
		Updated:   j.updated.UTC().Format("2006-01-02T15:04:05Z"),
		Config:    j.config,
	}
}

type submitRequest struct {
	Config harness.CampaignConfig `json:"config"`
	// Threads overrides the config's worker count (results are
	// invariant to it).
	Threads int `json:"threads,omitempty"`
	// StopAfter, when positive, pauses the campaign after that many
	// classified tasks.
	StopAfter int `json:"stop_after,omitempty"`
}

type resumeRequest struct {
	Threads   int `json:"threads,omitempty"`
	StopAfter int `json:"stop_after,omitempty"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // client gone; nothing to do
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// decodeBody strictly parses a JSON request body; an empty body decodes
// the zero value when allowEmpty is set (pause/resume take no options).
func decodeBody(r *http.Request, v any, allowEmpty bool) error {
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, 10<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		if allowEmpty && err.Error() == "EOF" {
			return nil
		}
		return err
	}
	if dec.More() {
		return fmt.Errorf("trailing data after JSON body")
	}
	return nil
}

func (s *Server) withJob(h func(http.ResponseWriter, *http.Request, *Job)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		j := s.job(id)
		if j == nil {
			writeError(w, http.StatusNotFound, "no campaign %q", id)
			return
		}
		h(w, r, j)
	}
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req submitRequest
	if err := decodeBody(r, &req, false); err != nil {
		writeError(w, http.StatusBadRequest, "parsing submit request: %v", err)
		return
	}
	j, err := s.Submit(req.Config, req.Threads, req.StopAfter)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	writeJSON(w, http.StatusCreated, j.info())
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	infos := []Info{}
	for _, id := range s.jobIDs() {
		if j := s.job(id); j != nil {
			infos = append(infos, j.info())
		}
	}
	writeJSON(w, http.StatusOK, infos)
}

func (s *Server) handleInspect(w http.ResponseWriter, _ *http.Request, j *Job) {
	writeJSON(w, http.StatusOK, j.info())
}

func (s *Server) handlePause(w http.ResponseWriter, r *http.Request, j *Job) {
	if err := decodeBody(r, &struct{}{}, true); err != nil {
		writeError(w, http.StatusBadRequest, "parsing pause request: %v", err)
		return
	}
	if err := s.Pause(j); err != nil {
		writeError(w, http.StatusConflict, "%v", err)
		return
	}
	writeJSON(w, http.StatusAccepted, j.info())
}

func (s *Server) handleResume(w http.ResponseWriter, r *http.Request, j *Job) {
	var req resumeRequest
	if err := decodeBody(r, &req, true); err != nil {
		writeError(w, http.StatusBadRequest, "parsing resume request: %v", err)
		return
	}
	if req.Threads > harness.MaxThreads {
		writeError(w, http.StatusBadRequest, "resume request: %d threads exceeds %d", req.Threads, harness.MaxThreads)
		return
	}
	if err := s.Resume(j, req.Threads, req.StopAfter); err != nil {
		writeError(w, http.StatusConflict, "%v", err)
		return
	}
	writeJSON(w, http.StatusAccepted, j.info())
}

func (s *Server) handleCheckpoint(w http.ResponseWriter, _ *http.Request, j *Job) {
	j.mu.Lock()
	state, cp := j.state, j.checkpoint
	j.mu.Unlock()
	switch {
	case state == StateRunning || state == StatePausing:
		writeError(w, http.StatusConflict, "job %s is %s; a checkpoint exists once it pauses", j.id, state)
		return
	case cp == nil:
		writeError(w, http.StatusNotFound, "job %s has no checkpoint (state %s)", j.id, state)
		return
	}
	data, err := harness.EncodeCheckpoint(cp)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "encoding checkpoint: %v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(data) //nolint:errcheck
}

func (s *Server) handleEnvelope(w http.ResponseWriter, _ *http.Request, j *Job) {
	j.mu.Lock()
	state, env := j.state, j.envelope
	j.mu.Unlock()
	if env == nil {
		writeError(w, http.StatusNotFound, "job %s has no envelope (state %s); envelopes exist for completed campaigns", j.id, state)
		return
	}
	data, err := harness.EncodeEnvelope(env)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "encoding envelope: %v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(data) //nolint:errcheck
}

func (s *Server) handleTrace(w http.ResponseWriter, _ *http.Request, j *Job) {
	j.mu.Lock()
	data := append([]byte(nil), j.trace.Bytes()...)
	j.mu.Unlock()
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Write(data) //nolint:errcheck
}

func (s *Server) handleJobMetrics(w http.ResponseWriter, _ *http.Request, j *Job) {
	j.mu.Lock()
	snap := j.telemetry
	j.mu.Unlock()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	telemetry.WritePrometheus(w, snap) //nolint:errcheck
}

// handleMetrics serves the fleet view: every job's latest snapshot
// summed. Job snapshots are only replaced (never mutated) after
// publication, so accumulating copies here is race-free.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	var total telemetry.Snapshot
	for _, id := range s.jobIDs() {
		j := s.job(id)
		if j == nil {
			continue
		}
		j.mu.Lock()
		snap := j.telemetry
		j.mu.Unlock()
		total.Accumulate(snap)
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	telemetry.WritePrometheus(w, total) //nolint:errcheck
}
