// Package service is the campaign control plane: a resident HTTP/JSON
// server that runs yinyang campaigns as durable jobs. Clients submit a
// CampaignConfig, watch progress, pause the campaign into a checkpoint,
// resume it (in this process or, by downloading the checkpoint, any
// other), stream the JSONL trace, and scrape Prometheus metrics — all
// without disturbing the determinism contract: the service only ever
// drives campaigns through harness.Start/Resume, so a job that was
// paused and resumed five times reports byte-identical results to one
// that ran straight through.
package service

import (
	"bytes"
	"fmt"
	"sync"
	"time"

	"repro/internal/harness"
	"repro/internal/telemetry"
)

// Job states. Transitions: running → pausing → paused → running … →
// done, with failed terminal from anywhere. A job submitted with a
// stop_after budget parks itself in paused without passing through
// pausing.
const (
	StateRunning = "running"
	StatePausing = "pausing"
	StatePaused  = "paused"
	StateDone    = "done"
	StateFailed  = "failed"
)

// Summary is the count block of a job's inspect payload, mirroring the
// harness Result scalars (partial while paused, final when done).
type Summary struct {
	Tests                  int  `json:"tests"`
	Unknowns               int  `json:"unknowns"`
	Timeouts               int  `json:"timeouts"`
	Bugs                   int  `json:"bugs"`
	Duplicates             int  `json:"duplicates"`
	InvalidInputs          int  `json:"invalid_inputs"`
	Quarantined            int  `json:"quarantined"`
	ReferenceDisagreements int  `json:"reference_disagreements"`
	BackendFindings        int  `json:"backend_findings"`
	Degraded               bool `json:"degraded"`
}

func summaryOf(r *harness.Result) Summary {
	return Summary{
		Tests:                  r.Tests,
		Unknowns:               r.Unknowns,
		Timeouts:               r.Timeouts,
		Bugs:                   len(r.Bugs),
		Duplicates:             r.Duplicates,
		InvalidInputs:          r.InvalidInputs,
		Quarantined:            r.Quarantined,
		ReferenceDisagreements: r.ReferenceDisagreements,
		BackendFindings:        len(r.BackendFindings),
		Degraded:               r.Degraded(),
	}
}

// Job is one campaign under service management. All fields are guarded
// by mu except id (immutable) and stop (atomic); the runner goroutine
// is the only writer of the heavyweight fields (checkpoint, envelope,
// trace) but readers on request goroutines take the lock too.
type Job struct {
	id string

	mu         sync.Mutex
	config     harness.CampaignConfig
	state      string
	errMsg     string
	done       int
	total      int
	summary    Summary
	telemetry  telemetry.Snapshot
	checkpoint *harness.Checkpoint
	envelope   *harness.Envelope
	trace      bytes.Buffer // accumulated JSONL, all legs
	// submitted/updated are operator-facing timestamps; nothing in the
	// campaign pipeline reads them.
	submitted time.Time
	updated   time.Time

	stop stopFlag
	// spoolMu serializes spool writes. A status snapshot is taken and
	// written under it, and a finished leg holds it from its first
	// write until the job shows the new state, so a pause request
	// racing the leg's end never rewinds status.json.
	spoolMu sync.Mutex
}

// stopFlag is the pause request latch, polled by the harness after
// every classified task.
type stopFlag struct {
	mu  sync.Mutex
	set bool
}

func (f *stopFlag) request() { f.mu.Lock(); f.set = true; f.mu.Unlock() }
func (f *stopFlag) clear()   { f.mu.Lock(); f.set = false; f.mu.Unlock() }
func (f *stopFlag) stopped() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.set
}

// legTrace adapts the job's accumulating trace buffer to the harness's
// per-leg trace writer: the harness emits each leg's new records, the
// buffer holds the whole campaign's.
type legTrace struct{ j *Job }

func (t legTrace) Write(p []byte) (int, error) {
	t.j.mu.Lock()
	defer t.j.mu.Unlock()
	return t.j.trace.Write(p)
}

// Server manages campaign jobs. Create with New, mount as an
// http.Handler, Close before discarding (Close pauses running jobs and
// waits for their runner goroutines).
type Server struct {
	mu     sync.Mutex
	jobs   map[string]*Job
	order  []string // submission order, for stable listings
	nextID int
	spool  string
	// retain caps how many terminal (done/failed) jobs keep their spool
	// directories; 0 keeps everything. Non-terminal jobs are never
	// collected — see gc.
	retain int

	wg sync.WaitGroup
}

// jobIDs returns the ids in submission order.
func (s *Server) jobIDs() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.order...)
}

func (s *Server) job(id string) *Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

// Submit registers a campaign and starts running it. stopAfter > 0
// pauses the job after that many classified tasks (a task budget, so
// operators can run campaigns in bounded slices).
func (s *Server) Submit(cc harness.CampaignConfig, threads, stopAfter int) (*Job, error) {
	if threads > 0 {
		cc.Threads = threads
	}
	if err := cc.Validate(); err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.nextID++
	j := &Job{
		id:     fmt.Sprintf("c%d", s.nextID),
		config: cc,
		state:  StateRunning,
		//golint:allow wall-clock — operator-facing job metadata timestamps; nothing in the campaign pipeline branches on them
		submitted: time.Now(),
	}
	j.updated = j.submitted
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	s.mu.Unlock()
	s.persistConfig(j)
	s.persistStatus(j)
	s.launch(j, nil, 0, stopAfter)
	return j, nil
}

// Pause requests that a running job checkpoint at the next classified
// task. The transition to paused is asynchronous; poll the job state
// or fetch the checkpoint (which conflicts until the leg has parked).
func (s *Server) Pause(j *Job) error {
	j.mu.Lock()
	if j.state != StateRunning {
		state := j.state
		j.mu.Unlock()
		return fmt.Errorf("job %s is %s, only running jobs pause", j.id, state)
	}
	j.state = StatePausing
	j.touch()
	j.mu.Unlock()
	j.stop.request()
	s.persistStatus(j)
	return nil
}

// Resume continues a paused job from its checkpoint, optionally with a
// different worker count and a fresh task budget.
func (s *Server) Resume(j *Job, threads, stopAfter int) error {
	j.mu.Lock()
	if j.state != StatePaused {
		defer j.mu.Unlock()
		return fmt.Errorf("job %s is %s, only paused jobs resume", j.id, j.state)
	}
	cp := j.checkpoint
	if cp == nil {
		defer j.mu.Unlock()
		return fmt.Errorf("job %s has no checkpoint to resume from", j.id)
	}
	j.state = StateRunning
	j.touch()
	j.stop.clear()
	j.mu.Unlock()
	s.persistStatus(j)
	s.launch(j, cp, threads, stopAfter)
	return nil
}

// launch starts one leg of the job on a runner goroutine.
func (s *Server) launch(j *Job, cp *harness.Checkpoint, threads, stopAfter int) {
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		tr := telemetry.NewTracker()
		opt := harness.RunOptions{
			Telemetry: tr,
			Trace:     legTrace{j},
			Threads:   threads,
			StopAfter: stopAfter,
			Stop:      j.stop.stopped,
			Progress: func(done, total int) {
				// Runs on the classification goroutine — the tracker's
				// single owner — so snapshotting here is race-free.
				snap := tr.Snapshot()
				j.mu.Lock()
				j.done, j.total = done, total
				j.telemetry = snap
				j.mu.Unlock()
			},
		}
		var out *harness.Outcome
		var err error
		if cp != nil {
			out, err = harness.Resume(cp, opt)
		} else {
			out, err = harness.Start(j.config, opt)
		}
		s.land(j, out, err)
	}()
}

// land publishes a finished leg. The leg's checkpoint or envelope and
// the new status reach the spool before the job shows its new state,
// so a client that sees a job done or paused finds its document on
// disk, and a leg whose outcome cannot be written ends failed without
// ever showing done.
func (s *Server) land(j *Job, out *harness.Outcome, err error) {
	j.spoolMu.Lock()
	j.mu.Lock()
	j.touch()
	next := j.status()
	j.mu.Unlock()
	switch {
	case err != nil:
		next.State, next.Error = StateFailed, err.Error()
	case out.Paused:
		next.State, next.Done = StatePaused, out.Checkpoint.Done
		next.Summary = summaryOf(out.Result)
	default:
		next.State, next.Done = StateDone, out.Envelope.Tasks
		next.Summary = summaryOf(out.Result)
	}
	if dir := s.jobDir(j); dir != "" {
		if werr := persistOutcome(dir, next, out); werr != nil {
			next.State, next.Error = StateFailed, fmt.Sprintf("persisting outcome: %v", werr)
			writeStatus(dir, next) // best-effort; the spool may still be broken
		}
	}
	j.mu.Lock()
	j.state, j.errMsg, j.done, j.summary = next.State, next.Error, next.Done, next.Summary
	if err == nil {
		j.telemetry = out.Telemetry
		if out.Paused {
			j.checkpoint = out.Checkpoint
		} else {
			j.checkpoint, j.envelope = nil, out.Envelope
		}
	}
	j.mu.Unlock()
	j.spoolMu.Unlock()
	if next.State == StateDone || next.State == StateFailed {
		s.gc()
	}
}

// touch refreshes the operator-facing update timestamp; callers hold
// j.mu.
func (j *Job) touch() {
	//golint:allow wall-clock — operator-facing job metadata timestamps; nothing in the campaign pipeline branches on them
	j.updated = time.Now()
}

// Close pauses every running job and waits for all runner goroutines;
// the server must not be used afterwards. Spooled jobs will reload as
// paused (mid-leg checkpoints land before Close returns).
func (s *Server) Close() {
	s.mu.Lock()
	for _, j := range s.jobs {
		j.stop.request()
	}
	s.mu.Unlock()
	s.wg.Wait()
}

// Wait blocks until every runner goroutine has parked (jobs done,
// paused, or failed) without requesting any pause. Test helper and
// shutdown aid; new submissions during Wait extend it.
func (s *Server) Wait() { s.wg.Wait() }
