package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/harness"
	"repro/internal/service"
	"repro/internal/telemetry"
)

// serviceWorkload drives the campaign service over loopback HTTP with a
// closed loop of clients: each submits a job, polls it to completion and
// downloads its envelope before submitting the next. Jobs come in
// same-seed pairs: the straight twin runs through, the paused twin stops
// after stopAfter tasks, has its checkpoint downloaded, and is resumed.
// The jobs form a fixed catalogue of batch/2 pairs, visited in an order
// drawn from the seed; a run repeats the catalogue until its time is up.
type serviceWorkload struct {
	job     harness.CampaignConfig // Seed is set per job pair
	clients int
	batch   int // jobs in one pass of the catalogue
	// segment is the number of jobs the clients run between two samples
	// of the reference program; it divides batch.
	segment    int
	stopAfter  int
	coldStarts int
	poll       time.Duration
	// retain bounds the spool (and the server's memory) to the newest
	// terminal jobs, so a long run does not grow its peak RSS.
	retain int
}

func defaultService() serviceWorkload {
	return serviceWorkload{
		job: harness.CampaignConfig{
			SUT:        "z3sim",
			Logics:     []string{"QF_LIA", "QF_LRA"},
			Iterations: 20,
			SeedPool:   4,
			Threads:    1,
			Backends:   []harness.BackendConfig{{Sim: &harness.SimBackendConfig{SUT: "cvc4sim"}}},
		},
		clients:    2,
		batch:      400,
		segment:    50,
		stopAfter:  20,
		coldStarts: 15,
		poll:       time.Millisecond,
		retain:     16,
	}
}

// jobRecord is one job as a client saw it.
type jobRecord struct {
	n          int
	pair       int
	latency    float64 // ms, submit to envelope downloaded
	submitHTTP float64 // ms
	resumeHTTP float64 // ms, paused twins only
	inspects   []float64
	envSum     [sha256.Size]byte
	envLen     int
	cpLen      int
	// envelope and checkpoint are kept for the first pass of the
	// catalogue only; later passes are checked against envSum.
	envelope, checkpoint []byte
	err                  error
}

func (r jobRecord) paused() bool { return r.n%2 == 1 }

// window is one closed-loop measurement.
type window struct {
	jobs    []jobRecord // ordered by job number
	elapsed float64     // s, the segments' wall time
	cpu     float64     // s
	// scaled and scaledCPU are elapsed and cpu in reference-host seconds.
	scaled, scaledCPU float64
	mallocs           float64
	gcs               float64
	allocMB           float64
	peakRSS           float64 // MB, read when the minimum passes end
	tests             int
	snap              telemetry.Snapshot // telemetry of the first pass
	bugs              int
	wrong             int
	failures          int
}

func (w serviceWorkload) run(rc runConfig) (*outcome, error) {
	o := newOutcome()
	hc := &http.Client{Timeout: time.Minute, Transport: &http.Transport{MaxIdleConnsPerHost: 2 * w.clients}}
	defer hc.CloseIdleConnections()
	order := rand.New(rand.NewSource(rc.seed)).Perm(w.batch / 2)
	start := now()

	if !rc.trace {
		if err := rc.ref.mark(); err != nil {
			return nil, err
		}
		var colds []float64
		for k := 0; k < w.coldStarts; k++ {
			s, err := w.coldStart(rc, hc, k, o)
			if err != nil {
				return nil, err
			}
			scale, err := rc.ref.scale()
			if err != nil {
				return nil, err
			}
			colds = append(colds, s*scale)
		}
		fmt.Fprintf(rc.log, "service cold starts (reference-host s): %.4f\n", colds)
		win, err := w.measure(rc, hc, order, minPasses, rc.seconds-seconds(start), nil)
		if err != nil {
			return nil, err
		}
		w.verify(rc, &win, o)
		perBatch := float64(w.batch) / float64(len(win.jobs))
		o.values["setup_s"] = median(colds)
		o.values["wall_s"] = win.scaled * perBatch
		o.values["tests_per_s"] = ratio(float64(win.tests), win.scaled)
		o.values["cpu_s"] = win.scaledCPU * perBatch
		o.values["peak_rss_mb"] = win.peakRSS
		o.values["allocs_per_test"] = ratio(win.mallocs, float64(win.tests))
		return o, nil
	}

	// Traced run: an untraced window, then the same jobs again with the
	// CPU profile recording. The service always attaches its own
	// telemetry and trace, so the profile is the only added cost.
	plain, err := w.measure(rc, hc, order, 1, rc.seconds/2, nil)
	if err != nil {
		return nil, err
	}
	prof := newCPUProfile()
	traced, err := w.measure(rc, hc, order, 1, rc.seconds-seconds(start), prof)
	if err != nil {
		return nil, err
	}
	w.verify(rc, &traced, o)
	w.verify(rc, &plain, o)
	w.layers(plain, traced, prof, o)
	return o, nil
}

// coldStart times a fresh server from construction to the first job's
// downloaded envelope. Every cold start runs the straight twin of
// catalogue pair 0, whatever the seed, so they differ only by noise.
func (w serviceWorkload) coldStart(rc runConfig, hc *http.Client, k int, o *outcome) (float64, error) {
	start := now()
	ls, err := startServer(rc.workdir, w.retain)
	if err != nil {
		return 0, err
	}
	rec := w.runJob(hc, ls.base, 0, 0, true)
	s := seconds(start)
	o.attempted++
	if _, err := checkJob(rec, w.stopAfter); err != nil {
		o.failed++
		o.problemf("cold start %d: %v", k, err)
	}
	return s, ls.close()
}

// minPasses is the number of passes an untraced run always makes, and
// the work over which it reads peak_rss_mb (see minRounds).
const minPasses = 2

// measure runs the closed loop on a fresh server for whole passes of the
// catalogue: at least passes, and another while it fits in the budget
// (s) at the pace so far. A pass runs in segments, each followed by a
// sample of the reference program. The window's peakRSS is read when
// the minimum passes end.
func (w serviceWorkload) measure(rc runConfig, hc *http.Client, order []int, passes int, budget float64, prof *cpuProfile) (window, error) {
	ls, err := startServer(rc.workdir, w.retain)
	if err != nil {
		return window{}, err
	}
	win, err := w.loop(rc, hc, ls.base, order, passes, budget, prof)
	slices.SortFunc(win.jobs, func(a, b jobRecord) int { return a.n - b.n })
	return win, errors.Join(err, ls.close())
}

func (w serviceWorkload) loop(rc runConfig, hc *http.Client, base string, order []int, passes int, budget float64, prof *cpuProfile) (window, error) {
	var win window
	if err := rc.ref.mark(); err != nil {
		return win, err
	}
	start := now()
	for from := 0; ; from += w.segment {
		if done := from / w.batch; from%w.batch == 0 && done >= passes &&
			seconds(start)*float64(done+1)/float64(done) > budget {
			return win, nil
		}
		elapsed, cpu, err := w.runSegment(hc, base, order, from, prof, &win)
		if err != nil {
			return win, err
		}
		scale, err := rc.ref.scale()
		if err != nil {
			return win, err
		}
		win.elapsed += elapsed
		win.cpu += cpu
		win.scaled += elapsed * scale
		win.scaledCPU += cpu * scale
		if from+w.segment == passes*w.batch {
			win.peakRSS = float64(readUsage().maxRSSKiB) / 1024
		}
	}
}

// runSegment runs jobs from..from+w.segment-1 on the clients, adds them
// to win and returns the segment's wall and CPU time.
func (w serviceWorkload) runSegment(hc *http.Client, base string, order []int, from int, prof *cpuProfile, win *window) (elapsed, cpu float64, err error) {
	if prof != nil {
		if err := prof.start(); err != nil {
			return 0, 0, err
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs, gcs, alloc := ms.Mallocs, ms.NumGC, ms.TotalAlloc
	u0 := readUsage()
	start := now()

	var next atomic.Int64
	next.Store(int64(from))
	perClient := make([][]jobRecord, w.clients)
	var wg sync.WaitGroup
	for c := range perClient {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := int(next.Add(1) - 1); n < from+w.segment; n = int(next.Add(1) - 1) {
				pair := order[(n/2)%len(order)]
				perClient[c] = append(perClient[c], w.runJob(hc, base, n, pair, n < w.batch))
			}
		}()
	}
	wg.Wait()

	elapsed = seconds(start)
	u1 := readUsage()
	runtime.ReadMemStats(&ms)
	win.mallocs += float64(ms.Mallocs - mallocs)
	win.gcs += float64(ms.NumGC - gcs)
	win.allocMB += float64(ms.TotalAlloc-alloc) / (1 << 20)
	for _, recs := range perClient {
		win.jobs = append(win.jobs, recs...)
	}
	if prof != nil {
		err = prof.stop()
	}
	return elapsed, u1.self - u0.self, err
}

// verify checks every job of a window: each reached done; in the first
// pass each envelope decodes and merges and each paused twin's
// checkpoint decodes at the requested frontier; every twin and every
// repeat of a catalogue pair downloads a byte-identical envelope. It
// fills the window's test count, first-pass telemetry and result-plane
// totals.
func (w serviceWorkload) verify(rc runConfig, win *window, o *outcome) {
	type pairResult struct {
		envSum [sha256.Size]byte
		tests  int
	}
	pairs := map[int]pairResult{}
	for _, rec := range win.jobs {
		o.attempted++
		if rec.n >= w.batch {
			continue
		}
		m, err := checkJob(rec, w.stopAfter)
		if err != nil {
			win.failures++
			o.problemf("job %d: %v", rec.n, err)
			continue
		}
		win.snap.Accumulate(m.Telemetry)
		if !rec.paused() {
			// The twin repeats this result; count each pair once.
			win.bugs += len(m.Result.Bugs) + len(m.Result.BackendFindings)
			win.wrong += m.Result.ReferenceDisagreements
			pairs[rec.pair] = pairResult{rec.envSum, m.Result.Tests}
		}
	}
	for _, rec := range win.jobs {
		p, ok := pairs[rec.pair]
		switch {
		case rec.err != nil:
			if rec.n >= w.batch {
				win.failures++
				o.problemf("job %d: %v", rec.n, rec.err)
			}
		case !ok:
			// The straight twin already failed its check.
		case rec.envSum != p.envSum:
			o.problemf("job %d: envelope of catalogue pair %d differs from its straight first run", rec.n, rec.pair)
		default:
			win.tests += p.tests
		}
	}
	o.failed += win.failures
	o.bugs, o.wrong = win.bugs, win.wrong
	lat := latencies(win.jobs, func(jobRecord) bool { return true })
	p, v, ok := tailPercentile(lat)
	tail := "no percentile has 10 samples beyond it"
	if ok {
		tail = fmt.Sprintf("p%g %.2f ms", p, v)
	}
	fmt.Fprintf(rc.log, "service: %d jobs in %.2f s (%.1f jobs/s), submit to envelope p50 %.2f ms, %s (%d samples); per pass of %d jobs, counting each pair once: bugs_found %d  wrong_verdicts %d; error_rate %g\n",
		len(win.jobs), win.elapsed, float64(len(win.jobs))/win.elapsed, median(lat), tail, len(lat),
		w.batch, win.bugs, win.wrong, ratio(float64(win.failures), float64(len(win.jobs))))
}

// checkJob verifies one job's downloads and merges its envelope.
func checkJob(rec jobRecord, stopAfter int) (*harness.Merged, error) {
	if rec.err != nil {
		return nil, rec.err
	}
	if rec.paused() {
		cp, err := harness.DecodeCheckpoint(rec.checkpoint)
		if err != nil {
			return nil, err
		}
		if cp.Done != stopAfter {
			return nil, fmt.Errorf("checkpoint at %d tasks, want %d", cp.Done, stopAfter)
		}
	}
	env, err := harness.DecodeEnvelope(rec.envelope)
	if err != nil {
		return nil, err
	}
	return harness.Merge([]*harness.Envelope{env}, "")
}

func (w serviceWorkload) layers(plain, traced window, prof *cpuProfile, o *outcome) {
	setTelemetryLayers(o, plain.snap)
	setShares(o, prof)

	lat := latencies(plain.jobs, func(jobRecord) bool { return true })
	var submits, inspects, resumes, checkpoints, envelopes []float64
	for _, r := range plain.jobs {
		submits = append(submits, r.submitHTTP)
		inspects = append(inspects, r.inspects...)
		envelopes = append(envelopes, float64(r.envLen))
		if r.paused() {
			resumes = append(resumes, r.resumeHTTP)
			checkpoints = append(checkpoints, float64(r.cpLen))
		}
	}
	p975, ok := percentile(lat, 97.5)
	if !ok {
		o.problemf("%d jobs are too few for a 97.5th latency percentile", len(lat))
	}
	perBatch := float64(w.batch) / float64(len(plain.jobs))
	o.values["service.submit_http_p50_ms"] = median(submits)
	o.values["service.inspect_http_p50_ms"] = median(inspects)
	o.values["service.resume_http_p50_ms"] = median(resumes)
	o.values["service.straight_p50_ms"] = median(latencies(plain.jobs, func(r jobRecord) bool { return !r.paused() }))
	o.values["service.paused_p50_ms"] = median(latencies(plain.jobs, jobRecord.paused))
	o.values["service.submit_p50_ms"] = median(lat)
	o.values["service.submit_p97.5_ms"] = p975
	o.values["service.jobs_per_s"] = float64(len(plain.jobs)) / plain.elapsed
	o.values["harness.checkpoint_bytes"] = median(checkpoints)
	o.values["harness.envelope_bytes"] = median(envelopes)
	o.values["runtime.gc_cycles"] = plain.gcs * perBatch
	o.values["runtime.alloc_mb"] = plain.allocMB * perBatch
	o.values["harness.parallel_efficiency"] = ratio(plain.cpu, plain.elapsed*float64(w.clients))
	for _, name := range []string{"backend.child_cpu_s", "backend.check_p50_ms", "backend.check_p97.5_ms"} {
		o.values[name] = 0
	}
	mean := func(win window) float64 {
		return ratio(win.scaled*float64(w.clients), float64(len(win.jobs)))
	}
	o.values["trace.overhead"] = ratio(mean(traced), mean(plain)) - 1
}

func latencies(jobs []jobRecord, keep func(jobRecord) bool) []float64 {
	var out []float64
	for _, r := range jobs {
		if r.err == nil && keep(r) {
			out = append(out, r.latency)
		}
	}
	return out
}

// runJob submits job n, of catalogue pair pair, and follows it to its
// downloaded envelope. keep retains the downloaded documents for the
// checks after the window.
func (w serviceWorkload) runJob(hc *http.Client, base string, n, pair int, keep bool) jobRecord {
	rec := jobRecord{n: n, pair: pair}
	cc := w.job
	cc.Seed = int64(pair + 1)
	sub := submitRequest{Config: cc}
	if rec.paused() {
		sub.StopAfter = w.stopAfter
	}
	start := now()
	var info jobInfo
	data, ms, err := call(hc, http.MethodPost, base+"/api/v1/campaigns", sub, http.StatusCreated)
	rec.submitHTTP = ms
	if err == nil {
		err = json.Unmarshal(data, &info)
	}
	if err != nil {
		rec.err = err
		return rec
	}
	jobURL := base + "/api/v1/campaigns/" + info.ID
	state := w.await(hc, jobURL, &rec)
	if rec.paused() && rec.err == nil {
		if state != service.StatePaused {
			rec.err = fmt.Errorf("twin is %s, want paused after %d tasks", state, w.stopAfter)
			return rec
		}
		cp, _, err := call(hc, http.MethodGet, jobURL+"/checkpoint", nil, http.StatusOK)
		if err != nil {
			rec.err = err
			return rec
		}
		rec.cpLen = len(cp)
		if keep {
			rec.checkpoint = cp
		}
		if _, rec.resumeHTTP, rec.err = call(hc, http.MethodPost, jobURL+"/resume", struct{}{}, http.StatusAccepted); rec.err != nil {
			return rec
		}
		state = w.await(hc, jobURL, &rec)
	}
	if rec.err != nil {
		return rec
	}
	if state != service.StateDone {
		rec.err = fmt.Errorf("job ended %s", state)
		return rec
	}
	env, _, err := call(hc, http.MethodGet, jobURL+"/envelope", nil, http.StatusOK)
	rec.latency = seconds(start) * 1000
	rec.err = err
	rec.envSum, rec.envLen = sha256.Sum256(env), len(env)
	if keep {
		rec.envelope = env
	}
	return rec
}

// await polls a job until it leaves the running and pausing states.
func (w serviceWorkload) await(hc *http.Client, jobURL string, rec *jobRecord) string {
	for {
		var info jobInfo
		data, ms, err := call(hc, http.MethodGet, jobURL, nil, http.StatusOK)
		if err == nil {
			err = json.Unmarshal(data, &info)
		}
		if err != nil {
			rec.err = err
			return ""
		}
		rec.inspects = append(rec.inspects, ms)
		if info.State != service.StateRunning && info.State != service.StatePausing {
			return info.State
		}
		//golint:allow wall-clock — the client's poll interval; the server never sees it
		time.Sleep(w.poll)
	}
}

type submitRequest struct {
	Config    harness.CampaignConfig `json:"config"`
	StopAfter int                    `json:"stop_after,omitempty"`
}

type jobInfo struct {
	ID    string `json:"id"`
	State string `json:"state"`
}

// call sends one request, with body encoded as JSON when non-nil, and
// returns the reply body and the round-trip time in ms. Any status other
// than want is an error.
func call(hc *http.Client, method, url string, body any, want int) ([]byte, float64, error) {
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			return nil, 0, err
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return nil, 0, err
	}
	start := now()
	resp, err := hc.Do(req)
	if err != nil {
		return nil, 0, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	ms := seconds(start) * 1000
	if err != nil {
		return nil, ms, err
	}
	if resp.StatusCode != want {
		return nil, ms, fmt.Errorf("%s %s: status %d: %s", method, url, resp.StatusCode, bytes.TrimSpace(data))
	}
	return data, ms, nil
}

// liveServer is a service.Server behind a loopback HTTP listener, with
// its spool in a fresh directory under the run's workdir.
type liveServer struct {
	srv    *service.Server
	hs     *http.Server
	base   string
	spool  string
	served chan error
}

func startServer(workdir string, retain int) (*liveServer, error) {
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return nil, err
	}
	spool, err := os.MkdirTemp(workdir, "spool-")
	if err != nil {
		return nil, err
	}
	srv, err := service.NewWithRetention(spool, retain)
	if err != nil {
		os.RemoveAll(spool)
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		os.RemoveAll(spool)
		return nil, err
	}
	ls := &liveServer{
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler()},
		base:   "http://" + ln.Addr().String(),
		spool:  spool,
		served: make(chan error, 1),
	}
	go func() { ls.served <- ls.hs.Serve(ln) }()
	return ls, nil
}

// close stops the listener, waits for Serve to return, pauses and waits
// for the server's campaign runners, and removes the spool.
func (ls *liveServer) close() error {
	err := ls.hs.Close()
	if serr := <-ls.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	ls.srv.Close()
	return errors.Join(err, os.RemoveAll(ls.spool))
}
