package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"regexp"
	"runtime"
	"testing"
	"time"
)

// submitSeeds are the submit bodies the fuzzers start from: a valid
// body, the oversized sizes that once killed the process, unknown
// fields, trailing data, negative values and an empty body.
var submitSeeds = []string{
	`{"config":{"sut":"z3sim","logics":["QF_LIA"],"iterations":2,"seed_pool":2,"seed":3},"stop_after":1}`,
	`{"config":{"sut":"z3sim","logics":["QF_LIA"],"iterations":4,"seed_pool":2,"seed":5,"backends":[{"sim":{"sut":"cvc4sim"}}]},"threads":2}`,
	`{"config":{"sut":"z3sim","logics":["QF_LIA"],"iterations":1099511627776}}`,
	`{"config":{"sut":"z3sim","iterations":4611686018427387904}}`,
	`{"config":{"sut":"z3sim","logics":["QF_LIA"],"seed_pool":1099511627776}}`,
	`{"config":{"sut":"z3sim","logics":["QF_LIA"],"iterations":2},"threads":1099511627776}`,
	`{"config":{"sut":"z3sim","logics":["QF_LIA"],"iterations":2,"threads":1099511627776}}`,
	`{"config":{"sut":"z3sim"},"frobnicator":1}`,
	`{"config":{"sut":"z3sim","logics":["QF_LIA"],"iterations":2}} {}`,
	`{"config":{"sut":"z3sim","logics":["QF_LIA"],"iterations":-2,"seed_pool":-1},"threads":-4,"stop_after":-1}`,
	``,
}

// resumeSeeds are the resume bodies the resume fuzzer starts from.
var resumeSeeds = []string{
	`{"threads":2,"stop_after":1}`,
	`{"threads":1099511627776}`,
	`{"threads":-3,"stop_after":-1}`,
	`{"frobnicator":1}`,
	`{} {}`,
	``,
}

// FuzzSubmitBody holds the submit endpoint to its contract on arbitrary
// bodies: a 4xx, or a 201 whose body decodes to a valid Info. Close
// must return, and no goroutine may outlive it.
func FuzzSubmitBody(f *testing.F) {
	for _, s := range submitSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		skipHostEffects(t, body)
		withServer(t, func(s *Server, h http.Handler) {
			code, data := post(h, "/api/v1/campaigns", body)
			checkAnswer(t, code, data, http.StatusCreated)
		})
	})
}

// FuzzResumeBody does the same for the resume endpoint of a paused job.
func FuzzResumeBody(f *testing.F) {
	for _, s := range resumeSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		withServer(t, func(s *Server, h http.Handler) {
			code, data := post(h, "/api/v1/campaigns", []byte(submitSeeds[0]))
			if code != http.StatusCreated {
				t.Fatalf("submit: %d %s", code, data)
			}
			s.Wait() // the job parks at its stop_after budget
			var info Info
			if err := json.Unmarshal(data, &info); err != nil {
				t.Fatal(err)
			}
			code, data = post(h, "/api/v1/campaigns/"+info.ID+"/resume", body)
			checkAnswer(t, code, data, http.StatusAccepted)
		})
	})
}

// skipHostEffects skips bodies that would reach outside the process: a
// process backend runs the program it names, and an artifact directory
// is written to. The control plane accepts both from an operator; a
// fuzzer must not exercise them on the host.
func skipHostEffects(t *testing.T, body []byte) {
	if bytes.Contains(body, []byte("process")) || bytes.Contains(body, []byte("artifact")) {
		t.Skip("body configures host effects")
	}
}

// withServer runs fn against a fresh in-memory server, then closes it
// and waits for every goroutine the server started to end.
func withServer(t *testing.T, fn func(*Server, http.Handler)) {
	before := runtime.NumGoroutine()
	s, err := New("")
	if err != nil {
		t.Fatal(err)
	}
	fn(s, s.Handler())
	s.Close()
	// A wall-clock watchdog abandons a timed-out solve to finish in the
	// background, so give stragglers a bounded while to end.
	for deadline := time.Now().Add(10 * time.Second); runtime.NumGoroutine() > before; {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines outlived Close: %d before, %d after\n%s",
				before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
}

func post(h http.Handler, path string, body []byte) (int, []byte) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	return rec.Code, rec.Body.Bytes()
}

var jobID = regexp.MustCompile(`^c[0-9]+$`)

// checkAnswer accepts a 4xx with a JSON error, or the success code with
// a valid Info: a job id, a known state, a frontier within its total,
// and a config that validates.
func checkAnswer(t *testing.T, code int, data []byte, success int) {
	t.Helper()
	if code >= 400 && code < 500 {
		if !json.Valid(data) {
			t.Fatalf("%d with a non-JSON body %q", code, data)
		}
		return
	}
	if code != success {
		t.Fatalf("status %d, want 4xx or %d: %s", code, success, data)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var info Info
	if err := dec.Decode(&info); err != nil {
		t.Fatalf("%d body does not decode to an Info: %v\n%s", code, err, data)
	}
	switch info.State {
	case StateRunning, StatePausing, StatePaused, StateDone, StateFailed:
	default:
		t.Fatalf("unknown state %q", info.State)
	}
	if !jobID.MatchString(info.ID) || info.Done < 0 || info.Done > info.Total {
		t.Fatalf("invalid info: %+v", info)
	}
	if err := info.Config.Validate(); err != nil {
		t.Fatalf("accepted config does not validate: %v", err)
	}
}
