package main

import (
	"fmt"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
)

// refSeconds is the reference program's median wall time on the quiet
// 2-core host the benchmark was sized on. Every end-to-end time is
// reported in seconds of that host: the measured time multiplied by
// refSeconds over the reference time measured around it.
const refSeconds = 0.085

// reference measures how fast the host runs right now, by timing the
// refspeed program (refspeed/main.go) in a child process between the
// executions the benchmark times. On a shared 2-core host, whose speed
// drifts with other tenants' load, the reference program drifted with
// the executions: in four sets of ten runs per workload the unscaled
// pass times spread by 9–44% of their median (distance between the
// quartiles), and the scaled end-to-end times by 3–13%.
type reference struct {
	path string
	// last is the latest sample, s; samples holds every sample.
	last    float64
	samples []float64
}

// mark takes a sample that opens the first timed interval.
func (r *reference) mark() error {
	v, err := r.sample()
	r.last = v
	return err
}

// scale takes a sample that closes the interval timed since the
// previous one and returns the factor that converts the interval's
// times into reference-host seconds. The sample opens the next interval.
func (r *reference) scale() (float64, error) {
	prev := r.last
	if err := r.mark(); err != nil {
		return 0, err
	}
	return refSeconds / ((prev + r.last) / 2), nil
}

func (r *reference) sample() (float64, error) {
	// Collect this process's garbage first, so that its collector is
	// idle while the reference runs and the next execution starts from
	// a clean heap.
	runtime.GC()
	out, err := exec.Command(r.path).Output()
	if err != nil {
		return 0, fmt.Errorf("reference program %s: %w", r.path, err)
	}
	v, err := strconv.ParseFloat(strings.TrimSpace(string(out)), 64)
	if err != nil || v <= 0 {
		return 0, fmt.Errorf("reference program %s printed %q", r.path, out)
	}
	r.samples = append(r.samples, v)
	return v, nil
}

// String summarises the run's samples for the human-readable output.
func (r *reference) String() string {
	return fmt.Sprintf("reference program: median %.4f s over %d samples (%.4f s on the host the benchmark was sized on)",
		median(r.samples), len(r.samples), refSeconds)
}
