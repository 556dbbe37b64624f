package main

import (
	"math"
	"slices"
	"syscall"
	"time"
)

// now reads the wall clock. Every timer in the benchmark goes through
// it, so the one clock read stays visible to the determinism lint.
func now() time.Time {
	//golint:allow wall-clock — the benchmark times the program from outside; nothing it measures feeds a campaign result
	return time.Now()
}

func seconds(since time.Time) float64 { return now().Sub(since).Seconds() }

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// minBeyond is how many samples must lie above a reported percentile.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile of xs. ok is false
// when fewer than minBeyond samples lie beyond it, in which case the
// percentile says nothing about the tail and must not be reported.
func percentile(xs []float64, p float64) (v float64, ok bool) {
	n := len(xs)
	if n == 0 {
		return 0, false
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	rank = max(1, min(rank, n))
	s := slices.Clone(xs)
	slices.Sort(s)
	return s[rank-1], n-rank >= minBeyond
}

// tailPercentile returns the highest percentile of the ladder that has
// at least minBeyond samples beyond it.
func tailPercentile(xs []float64) (p, v float64, ok bool) {
	for _, p := range []float64{99.9, 99.5, 99, 97.5, 95, 90, 75, 50} {
		if v, ok := percentile(xs, p); ok {
			return p, v, true
		}
	}
	return 0, 0, false
}

// usage is a getrusage sample of this process and its reaped children
// (the fakesolver backends).
type usage struct {
	self, children float64 // CPU seconds, user + system
	maxRSSKiB      int64
}

func readUsage() usage {
	var self, kids syscall.Rusage
	// Getrusage cannot fail for these two targets on Linux.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &self)
	_ = syscall.Getrusage(syscall.RUSAGE_CHILDREN, &kids)
	return usage{
		self:      cpuSeconds(self),
		children:  cpuSeconds(kids),
		maxRSSKiB: self.Maxrss,
	}
}

func cpuSeconds(ru syscall.Rusage) float64 {
	return time.Duration(syscall.TimevalToNsec(ru.Utime) + syscall.TimevalToNsec(ru.Stime)).Seconds()
}

// ratio is num/den, or 0 when there is nothing to divide by.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
