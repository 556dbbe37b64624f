// Command refspeed is the benchmark's reference program. It runs a
// fixed, allocation-heavy loop — map updates and short-lived slices, the
// mix of work the solvers and their garbage collector do — on two
// goroutines, and prints its own wall time in seconds.
//
// It shares no code with the repository and runs in a process of its
// own, so nothing a change to the repository does can alter its speed;
// only the host can. yybench runs it between the executions it times:
// on a shared host whose speed drifts as other tenants load its cores,
// caches and memory, an execution and the reference runs around it slow
// down together.
package main

import (
	"fmt"
	"os"
	"sync"
	"time"
)

const (
	workers = 2  // the core count the benchmark's workloads use
	units   = 25 // per worker: 0.085 s in all on the host it was sized on
)

func unit() int {
	m := map[int]int{}
	sum := 0
	for i := 0; i < 200000; i++ {
		m[i%5000] += i
		b := make([]int, 8)
		b[i%8] = i
		sum += b[3]
	}
	return sum + len(m)
}

func main() {
	//golint:allow wall-clock — the reference program's only output is its own wall time
	start := time.Now()
	sums := make([]int, workers)
	var wg sync.WaitGroup
	for w := range sums {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for u := 0; u < units; u++ {
				sums[w] += unit()
			}
		}()
	}
	wg.Wait()
	//golint:allow wall-clock — see above
	elapsed := time.Since(start).Seconds()
	if sums[0] != sums[1] {
		fmt.Fprintln(os.Stderr, "refspeed: workers disagree")
		os.Exit(1)
	}
	fmt.Printf("%.9f\n", elapsed)
}
