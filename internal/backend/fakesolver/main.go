// Command fakesolver is the fault-injection fixture for the
// process-backend test suite: a scriptable stand-in for an external
// SMT solver binary. It is never checked in as a binary — the tests
// (and the ci.sh backend stage) build it on the fly.
//
// The -mode flag selects the failure to simulate:
//
//	sat, unsat, unknown — print that verdict (decorated with banners,
//	    CRLF endings, and mixed case under -decorate)
//	hang     — read stdin forever and never answer (deadline test)
//	crash    — print to stderr and exit nonzero (-exit, default 139)
//	sigkill  — die on SIGKILL (signal-death capture test)
//	garble   — exit 0 with output that contains no verdict
//	truncate — exit 0 with a cut-off verdict token ("uns")
//	drip     — print "unsat" one byte at a time, sleeping -drip-ms
//	    between bytes (slow-drip vs. deadline test)
//	silent   — exit 0 with no output at all (transient-failure test)
//	flood    — write 1 MiB to stdout and to stderr, then exit 0
//	    (output-bound test)
//	flake    — fail with empty output while the invocation counter in
//	    -state is below -failures, then answer -then (retry test)
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"syscall"
	"time"
)

func main() {
	mode := flag.String("mode", "sat", "behaviour to simulate")
	decorate := flag.Bool("decorate", false, "wrap the verdict in banner comments, CRLF endings, and upper case")
	exitCode := flag.Int("exit", 139, "exit status for -mode crash")
	stderrMsg := flag.String("stderr", "", "message to print on stderr before acting")
	statePath := flag.String("state", "", "invocation-counter file for -mode flake")
	failures := flag.Int("failures", 1, "invocations to fail before recovering (-mode flake)")
	then := flag.String("then", "sat", "verdict printed once -mode flake recovers")
	dripMS := flag.Int("drip-ms", 20, "per-byte delay for -mode drip")
	flag.Parse()

	if *stderrMsg != "" {
		fmt.Fprintln(os.Stderr, *stderrMsg)
	}

	switch *mode {
	case "sat", "unsat", "unknown":
		drain()
		verdict(*mode, *decorate)
	case "hang":
		// Never answer; the backend's deadline must kill us. Sleep in a
		// loop rather than select{} — with stdin drained every goroutine
		// would be idle and the runtime's deadlock detector would exit
		// for us, defeating the point.
		drain()
		for {
			//golint:allow wall-clock — fault-injection fixture simulating a hung external solver
			time.Sleep(time.Hour)
		}
	case "crash":
		drain()
		os.Exit(*exitCode)
	case "sigkill":
		drain()
		// SIGKILL cannot be caught — not even by the Go runtime, whose
		// SIGSEGV handler would otherwise turn signal death into an
		// exit-2 panic — so this is a genuine die-on-signal.
		syscall.Kill(os.Getpid(), syscall.SIGKILL)
		select {} // unreachable: the signal kills us
	case "garble":
		drain()
		fmt.Println("; preamble comment")
		fmt.Println("segmentation fault dumped core (not really)")
		fmt.Println("unsatisfiable-ish")
	case "truncate":
		drain()
		fmt.Print("uns")
	case "drip":
		drain()
		for _, c := range []byte("unsat\n") {
			os.Stdout.Write([]byte{c})
			//golint:allow wall-clock — fault-injection fixture simulating a slow external solver
			time.Sleep(time.Duration(*dripMS) * time.Millisecond)
		}
	case "silent":
		drain()
	case "flood":
		drain()
		chunk := make([]byte, 4096)
		for i := range chunk {
			chunk[i] = 'x'
		}
		for range 256 {
			os.Stdout.Write(chunk)
			os.Stderr.Write(chunk)
		}
	case "flake":
		drain()
		n := bump(*statePath)
		if n <= *failures {
			os.Exit(1) // empty output + nonzero exit: a transient flake
		}
		verdict(*then, *decorate)
	default:
		fmt.Fprintf(os.Stderr, "fakesolver: unknown mode %q\n", *mode)
		os.Exit(2)
	}
}

func drain() { io.Copy(io.Discard, os.Stdin) }

// verdict prints the answer, optionally decorated with everything the
// output normalizer must tolerate: banner comments, CRLF endings,
// upper case, and trailing model-ish lines.
func verdict(v string, decorate bool) {
	if !decorate {
		fmt.Println(v)
		return
	}
	out := "; fakesolver v1.0 (banner)\r\n" +
		";; warming up\r\n" +
		"  " + upper(v) + "  \r\n" +
		"(model)\r\n"
	io.WriteString(os.Stdout, out)
}

func upper(s string) string {
	b := []byte(s)
	for i, c := range b {
		if 'a' <= c && c <= 'z' {
			b[i] = c - 'a' + 'A'
		}
	}
	return string(b)
}

// bump increments the invocation counter stored in path and returns the
// new value. The flake tests run invocations sequentially, so plain
// read-modify-write is enough.
func bump(path string) int {
	n := 0
	if data, err := os.ReadFile(path); err == nil {
		n, _ = strconv.Atoi(string(data))
	}
	n++
	os.WriteFile(path, []byte(strconv.Itoa(n)), 0o644)
	return n
}
