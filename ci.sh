#!/usr/bin/env bash
# Tier-1 verification: formatting, vet, build, full test suite, and
# race-detector runs over the concurrency-bearing packages. CI and
# local pre-merge checks run exactly this script.
set -euo pipefail
cd "$(dirname "$0")"

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet =="
go vet ./...

echo "== go build =="
go build ./...

echo "== package layering =="
# internal/regex is the automaton library; reading SMT-LIB RegLan terms
# into regexes is eval's job (eval.Regex), so regex must not import ast.
if go list -deps ./internal/regex | grep -qx 'repro/internal/ast'; then
    echo "layering: internal/regex depends on repro/internal/ast" >&2
    exit 1
fi

echo "== go test =="
go test ./...

echo "== go test -race (parallel campaign + solver + term tables) =="
# -short scales campaign iteration counts down: the race detector
# needs the parallel shard/merge structure exercised, not volume.
# Concurrent tasks read the frozen corpus term table, each through a
# table of its own, so the ast and fusion packages run here too.
go test -race -short -timeout 20m ./internal/harness/ ./internal/solver/... ./internal/ast/ ./internal/core/

echo "== go test -race (fault containment) =="
# The fault-injection suite full-length under the race detector: hang
# defects, synthetic panics, watchdog quarantine, artifact replay. The
# watchdog path spawns and abandons goroutines, so it gets the most
# scrutiny here.
go test -race -timeout 10m -run 'TestRunSolverInternalFault|TestHangDefect|TestSimplexHang|TestSyntheticPanic|TestFaultCampaign|TestArtifacts|TestWallTimeout' ./internal/harness/
go test -race -timeout 5m ./internal/fuel/ ./internal/watchdog/

echo "== go test -race (process backends) =="
# The process-boundary suite full-length under the race detector: the
# fakesolver fault matrix (hang ⇒ deadline kill + guaranteed reap,
# crash capture with exit status and stderr, garbled/truncated output,
# slow drip vs. deadline, transient flake healed by retry, circuit
# breaker), plus the campaign-level cross-check oracle, degraded mode,
# and backend reproducer bundles. The fakesolver fixture is built on
# the fly by the tests — no binaries are checked in.
go test -race -timeout 10m ./internal/backend/
go test -race -timeout 10m -run 'TestCampaignHermeticCrossCheck|TestCampaignProcessBackendHang|TestCampaignBackend' ./internal/harness/

echo "== go test -race (second oracles) =="
# Model-validation and mutation oracles full-length under the race
# detector, including the negative oracle: the clean reference solver
# must produce zero invalid-model reports over the generator corpus.
go test -race -timeout 10m -run 'TestModelValidationOracleFindsInjected|TestReferenceModelValidationClean|TestMutationCampaignFindsGuardCollapse' ./internal/harness/

echo "== go test -race (consensus oracle) =="
# The consensus-oracle suite full-length under the race detector (the
# seeded-dissenter findings live past iteration 60, so -short would
# scale them away): majority vote outvoting a seeded dissenter with
# deduplicated findings, determinism across thread counts, resume, and
# a 3-way shard merge, metamorphic variant pairs with a known-policy
# control arm, the tri-state contradiction predicate, the quorum
# knob, the oracle counter invariants, and the document goldens, which
# compare the wild-auto campaign's majority and metamorphic reproducer
# bundles byte for byte. The breaker verdict table and spool retention
# ride along from the same change.
go test -race -timeout 15m -run 'TestMajority|TestMetamorphic|TestUnknownOracle|TestContradiction|TestQuorum|TestConsensusValidation|TestOracleCounter|TestDocumentGolden' ./internal/harness/
go test -race -timeout 5m -run 'TestHealth' ./internal/backend/
go test -race -timeout 5m -run 'TestSpoolRetention' ./internal/service/

echo "== go test -race (campaign service) =="
# Checkpoint/resume and shard/merge determinism suites plus the HTTP
# control plane full-length under the race detector: kill-at-every-
# frontier resume, chained pause/resume, K-way shard merge with
# results, metrics, traces, and reproducer bundles byte-compared,
# fail-closed document corruption, concurrent API clients, spool
# reload, and goroutine-leak checks. The document goldens pin the
# checkpoint, envelope and fingerprint bytes across builds, and the
# envelope-merge fuzz seeds check that merging one envelope alone folds
# to the envelope's own result, metrics and trace.
go test -race -timeout 15m -run 'TestCheckpoint|TestShard|TestMerge|FuzzCheckpointRoundTrip|TestDocumentGolden|FuzzEnvelopeMerge' ./internal/harness/
go test -race -timeout 10m ./internal/service/

echo "== go test -race (telemetry) =="
# The telemetry layer full-length under the race detector: per-task
# trackers merged by the in-order classification stage, funnel totals
# against Result counts, and thread-count-invariant JSONL traces.
go test -race -timeout 10m -run 'TestFunnelMatchesResultCounts|TestTraceRoundTrip|TestThreadsClampNegative' ./internal/harness/
go test -race -timeout 5m ./internal/telemetry/

echo "== telemetry smoke =="
# End-to-end: a tiny campaign through the CLI must produce a Prometheus
# snapshot carrying the funnel sentinel metric.
tmpmetrics=$(mktemp)
go run ./cmd/yinyang -logics QF_LIA -iters 10 -pool 4 -seed 3 -threads 2 -metrics "$tmpmetrics" >/dev/null
grep -q '^yy_funnel_solved_total [1-9]' "$tmpmetrics" || {
    echo "telemetry smoke: yy_funnel_solved_total missing or zero in $tmpmetrics" >&2
    exit 1
}
# Every oracle mismatch must be rooted in a fired defect: this QF_NRA
# mutation campaign's wrong unsat comes from th-bound-conflict-eq, so a
# site that acts without recording shows here as a reference
# disagreement.
go run ./cmd/yinyang -sut cvc4sim -mode mutate -logics QF_NRA -iters 200 -pool 20 -seed 2 -threads 2 -metrics "$tmpmetrics" >/dev/null
if grep -q '^yy_funnel_reference_disagreements_total [1-9]' "$tmpmetrics"; then
    echo "telemetry smoke: reference disagreements in $tmpmetrics:" >&2
    grep '^yy_funnel_reference_disagreements_total' "$tmpmetrics" >&2
    exit 1
fi
rm -f "$tmpmetrics"

echo "== campaign service smoke =="
# End-to-end through the CLI: a campaign killed at a checkpoint and
# resumed with a different worker count, and the same campaign split
# into 3 shards (each with its own worker count) and merged, must both
# reproduce the uninterrupted run byte-for-byte — result fingerprint,
# Prometheus metrics, JSONL trace, and reproducer bundle tree.
tmpsvc=$(mktemp -d)
# A built binary, not `go run`: the pause leg's exit code 3 is part of
# the checked contract, and `go run` collapses child exit codes to 1.
go build -o "$tmpsvc/yy" ./cmd/yinyang
svcargs="-sut z3sim -logics QF_LIA,QF_S -iters 10 -pool 4 -seed 7 -backend cvc4sim"
"$tmpsvc/yy" $svcargs -threads 2 -artifacts "$tmpsvc/ref-art" \
    -metrics "$tmpsvc/ref.prom" -trace "$tmpsvc/ref.jsonl" -fingerprint "$tmpsvc/ref.fp" >/dev/null
set +e
"$tmpsvc/yy" $svcargs -threads 1 -checkpoint "$tmpsvc/cp.json" -stop-after 7 \
    -artifacts "$tmpsvc/cp-art" -metrics "$tmpsvc/cp.prom" -trace "$tmpsvc/cp.jsonl" >/dev/null
rc=$?
set -e
[ "$rc" -eq 3 ] || { echo "campaign smoke: pause leg exited $rc, want 3" >&2; exit 1; }
"$tmpsvc/yy" $svcargs -threads 3 -checkpoint "$tmpsvc/cp.json" \
    -artifacts "$tmpsvc/cp-art" -metrics "$tmpsvc/cp.prom" -trace "$tmpsvc/cp.jsonl" \
    -fingerprint "$tmpsvc/cp.fp" >/dev/null
cmp "$tmpsvc/ref.fp" "$tmpsvc/cp.fp"
cmp "$tmpsvc/ref.prom" "$tmpsvc/cp.prom"
cmp "$tmpsvc/ref.jsonl" "$tmpsvc/cp.jsonl"
diff -r "$tmpsvc/ref-art" "$tmpsvc/cp-art" >/dev/null
for s in 0 1 2; do
    "$tmpsvc/yy" $svcargs -threads $((s + 1)) -shard $s/3 \
        -artifacts "$tmpsvc/sh$s-art" -metrics "$tmpsvc/sh$s.prom" \
        -trace "$tmpsvc/sh$s.jsonl" -envelope "$tmpsvc/sh$s.json" >/dev/null
done
"$tmpsvc/yy" -merge -artifacts "$tmpsvc/merged-art" -metrics "$tmpsvc/merged.prom" \
    -trace "$tmpsvc/merged.jsonl" -fingerprint "$tmpsvc/merged.fp" \
    "$tmpsvc/sh0.json" "$tmpsvc/sh1.json" "$tmpsvc/sh2.json" >/dev/null
cmp "$tmpsvc/ref.fp" "$tmpsvc/merged.fp"
cmp "$tmpsvc/ref.prom" "$tmpsvc/merged.prom"
cmp "$tmpsvc/ref.jsonl" "$tmpsvc/merged.jsonl"
diff -r "$tmpsvc/ref-art" "$tmpsvc/merged-art" >/dev/null
rm -rf "$tmpsvc"

echo "== reducer -outdir smoke =="
# End-to-end through the CLI: a campaign's -outdir shrinks each bug's
# witness while it still shows the bug. At this seed the QF_LRA run
# finds the rw-div-mul-through soundness bug; its reduced script must
# still be sat for the buggy z3sim and unsat for the reference solver.
# Built binaries, so the exit codes are the binaries' own.
tmpred=$(mktemp -d)
go build -o "$tmpred/yy" ./cmd/yinyang
go build -o "$tmpred/solve" ./cmd/solve
"$tmpred/yy" -logics QF_LRA -iters 40 -pool 6 -seed 2 -outdir "$tmpred/out" >/dev/null
red="$tmpred/out/rw-div-mul-through.smt2"
[ -f "$red" ] || { echo "outdir smoke: $red not written" >&2; exit 1; }
"$tmpred/solve" -sut z3sim -expect sat "$red" >/dev/null || {
    echo "outdir smoke: z3sim does not answer sat on the reduced script" >&2
    exit 1
}
"$tmpred/solve" -expect unsat "$red" >/dev/null || {
    echo "outdir smoke: the reference does not answer unsat on the reduced script" >&2
    exit 1
}
rm -rf "$tmpred"

echo "== consensus oracle smoke =="
# End-to-end through the CLI: a wild-mode campaign (unknown ground
# truth) with two agreeing sim backends and a fakesolver that answers
# sat unconditionally. Under -oracle majority the dissenter is
# outvoted 3-1 on every unsat consensus and all of those collapse into
# exactly one deduplicated finding; under the default known-status
# policy the same run must stay silent — unknown-status tasks abstain
# rather than contradict.
tmporacle=$(mktemp -d)
go build -o "$tmporacle/yy" ./cmd/yinyang
go build -o "$tmporacle/fakesolver" ./internal/backend/fakesolver
oracleargs="-sut cvc4sim -release 1.5 -logics QF_NRA -mode wild -nomodelcheck \
    -iters 60 -pool 8 -seed 31 -backend cvc4sim@1.6 -backend cvc4sim@1.7"
"$tmporacle/yy" $oracleargs -oracle majority \
    -backend "dissent=$tmporacle/fakesolver -mode sat" > "$tmporacle/maj.txt"
found=$(grep -c 'backend-majority-disagreement.* dissent ' "$tmporacle/maj.txt" || true)
[ "$found" -eq 1 ] || {
    echo "consensus smoke: want exactly 1 deduplicated majority finding for the dissenter, got $found:" >&2
    cat "$tmporacle/maj.txt" >&2
    exit 1
}
"$tmporacle/yy" $oracleargs -oracle known \
    -backend "dissent=$tmporacle/fakesolver -mode sat" > "$tmporacle/known.txt"
if grep -q 'backend-majority-disagreement\|backend-disagreement' "$tmporacle/known.txt"; then
    echo "consensus smoke: known-status policy flagged an unknown-status task instead of abstaining:" >&2
    cat "$tmporacle/known.txt" >&2
    exit 1
fi
rm -rf "$tmporacle"

echo "== static analysis =="
# The typed, call-graph-aware Go linter must be clean over the whole
# module — every unbounded loop in solver scope charges fuel, no map
# iteration order reaches rendered output, and every allow directive
# carries a reason. Findings print before the non-zero exit.
go run ./cmd/yylint -go .
# SMT-LIB self-check: every analysis pass over a freshly generated seed
# corpus across all logics. The pipeline's own output must be
# warning-free: a built yylint must exit 0 on it.
tmpseeds=$(mktemp -d)
go run ./cmd/genseeds -n 5 -seed 7 -out "$tmpseeds"
go build -o "$tmpseeds/yylint" ./cmd/yylint
find "$tmpseeds" -name '*.smt2' -print0 | xargs -0 "$tmpseeds/yylint"

echo "== yylint CLI smoke =="
# The rest of yylint's documented exit codes (0 is the corpus lint
# above): 1 on an unguarded division, 2 on an unknown pass name.
printf '(set-logic QF_NIA)\n(declare-fun x () Int)\n(declare-fun y () Int)\n(assert (> (div x y) 0))\n(check-sat)\n' \
    > "$tmpseeds/unguarded.smt2"
set +e
"$tmpseeds/yylint" "$tmpseeds/unguarded.smt2" >/dev/null 2>&1
rc=$?
set -e
[ "$rc" -eq 1 ] || { echo "yylint smoke: unguarded division exited $rc, want 1" >&2; exit 1; }
set +e
msg=$("$tmpseeds/yylint" -passes absint "$tmpseeds/unguarded.smt2" 2>&1)
rc=$?
set -e
[ "$rc" -eq 2 ] || { echo "yylint smoke: unknown pass exited $rc, want 2" >&2; exit 1; }
case "$msg" in
*"unknown pass"*) ;;
*) echo "yylint smoke: unknown pass printed: $msg" >&2; exit 1 ;;
esac

echo "== solve CLI smoke =="
# The one-shot solver front end over the same corpus: every QF_LIA and
# QF_LRA seed must decide to the status in its file name with a model
# that validates (exit 0); a wrong -expect must exit 3 and a second
# file argument must be a usage error (exit 2). A built binary, not
# `go run`, so the exit codes are the binary's own.
go build -o "$tmpseeds/solve" ./cmd/solve
for f in "$tmpseeds"/QF_LIA/*.smt2 "$tmpseeds"/QF_LRA/*.smt2; do
    status=$(basename "$f")
    status=${status%%-*}
    "$tmpseeds/solve" -validate -expect "$status" "$f" >/dev/null || {
        echo "solve smoke: $f did not decide to $status with a valid model" >&2
        exit 1
    }
done
set +e
"$tmpseeds/solve" -expect unsat "$tmpseeds/QF_LIA/sat-000.smt2" >/dev/null 2>&1
rc=$?
set -e
[ "$rc" -eq 3 ] || { echo "solve smoke: wrong -expect exited $rc, want 3" >&2; exit 1; }
set +e
"$tmpseeds/solve" "$tmpseeds/QF_LIA/sat-000.smt2" "$tmpseeds/QF_LRA/sat-000.smt2" >/dev/null 2>&1
rc=$?
set -e
[ "$rc" -eq 2 ] || { echo "solve smoke: two file arguments exited $rc, want 2" >&2; exit 1; }
rm -rf "$tmpseeds"

echo "== examples smoke =="
# Every examples/ program must run to completion, not just compile:
# they drive the public façade (yinyang.RunCampaign among it) the way
# README.md documents it.
for ex in examples/*/; do
    go run "./$ex" >/dev/null || { echo "examples smoke: $ex failed" >&2; exit 1; }
done

echo "== yybench build =="
# The repository benchmark is a module of its own built against the
# harness API; a harness change that breaks it must fail here, not when
# the benchmark next runs. Its own tests (fingerprint stability, the
# envelope merge check) run here too.
(cd yybench && go build ./... && go vet ./... && go test ./...)

echo "== fuzz smoke =="
# Bounded go-native fuzzing: each target gets a short budget on top of
# its committed seed corpus. Failures minimize into testdata/fuzz/ and
# become regression inputs.
go test -fuzz='^FuzzParsePrintRoundTrip$' -fuzztime=10s ./internal/smtlib/
go test -fuzz='^FuzzEvalTotal$' -fuzztime=10s ./internal/eval/
# Compiled evaluation: Compile(t).Eval on an unboxed frame agrees with
# eval.Term on every subterm, values and error paths alike.
go test -run='^$' -fuzz='^FuzzCompiledMatchesTerm$' -fuzztime=10s ./internal/eval/
# Operator helpers: the one set that Term and compiled programs share
# agrees with math/big formulas, int64 edges and division by zero
# included.
go test -run='^$' -fuzz='^FuzzOpsMatchBig$' -fuzztime=10s ./internal/eval/
go test -fuzz='^FuzzAnalyze$' -fuzztime=10s ./internal/analysis/
# Derivation engines: fusion, concatenation, mutation, wild mutation
# and metamorphic variants never fail the static gate, and every
# derived script survives a print/parse/print round trip.
go test -run='^$' -fuzz='^FuzzDerive$' -fuzztime=10s ./internal/mutate/
# External solver output: ParseVerdict agrees with an ASCII-only oracle
# on arbitrary bytes and never panics.
go test -run='^$' -fuzz='^FuzzParseVerdict$' -fuzztime=10s ./internal/backend/
# Warm-cache transparency: a cold strings Check and two warm Checks
# sharing one cache agree on verdict, model and fuel.
go test -run='^$' -fuzz='^FuzzStringsWarmMatchesCold$' -fuzztime=10s ./internal/solver/strings/
# Inline rationals: every operation agrees with math/big and keeps the
# canonical form, including on the overflow fallback.
go test -run='^$' -fuzz='^FuzzRatMatchesBig$' -fuzztime=10s ./internal/solver/rat/
# Interval refuter: every rat.Rat interval operation encloses its
# math/big point results, endpoints near the int64 limits included.
go test -run='^$' -fuzz='^FuzzIntervalEnclosure$' -fuzztime=10s ./internal/solver/arith/
# Explained conflicts: every core CheckCore returns with Unsat (Int and
# Real atoms, ≠ splits, branch and bound) is unsat on its own.
go test -run='^$' -fuzz='^FuzzExplanationUnsat$' -fuzztime=10s ./internal/solver/arith/
# -run='^$' skips the harness's (slow) unit tests here; the race
# stages above already ran them.
go test -run='^$' -fuzz='^FuzzCheckpointRoundTrip$' -fuzztime=10s ./internal/harness/
# Envelope seeds are tens of KB: the default 60 s minimization of each
# new interesting input would eat the whole budget, so cap it.
go test -run='^$' -fuzz='^FuzzEnvelopeMerge$' -fuzztime=10s -fuzzminimizetime=1s ./internal/harness/
# HTTP bodies: any submit or resume body gets a 4xx or a valid job,
# and closing the server leaves no goroutine behind.
go test -run='^$' -fuzz='^FuzzSubmitBody$' -fuzztime=10s ./internal/service/
go test -run='^$' -fuzz='^FuzzResumeBody$' -fuzztime=10s ./internal/service/

echo "== arith benchmark smoke =="
# The per-layer arith.Check benchmark must keep compiling and running.
go test -run='^$' -bench='^BenchmarkArithCheck$' -benchtime=1x ./internal/solver/arith/

echo "== registry benchmark smoke =="
# Every entry of the shared benchmark registry must keep running under
# go test -bench, the path that reads their time.
go test -run='^$' -bench='^BenchmarkRegistry$' -benchtime=1x .

echo "== bench gate =="
# Short-mode allocation ledger: runs the fast registry benchmarks once
# at a fixed op count (identical workload every run) and fails if any
# benchmark's allocs/op grew more than 10% over the latest committed
# BENCH_<n>.json. No time is gated here; yybench A/B pairs own time.
# Gate-only: no file is written.
go run ./cmd/bench -short -write=false

echo "ci: all checks passed"
