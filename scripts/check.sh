#!/usr/bin/env bash
# Tier-1 verify loop (see ROADMAP.md): build, vet, full tests, then the
# race detector over the packages that actually spawn goroutines — the
# parallel experiment harness and the sim kernel it drives.
set -euo pipefail
cd "$(dirname "$0")/.."

go build ./...
go vet ./...
# Every Go file as gofmt writes it; the message names the ones that are not.
unformatted="$(gofmt -l .)"
if ! test -z "$unformatted"; then
  echo "check: gofmt -l lists files to format (gofmt -w them):" $unformatted >&2
  exit 1
fi
go test ./...
# The race build runs ~10x slower; the experiments suite needs more than the
# default 10m test timeout on small machines. This covers the tvl sweep
# (TestTvlSpeedups, TestTvlDeterministicAcrossParallelism) under race.
go test -race -timeout 40m ./internal/experiments/... ./internal/sim/...
# The real transport is all goroutines (event loop, connection readers and
# writers, wall-clock timers): its conformance run, the wire-plane cluster
# failover test, and the sim-plane side of the shared suite always run under
# race. So do the two tests that hold the wire plane's zero cost model in
# place (internal/nettrans/testutil): TestPlanesAgree, one seeded op script
# answered identically by the simulator (calibrated costs) and by loopback
# TCP (mams.NewLayout: none), and TestWireStatIsNotTimerBound, an unloaded stat far below the
# millisecond a timer on the read path would cost. The transporttest lint
# also asserts no protocol package (mams, coord, ssp, fsclient) imports
# internal/simnet. The allocation budgets skip themselves in race builds
# (internal/race): the detector allocates on its own.
go test -race ./internal/nettrans/... ./internal/simnet/... ./internal/transport/...
# Teardown, boot and failover are races by nature (Close against a loop
# still running callbacks; metadata servers against the coord election; an
# arriving Register against the registration window's cap timer; a failed
# dial's writer against the loop that reads its tombstone; the coord
# leader's probes of a reported address against that address coming back or
# going silent), so their stress tests get three more rounds. So does the
# transport conformance suite, which holds wall-clock deadlines on the wire
# (a call to a down node fails at its deadline, never before it).
go test -race -count=3 -run 'TestCloseUnderTraffic|TestClusterBootIsPrompt|TestWireClusterFailover|TestRefused|TestUnreachable|TestSilentOwner|TestAnsweredProbe|TestConformance' ./internal/nettrans/... ./internal/coord
# The allocation budgets three times over, so that one that holds only by
# luck fails here: on the wire plane a Call, an After, a frame to a refused
# address (0), a stat and a create; on the simulator a kernel schedule and
# cancel (0), a send and its delivery (0), a timed Call (2), an After (2),
# and a create and a stat through fsclient on a simulated 1A2S cluster (10
# and 6).
go test -count=3 -run 'AllocBudget' ./internal/nettrans/... ./internal/sim/... ./internal/simnet/... ./internal/cluster/...
# Keeps the layer benchmark compiling and prints its allocs/op (budget 11,
# pinned by TestCallAllocBudget) in every verify run.
go test -run '^$' -bench CallRoundTrip -benchtime 200x ./internal/nettrans
# The simulator's counterparts: a timed Call round trip on simnet (pinned by
# its TestCallAllocBudget) and a kernel schedule and cancel (pinned by
# TestAfterStopAllocBudget), so both keep compiling and print allocs/op.
go test -run '^$' -bench SimnetCall -benchtime 200x ./internal/simnet
go test -run '^$' -bench TimerChurn -benchtime 200x -benchmem ./internal/sim
# The same for a whole stat and create through fsclient on one loopback
# cluster, tracing off: allocs/op (a stat's budget of 10 is pinned by
# TestWireStatAllocBudget, a create's of 13 by TestWireCreateAllocBudget)
# and cpu-us/op, the process's CPU time per op.
go test -run '^$' -bench WireOp -benchtime 2000x ./internal/nettrans/testutil
# The frame decoder faces whatever a peer sends. `go test` above replays its
# fuzz corpus (testdata/fuzz/FuzzFrameDecode plus one seed frame per message
# type); this searches beyond it for a while: no panic, every accepted frame
# re-encodes to its own bytes, allocation bounded by the input's length.
go test -run '^$' -fuzz '^FuzzFrameDecode$' -fuzztime 20s ./internal/nettrans
# The image loader faces stored checkpoint bytes. `go test` replays its
# corpus (testdata/fuzz/FuzzLoadImage: saved trees, truncated and garbage
# images); this searches beyond it: no panic, and an accepted image is a
# consistent tree whose own saved image reloads to the same digest.
go test -run '^$' -fuzz '^FuzzLoadImage$' -fuzztime 20s ./internal/namespace
go test -race -timeout 40m ./internal/mams/...
# The commit pipeline's layer benchmark (one create through dispatch, seal
# and commit under each seal policy, instant acks): keeps it compiling and
# prints its allocs/op in every verify run.
go test -run '^$' -bench PipelineCreate -benchtime 200x ./internal/mams
# The trace log is written on a wire process's event loop and read through
# Do (TestWireClusterFailover, TestWireLogBoundedByFailovers); race-test the
# package beside the exporters that read its spans.
go test -race ./internal/obs/... ./internal/trace/...
# The health detector rides inside every parallel detect cell (one World
# per worker goroutine); race-test the package directly too.
go test -race ./internal/health/...
# Shard-map hashing is on every request's hot path and must stay
# allocation-free; the race run also covers Install/Clone publication.
go test -race ./internal/partition/...
# The explorer fans schedules out across workers; its fixture replays
# (internal/check/testdata/*.artifact) re-trigger each gray-failure bug's
# schedule and must stay violation-free — pre-fix versions of those tests
# asserting the violations live in git history.
go test -race -timeout 20m ./internal/check/...
# Exporter smoke run: one failover must produce a non-empty Prometheus dump
# and a valid (json-decodable) Chrome trace. The byte-level golden checks
# live in internal/obs (export_test.go) and internal/cluster
# (TestSeededRunsDumpIdentically); this guards the CLI wiring.
obsdir="$(mktemp -d)"
trap 'rm -rf "$obsdir"' EXIT
go run ./cmd/mamssim -system mams -fault crash -horizon 20 -health \
  -metrics-out "$obsdir/m.prom" -spans-out "$obsdir/s.json" \
  -series-out "$obsdir/series.prom" >/dev/null
grep -q '^mams_failover' "$obsdir/m.prom"
grep -q '^# TYPE mams_net_messages_sent_total counter$' "$obsdir/m.prom"
head -c 15 "$obsdir/s.json" | grep -q '^{"traceEvents":'
grep -q '"name":"failover"' "$obsdir/s.json"
# The failover's children: a Chrome trace that lost the stage spans fails.
grep -q '"name":"election"' "$obsdir/s.json"
grep -q '"name":"stage-view-flip"' "$obsdir/s.json"
# With -health the sampler runs, so the series dump must carry timestamped
# samples (including the detector's own state gauge) and the Chrome trace
# must gain the metrics counter tracks (ph "C", pid 2).
grep -Eq '^mams_health_state\{node="[^"]+"\} [0-9.]+ [0-9]+$' "$obsdir/series.prom"
grep -q '^mams_build_info' "$obsdir/series.prom"
grep -q '"ph":"C"' "$obsdir/s.json"
# Baseline smoke: every baseline design through one primary crash. Each must
# recover within the horizon, except vanilla HDFS, which has no failover.
go build -o "$obsdir/mamssim" ./cmd/mamssim
for sys in hdfs backupnode avatar hadoopha boomfs; do
  out="$("$obsdir/mamssim" -system "$sys" -horizon 40)"
  if [ "$sys" = hdfs ]; then
    grep -q '^no recovery observed in the horizon$' <<<"$out"
  else
    grep -q '^client-observed MTTR: ' <<<"$out"
  fi
done
# Bounded systematic invariant sweep: crash-only single faults over a small
# scope (7 schedules) — a smoke test for the full `mamscheck run` matrix.
go run ./cmd/mamscheck run -members 3 -steps 2 -maxfaults 1 -kinds c -q
# Gray-failure smoke sweep: single gray faults (slowdown/flap/skew/brownout)
# over the same small scope. The full ≤2-gray-fault matrix
# (-kinds sfkb -members 2 -steps 3 -maxfaults 2, 277 schedules) runs clean
# but takes minutes; this bounds CI to the single-fault slice.
go run ./cmd/mamscheck run -members 2 -steps 2 -maxfaults 1 -kinds sfkb -q
# Same scope with the rebuilt commit path: pipelined group commit, then
# seal-time acks (the durability invariant flips to watermark semantics).
go run ./cmd/mamscheck run -members 3 -steps 2 -maxfaults 1 -kinds c -groupcommit -q
go run ./cmd/mamscheck run -members 3 -steps 2 -maxfaults 1 -kinds c -asyncack -q
# The gray-failure experiment: MAMS under each gray letter through the
# invariant monitor, then every design under the same faults on its serving
# node. It exits 1 on any MAMS violation or lost acked create (~12 s on
# 2 vCPUs).
go run ./cmd/mamsbench -exp gray >/dev/null
# The modelled BENCH_*.json files are checked in and quoted by
# EXPERIMENTS.md. Each sweep below regenerates its file into the temp dir,
# and the run fails unless it matches the checked-in copy byte for byte.
# After a deliberate change, regenerate the file in place with the same
# command and commit it.
bench_gate() {
  go run ./cmd/mamsbench -exp "$1" -bench-out "$obsdir/BENCH_$1.json" >/dev/null
  if ! cmp -s "$obsdir/BENCH_$1.json" "BENCH_$1.json"; then
    echo "check: BENCH_$1.json differs from its regeneration" \
      "(go run ./cmd/mamsbench -exp $1 -bench-out BENCH_$1.json)" >&2
    exit 1
  fi
}
# Commit-path sweep smoke: the TVL table (EXPERIMENTS.md "Commit-path
# performance trajectory" reads this file).
bench_gate tvl
grep -q '"policy": "group-async"' BENCH_tvl.json
# Sharded-namespace smoke sweep: group-count scaling plus the Zipfian
# hotspot cells (static vs live migration) at default (bounded) scale; the
# command exits nonzero on any placement violation, and the recorded cells
# feed EXPERIMENTS.md's sharding section. The 256-group axis runs with
# -full only.
bench_gate shard
grep -q '"policy": "migrate"' BENCH_shard.json
# Health-detector scoring sweep: 16 ground-truth gray-fault cells + 2
# fault-free controls; the command exits nonzero when recall < 0.9 or any
# control cell produces a verdict, and the recorded cells feed
# EXPERIMENTS.md's detection scorecard.
bench_gate detect
grep -q '"Fault": "brownout"' BENCH_detect.json
# No separate wire smoke: bench/bench_test.go's TestSmoke, part of the
# `go test ./...` above, boots every wire workload of the repo benchmark in
# smoke shape — loopback TCP, real listeners, wall-clock timers,
# create/stat/failover through fsclient — and holds what they print against
# BENCHMARK.json.
echo "check: OK"
