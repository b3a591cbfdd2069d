#!/usr/bin/env bash
# bench.sh — run the fast-path benchmark suite and emit a JSON summary.
#
# Usage:
#   scripts/bench.sh [-o out.json] [--smoke] [--pipeline] [--cluster] [--netsim] [--stream]
#
#   -o FILE     write the JSON snapshot to FILE (default: BENCH_PR7.json,
#               BENCH_PR5.json with --pipeline, BENCH_PR6.json with
#               --cluster, BENCH_PR9.json with --netsim, BENCH_PR10.json
#               with --stream)
#   --smoke     run every benchmark exactly once (-benchtime=1x); useful as
#               a CI canary that the suite still compiles and runs
#   --pipeline  run only the artifact-pipeline cold/warm pair: a P=256
#               provisioning plan resolved from an empty store vs the same
#               request against a warm one. The warm resolve must stay
#               >=10x under cold (in practice it is a key lookup, ~1000x)
#   --cluster   run only the clustered-tier pair: a cold replica resolving
#               a P=64 plan by peer-filling from its warm ring owner vs
#               rebuilding the same plan locally from scratch. Peer fill
#               should land well under rebuild (one loopback HTTP fetch +
#               artifact decode vs a full profile+assign+wire build)
#   --netsim    run only the netsim engine benchmarks, with the ultra rows
#               enabled (HFAST_TEST_ULTRA=1): the component-parallel engine
#               replaying halo traffic at P=256/1024/4096/16384/65536. The
#               P=65536 rows are the component scheduler's target scale and
#               must complete (the retired reference solver is not run
#               past P=1024; its quadratic event cost would take hours).
#               Also captures CPU and heap profiles of the benchmark run
#               under bench-profiles/ (override with BENCH_PROFILE_DIR),
#               ready for `go tool pprof bench-profiles/netsim.test
#               bench-profiles/netsim.cpu.pprof`. Wall-clock speedups from
#               the per-component engines need a many-core box — run this
#               there; a 1-CPU runner still validates completion and the
#               mesh allocation fix (allocs_per_op is worker-independent).
#               Before/after for the P=16384 and P=65536 rows is the
#               BENCH_PR8.json -> BENCH_PR9.json pair (both checked in;
#               BENCH.json holds the full trajectory): PR 9's batched
#               t=0 admission, witness short-circuit, and heap compaction
#               land there. NOTE: the three Simulate fabrics share pooled
#               engine arenas within one process, so b_per_op is only
#               comparable between runs with the same fabric grouping —
#               the first fabric pays the arena growth the rest inherit
#   --stream    run only the streaming-ingestion benchmarks: the P=256
#               delta-stream fold over encoded deltas, as hfastd folds
#               them (pipeline.FoldWire), cold (empty pipeline; the
#               deltas/s custom metric is the live-ingestion throughput
#               headline) and warm (every link a content-addressed cache
#               hit — a reconnecting client's replay, which hashes the
#               bytes and decodes nothing; the FoldDelta row is the
#               struct entry point, which must encode a delta to name
#               it), plus the P=1024 circuit planner at a phase boundary:
#               incremental PlanDiff against the previous assignment vs
#               wiring the phase from a dark fabric. The end-to-end
#               figures are `go run ./bench` (stream_ingest,
#               stream_replay), not a BENCH_PR*.json snapshot
#
# Every run also regenerates BENCH.json: the consolidated trajectory of
# all BENCH_PR*.json snapshots ({"trajectory": [{"tag": "PR2", ...}, ...]},
# in PR order), so per-PR perf history diffs with a single jq query.
#
# The suite covers the layers the profiling fast path touches:
#   internal/mpi         message matching and request lifecycle
#   internal/ipm         collector event ingestion
#   internal/apps        end-to-end skeleton profiling (allocs/op headline)
#   internal/experiments warm-up fan-out (serial vs parallel)
#   internal/topology    sparse vs dense graph build + cutoff sweep at
#                        P=256 and P=1024 (b_per_op is the headline: the
#                        sparse path must stay ≥10x under dense at P=1024)
#   internal/netsim      incremental max-min engine replaying P=256 and
#                        P=1024 halo traffic on the hfast/fattree/mesh
#                        fabrics (ns_per_op is the headline; run
#                        BenchmarkSimulateReference by hand to compare
#                        against the global water-filling solver)
#
# The JSON is a flat list of {package, name, iters, ns_per_op, b_per_op,
# allocs_per_op} records plus a small env header, so successive runs can
# be diffed with jq.
set -euo pipefail
cd "$(dirname "$0")/.."

out=""
benchtime=""
pipeline_only=""
cluster_only=""
netsim_only=""
stream_only=""
while [ $# -gt 0 ]; do
  case "$1" in
    -o) out="$2"; shift 2 ;;
    --smoke) benchtime="-benchtime=1x"; shift ;;
    --pipeline) pipeline_only=1; shift ;;
    --cluster) cluster_only=1; shift ;;
    --netsim) netsim_only=1; shift ;;
    --stream) stream_only=1; shift ;;
    *) echo "usage: $0 [-o out.json] [--smoke] [--pipeline] [--cluster] [--netsim] [--stream]" >&2; exit 2 ;;
  esac
done
if [ -z "$out" ]; then
  out="BENCH_PR7.json"
  [ -n "$pipeline_only" ] && out="BENCH_PR5.json"
  [ -n "$cluster_only" ] && out="BENCH_PR6.json"
  [ -n "$netsim_only" ] && out="BENCH_PR9.json"
  [ -n "$stream_only" ] && out="BENCH_PR10.json"
fi

raw="$(mktemp)"
trap 'rm -f "$raw"' EXIT

run() { # run <package> <bench regexp> [extra go test flags...]
  local pkg="$1" re="$2"
  shift 2
  echo ">> go test -bench '$re' $pkg $*" >&2
  go test -run '^$' -bench "$re" -benchmem $benchtime "$@" "$pkg" \
    | awk -v pkg="$pkg" '/^Benchmark/ { print pkg, $0 }' >>"$raw"
}

if [ -n "$stream_only" ]; then
  run ./internal/pipeline 'BenchmarkStreamFoldCold$|BenchmarkStreamFoldWarm$'
  run ./internal/hfast 'BenchmarkDiffPlan$|BenchmarkFullReplan$'
elif [ -n "$netsim_only" ]; then
  export HFAST_TEST_ULTRA=1
  profdir="${BENCH_PROFILE_DIR:-bench-profiles}"
  mkdir -p "$profdir"
  run ./internal/netsim 'BenchmarkSimulate$' \
    -cpuprofile "$profdir/netsim.cpu.pprof" \
    -memprofile "$profdir/netsim.mem.pprof" \
    -o "$profdir/netsim.test"
  echo "wrote $profdir/netsim.{cpu,mem}.pprof (+ netsim.test binary)" >&2
elif [ -n "$cluster_only" ]; then
  run ./internal/server 'BenchmarkClusterPeerFill$|BenchmarkClusterRebuild$'
elif [ -n "$pipeline_only" ]; then
  run ./internal/pipeline 'BenchmarkPlanColdP256$|BenchmarkPlanWarmP256$'
else
  run ./internal/mpi 'BenchmarkPingPong|BenchmarkIsendWait|BenchmarkHaloExchange|BenchmarkAllreduce8'
  run ./internal/ipm 'BenchmarkCollectorEvent'
  run ./internal/apps 'BenchmarkProfileRun'
  run ./internal/experiments 'BenchmarkWarmAll|BenchmarkModelStudy'
  run ./internal/topology 'BenchmarkGraphBuild|BenchmarkSweep'
  run ./internal/netsim 'BenchmarkSimulate$'
  run ./internal/pipeline 'BenchmarkPlanColdP256$|BenchmarkPlanWarmP256$'
fi

awk -v go_ver="$(go env GOVERSION)" -v ncpu="$(nproc 2>/dev/null || getconf _NPROCESSORS_ONLN)" '
BEGIN {
  printf "{\n  \"go\": \"%s\",\n  \"cpus\": %d,\n  \"benchmarks\": [\n", go_ver, ncpu
  first = 1
}
{
  # <pkg> <BenchmarkName-P> <iters> <ns> ns/op [<B> B/op <allocs> allocs/op]
  name = $2; sub(/-[0-9]+$/, "", name)
  ns = ""; bpo = ""; apo = ""; dps = ""
  for (i = 3; i <= NF; i++) {
    if ($(i+1) == "ns/op") ns = $i
    if ($(i+1) == "B/op") bpo = $i
    if ($(i+1) == "allocs/op") apo = $i
    if ($(i+1) == "deltas/s") dps = $i
  }
  if (!first) printf ",\n"
  first = 0
  printf "    {\"package\": \"%s\", \"name\": \"%s\", \"iters\": %s, \"ns_per_op\": %s", $1, name, $3, ns
  if (dps != "") printf ", \"deltas_per_s\": %s", dps
  if (bpo != "") printf ", \"b_per_op\": %s, \"allocs_per_op\": %s", bpo, apo
  printf "}"
}
END { printf "\n  ]\n}\n" }
' "$raw" >"$out"

echo "wrote $out" >&2

# Rebuild the consolidated trajectory: one tagged entry per PR snapshot,
# in PR order, so history diffs with e.g.
#   jq '.trajectory[] | {tag, n: [.benchmarks[] | select(.name | test("Simulate/"))]}' BENCH.json
if ls BENCH_PR*.json >/dev/null 2>&1; then
  for f in $(ls BENCH_PR*.json | sort -V); do
    tag="${f#BENCH_}"
    jq --arg tag "${tag%.json}" '{tag: $tag} + .' "$f"
  done | jq -s '{trajectory: .}' >BENCH.json
  echo "wrote BENCH.json ($(ls BENCH_PR*.json | wc -l) snapshots)" >&2
fi
