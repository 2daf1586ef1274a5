#!/usr/bin/env bash
#
# Tier-1 gate: the checks every PR must keep green.
#
#   1. `tier1`  — full RelWithDebInfo build + the whole ctest suite.
#   2. `tsan`   — ThreadSanitizer build; runs the concurrency-bearing
#                 suites (exec parallelFor/ParallelSweepRunner, the
#                 svc query service and the obs tracer) under TSan.
#      `asan`   — AddressSanitizer + UndefinedBehaviorSanitizer build;
#                 runs the whole suite. Any report fails the gate.
#   3. obs gate — a traced sweep must produce a trace.json that the
#                 strict parser accepts, and span sites that are
#                 compiled in but disabled must stay under 1%
#                 overhead (bench/obs_overhead).
#   4. bench regression harness — sweep_throughput, micro_sim_perf,
#                 cluster_jitter, straggler_study and svc_throughput
#                 emit BENCH_<name>.json files, which must be strictly
#                 valid JSON carrying the twocs-bench-1 schema
#                 fields. Only schema presence is asserted — never
#                 timings, so a loaded CI host cannot flake the gate.
#                 (The replay benches do assert bit-identity of the
#                 compiled-replay and lane-walk paths vs the
#                 rebuild oracle, which is host-independent.) The
#                 BENCH_*.json files are collected under
#                 build-tier1/bench-artifacts/ as the perf-trajectory
#                 artifact to upload.
#   5. 3D-parallelism gate — the zoo3d_parallel_sweep bench must emit
#                 the collective_lowering_* schema keys, and `twocs
#                 sweep --figure 12` under a full `--parallel` plan
#                 (flat and hierarchical topology) must be
#                 byte-identical across --jobs.
#      projection goldens — `twocs sweep --figure 10`, `--figure 12`
#                 (model engine) and `twocs serve` over
#                 ci/serve_project.jsonl must reproduce the committed
#                 ci/golden/ files byte for byte at `--jobs 1` and 4.
#      cluster goldens — jittered `twocs cluster --trials` runs (default
#                 group, --tp 4, --passes fuse,dce, a 3D plan) must
#                 reproduce ci/golden/cluster_*.txt at `--jobs 1` and 4,
#                 and a non-finite or overflowing --jitter must fail.
#   6. serve determinism — a fixed mixed request stream
#                 (ci/serve_mixed.jsonl) must get byte-identical
#                 responses at `--jobs 1` and `--jobs 4`, at
#                 `--proto 2` and `3`.
#      loopback serve smoke — `twocs serve --listen` with a 2-deep
#                 shard queue is saturated over TCP by the
#                 svc_throughput --connect driver: every request must
#                 be answered (computed or a structured `overloaded`
#                 shed), at least one shed must occur, and SIGTERM
#                 must drain cleanly (exit 0 + "drained:" report).
#   7. obs compile-out — -DTWOCS_OBS_DISABLE=ON must still build the
#                 net layer (its span sites compile to nothing).
#
# Usage: ci/run_tier1.sh [jobs]

set -euo pipefail

cd "$(dirname "$0")/.."
jobs="${1:-$(nproc)}"
export CMAKE_BUILD_PARALLEL_LEVEL="${jobs}"
export CTEST_PARALLEL_LEVEL="${jobs}"

echo "== tier-1: build + full test suite =="
cmake --workflow --preset tier1

echo "== tier-1: ThreadSanitizer (exec + svc + obs) =="
cmake --workflow --preset tsan

echo "== tier-1: AddressSanitizer + UBSan (full suite) =="
cmake --workflow --preset asan

echo "== tier-1: traced sweep produces strictly valid JSON =="
twocs=build-tier1/src/cli/twocs
trace_out="build-tier1/ci_trace.json"
rm -f "${trace_out}"
"${twocs}" sweep --figure 10 --jobs 2 --trace-out "${trace_out}" \
    > /dev/null
"${twocs}" validate --trace "${trace_out}"

echo "== tier-1: disabled-tracing overhead < 1% =="
build-tier1/bench/obs_overhead

echo "== tier-1: bench-regression JSON carries the schema =="
artifacts="build-tier1/bench-artifacts"
mkdir -p "${artifacts}"
bench_json="${artifacts}/BENCH_sweep_throughput.json"
rm -f "${bench_json}"
build-tier1/bench/sweep_throughput --jobs 2 \
    --bench-json "${bench_json}"
"${twocs}" validate --trace "${bench_json}"
grep -q '"schema": "twocs-bench-1"' "${bench_json}"
grep -q '"bench": "sweep_throughput"' "${bench_json}"
grep -q '"configs_per_sec_jobs1"' "${bench_json}"
grep -q '"configs_per_sec_parallel"' "${bench_json}"

echo "== tier-1: rebuild-vs-replay bench JSON carries the schema =="
msp_json="${artifacts}/BENCH_micro_sim_perf.json"
rm -f "${msp_json}"
build-tier1/bench/micro_sim_perf --bench-json "${msp_json}"
"${twocs}" validate --trace "${msp_json}"
grep -q '"schema": "twocs-bench-1"' "${msp_json}"
grep -q '"bench": "micro_sim_perf"' "${msp_json}"
grep -q '"tasks_per_sec_rebuild"' "${msp_json}"
grep -q '"tasks_per_sec_replay"' "${msp_json}"
grep -q '"tasks_per_sec_replay_fused"' "${msp_json}"
grep -q '"pass_chain_tasks_per_sec_replay"' "${msp_json}"
grep -q '"pass_chain_tasks_per_sec_replay_fused"' "${msp_json}"
grep -q '"pass_chain_replays_per_sec"' "${msp_json}"
grep -q '"pass_chain_replays_per_sec_fused"' "${msp_json}"
grep -q '"pass_fuse_speedup"' "${msp_json}"
grep -q '"pass_fuse_compile_ms"' "${msp_json}"
grep -q '"sweep_points_per_sec_rebuild"' "${msp_json}"
grep -q '"sweep_points_per_sec_delta"' "${msp_json}"
grep -q '"delta_sweep_speedup"' "${msp_json}"

cj_json="${artifacts}/BENCH_cluster_jitter.json"
rm -f "${cj_json}"
build-tier1/bench/cluster_jitter --jobs 2 --bench-json "${cj_json}"
"${twocs}" validate --trace "${cj_json}"
grep -q '"schema": "twocs-bench-1"' "${cj_json}"
grep -q '"bench": "cluster_jitter"' "${cj_json}"
grep -q '"trials_per_sec_replay"' "${cj_json}"

ss_json="${artifacts}/BENCH_straggler_study.json"
rm -f "${ss_json}"
build-tier1/bench/straggler_study --bench-json "${ss_json}"
"${twocs}" validate --trace "${ss_json}"
grep -q '"schema": "twocs-bench-1"' "${ss_json}"
grep -q '"bench": "straggler_study"' "${ss_json}"
grep -q '"sims_per_sec_rebuild"' "${ss_json}"
grep -q '"sims_per_sec_replay"' "${ss_json}"
grep -q '"sims_per_sec_batched"' "${ss_json}"

svc_json="${artifacts}/BENCH_svc_throughput.json"
rm -f "${svc_json}"
build-tier1/bench/svc_throughput --bench-json "${svc_json}"
"${twocs}" validate --trace "${svc_json}"
grep -q '"schema": "twocs-bench-1"' "${svc_json}"
grep -q '"bench": "svc_throughput"' "${svc_json}"
grep -q '"net_qps_sustained"' "${svc_json}"
grep -q '"net_p99_ms"' "${svc_json}"
grep -q '"net_shed_rate"' "${svc_json}"

echo "== tier-1: 3D zoo sweep carries the collective_lowering keys =="
zoo_json="${artifacts}/BENCH_zoo3d_parallel_sweep.json"
rm -f "${zoo_json}"
build-tier1/bench/zoo3d_parallel_sweep --jobs 2 \
    --bench-json "${zoo_json}"
"${twocs}" validate --trace "${zoo_json}"
grep -q '"schema": "twocs-bench-1"' "${zoo_json}"
grep -q '"bench": "zoo3d_parallel_sweep"' "${zoo_json}"
grep -q '"collective_lowering_zero2_wire_ratio"' "${zoo_json}"
grep -q '"collective_lowering_zero3_wire_ratio"' "${zoo_json}"
grep -q '"collective_lowering_pp_p2p_bytes"' "${zoo_json}"
grep -q '"collective_lowering_ar_wire_bytes"' "${zoo_json}"
grep -q '"sweep_engines_bit_identical": 1' "${zoo_json}"

echo "== tier-1: cluster trials byte-identical across --jobs and lane blocks =="
# runTrials walks four trials per lane block: 8 trials fill two
# blocks, 7 leave a partial tail block. Neither may depend on --jobs.
cluster_flags="--jitter 0.05 --tp 4"
for n in 8 7; do
    [ "$("${twocs}" cluster --trials "${n}" ${cluster_flags} --jobs 1)" \
        = "$("${twocs}" cluster --trials "${n}" ${cluster_flags} \
            --jobs 4)" ]
done
# Committed outputs of the glibc-drawn trials: the portable noise
# kernels may move only bits below the printed precision.
for j in 1 4; do
    "${twocs}" cluster --jitter 0.05 --trials 64 --jobs "${j}" \
        | cmp ci/golden/cluster_default.txt -
    "${twocs}" cluster --jitter 0.2 --trials 15 --tp 4 --jobs "${j}" \
        | cmp ci/golden/cluster_tp4.txt -
    "${twocs}" cluster --jitter 0.05 --trials 16 --passes fuse,dce \
        --jobs "${j}" | cmp ci/golden/cluster_passes.txt -
    "${twocs}" cluster --jitter 0.05 --trials 16 \
        --parallel tp=8,pp=2,dp=2,zero=1 --jobs "${j}" \
        | cmp ci/golden/cluster_parallel.txt -
done
# A jitter that is not finite or whose sigma overflows is an error.
for bad in nan inf 1e200; do
    if "${twocs}" cluster --jitter "${bad}" > /dev/null 2>&1; then
        echo "cluster accepted --jitter ${bad}"
        exit 1
    fi
done
# There is one trial engine: the old selector and lane width are gone.
for flag in --engine --lanes; do
    if "${twocs}" cluster --trials 4 "${flag}" 4 > /dev/null 2>&1; then
        echo "cluster accepted ${flag}"
        exit 1
    fi
done

echo "== tier-1: 3D-plan sweeps byte-identical across --jobs =="
plan="tp=8,pp=4,dp=2,zero=1"
f12_one="$("${twocs}" sweep --figure 12 --parallel "${plan}" --jobs 1)"
f12_four="$("${twocs}" sweep --figure 12 --parallel "${plan}" --jobs 4)"
[ "${f12_one}" = "${f12_four}" ]
hier_one="$("${twocs}" sweep --figure 12 --parallel "${plan}" \
    --topology multi:8 --jobs 1)"
hier_two="$("${twocs}" sweep --figure 12 --parallel "${plan}" \
    --topology multi:8 --jobs 2)"
[ "${hier_one}" = "${hier_two}" ]

echo "== tier-1: delta sweep engine byte-identical to rebuild =="
# The delta engine compiles one graph per structure group and refills
# its durations per point; its CLI output must match the
# per-point-rebuild oracle byte for byte at any --jobs.
f12_rebuild="$("${twocs}" sweep --figure 12 --engine rebuild --jobs 1)"
[ "${f12_rebuild}" = "$("${twocs}" sweep --figure 12 --engine delta \
    --jobs 1)" ]
[ "${f12_rebuild}" = "$("${twocs}" sweep --figure 12 --engine delta \
    --jobs 4)" ]

echo "== tier-1: projection goldens byte-identical at --jobs 1 and 4 =="
# Committed outputs of the op-by-op projection: the layer-block walk
# must reproduce every Fig. 10/12 row and every project response
# (flat tp, 3D plans, ground truth, eval errors) bit for bit.
for j in 1 4; do
    "${twocs}" sweep --figure 10 --jobs "${j}" \
        | cmp ci/golden/sweep_fig10.txt -
    "${twocs}" sweep --figure 12 --jobs "${j}" \
        | cmp ci/golden/sweep_fig12.txt -
    "${twocs}" serve --jobs "${j}" < ci/serve_project.jsonl \
        | cmp ci/golden/serve_project.jsonl -
done

echo "== tier-1: serve byte-identical across --jobs =="
# ci/serve_mixed.jsonl mixes every compute kind, a 3D plan, a
# duplicate, a parse error, an eval error, an overlong line and a
# stats query, all with ids. The distinct misses fan out over
# parallelFor at --jobs 4; the response bytes may not change.
for proto in 2 3; do
    serve_flags="--proto ${proto} --max-line-bytes 256"
    [ "$("${twocs}" serve ${serve_flags} --jobs 1 < ci/serve_mixed.jsonl)" \
        = "$("${twocs}" serve ${serve_flags} --jobs 4 \
            < ci/serve_mixed.jsonl)" ]
done

echo "== tier-1: loopback serve smoke (shed under saturation, clean drain) =="
serve_log="build-tier1/ci_serve.log"
rm -f "${serve_log}"
"${twocs}" serve --listen 0 --shards 2 --queue-depth 2 --jobs 1 \
    2> "${serve_log}" &
serve_pid=$!
port=""
for _ in $(seq 1 50); do
    port="$(sed -n 's/.*listening on 127\.0\.0\.1:\([0-9]*\).*/\1/p' \
        "${serve_log}")"
    [ -n "${port}" ] && break
    sleep 0.1
done
[ -n "${port}" ] || { echo "serve never reported its port"; exit 1; }
driver_out="$(build-tier1/bench/svc_throughput \
    --connect "${port}" --requests 2000)"
echo "${driver_out}"
echo "${driver_out}" | grep -q 'responses=2000'
# A 2-deep queue under a 2000-request blast must shed.
echo "${driver_out}" | grep -Eq 'overloaded=[1-9][0-9]*'
kill -TERM "${serve_pid}"
wait "${serve_pid}"
grep -q 'drained:' "${serve_log}"

echo "== tier-1: -DTWOCS_OBS_DISABLE still builds the net layer =="
cmake -B build-obsoff -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DTWOCS_OBS_DISABLE=ON > /dev/null
cmake --build build-obsoff --target twocs_net twocs_cli > /dev/null

echo "tier-1 gate: all green (artifacts in ${artifacts})"
