#!/usr/bin/env bash
# Simulator hot-path benchmark workflow: runs the ground-truth engine
# benchmarks (the packet simulator itself, the Parsimon per-link fan-out,
# and training-set generation) and records the results in BENCH_pr4.json
# next to the frozen pre-calendar-queue baseline, so regressions in ns/op
# or allocs/op are visible in review diffs. BENCH_pr3.json holds the
# inference-stage record from the batching PR and is not rewritten here.
#
# Usage:
#   scripts/bench.sh          full run, rewrites BENCH_pr4.json,
#                             BENCH_pr5.json, BENCH_pr6.json,
#                             BENCH_pr7.json, BENCH_pr8.json and
#                             BENCH_pr9.json
#   scripts/bench.sh -short   one-iteration smoke run (scripts/check.sh),
#                             writes nothing
#
# BENCH_pr5.json records the serving-path overhead of the fault-tolerance
# layer (input validation, fallback bookkeeping, admission control) against
# the frozen pre-change BenchmarkServeEstimate numbers; the budget is <1%.
# BENCH_pr8.json records the int8-quantized inference backend against the
# float batched path and the frozen PR 3 float baseline; the gate is
# parity-or-better ns/op.
# BENCH_pr9.json records the worker-sharded GEMM sweep vs the frozen
# BENCH_pr8.json serial numbers; the gate is parity-or-better with
# single-core noise tolerance.
set -euo pipefail
cd "$(dirname "$0")/.."

BENCHES='^(BenchmarkPacketsim|BenchmarkParsimon|BenchmarkDatasetGen)$'
SMOKE='^(BenchmarkPacketsim|BenchmarkParsimon|BenchmarkDatasetGen|BenchmarkModelInference|BenchmarkModelInferenceBatch|BenchmarkModelInferenceBatchInt8|BenchmarkModelInferenceBatchSharded|BenchmarkEstimateEndToEnd|BenchmarkServeEstimate)$'

if [[ "${1:-}" == "-short" ]]; then
    go test -run '^$' -bench "$SMOKE" -benchtime=1x -benchmem .
    exit 0
fi

out=$(go test -run '^$' -bench "$BENCHES" -benchtime=2s -benchmem -count=1 .)
echo "$out"

BENCH_OUT="$out" python3 - <<'EOF'
import json, os, re

# Pre-change baseline, measured at commit 48f1db2 (binary-heap event queue,
# heap-allocated events and packets, per-run simulator state allocated
# fresh, ad-hoc goroutine fan-outs; same benchmarks at the same scale on
# the same machine class). Frozen so the post-change numbers below always
# have a comparison point.
baseline = {
    "commit": "48f1db2",
    "BenchmarkPacketsim": {
        "ns_per_op": 92149780, "bytes_per_op": 3600901, "allocs_per_op": 25677,
    },
    "BenchmarkParsimon": {
        "ns_per_op": 121342750, "bytes_per_op": 25775164, "allocs_per_op": 168831,
    },
    "BenchmarkDatasetGen": {
        "ns_per_op": 1720586446, "bytes_per_op": 31408795, "allocs_per_op": 262513,
    },
}

current = {}
for line in os.environ["BENCH_OUT"].splitlines():
    m = re.match(r"^(Benchmark\w+?)(?:-\d+)?\s+\d+\s+(.*)", line)
    if not m:
        continue
    name, rest = m.group(1), m.group(2)
    row = current.setdefault(name, {})
    for val, unit in re.findall(r"([\d.]+)\s+([\w/%-]+)", rest):
        key = {
            "ns/op": "ns_per_op",
            "B/op": "bytes_per_op",
            "allocs/op": "allocs_per_op",
            "flows/s": "flows_per_sec",
        }.get(unit)
        if key:
            row[key] = float(val) if "." in val else int(float(val))

doc = {
    "description": "Ground-truth engine benchmarks: the packet-level "
                   "simulator (calendar queue + pooled run state), the "
                   "Parsimon per-link fan-out on the shared worker pool, "
                   "and training-set generation. Regenerate with "
                   "scripts/bench.sh.",
    "baseline_preoverhaul": baseline,
    "current": current,
}
summary = {}
for name, ratio_key in [
    ("BenchmarkPacketsim", "packetsim_ns_per_op_speedup"),
    ("BenchmarkParsimon", "parsimon_ns_per_op_speedup"),
    ("BenchmarkDatasetGen", "datasetgen_ns_per_op_speedup"),
]:
    cur = current.get(name)
    if cur and "ns_per_op" in cur:
        summary[ratio_key] = round(
            baseline[name]["ns_per_op"] / cur["ns_per_op"], 3)
ps = current.get("BenchmarkPacketsim")
if ps and "allocs_per_op" in ps:
    summary["packetsim_allocs_per_op"] = ps["allocs_per_op"]
    summary["packetsim_allocs_per_op_baseline"] = \
        baseline["BenchmarkPacketsim"]["allocs_per_op"]
if summary:
    doc["summary"] = summary
with open("BENCH_pr4.json", "w") as f:
    json.dump(doc, f, indent=2)
    f.write("\n")
print("wrote BENCH_pr4.json")
EOF

serve_out=$(go test -run '^$' -bench '^BenchmarkServeEstimate$' -benchtime=2s -benchmem -count=1 .)
echo "$serve_out"

BENCH_OUT="$serve_out" python3 - <<'EOF'
import json, os, re

# Pre-change baseline, measured at commit 5d45115 (before the
# fault-tolerance layer: no workload/request validation, no fallback
# bookkeeping, no admission semaphore or per-estimate deadline on the
# serving path) in the same session as the post-change numbers, so both
# sides saw the same machine conditions. Frozen so the overhead of those
# checks stays visible.
baseline = {
    "commit": "5d45115",
    "BenchmarkServeEstimate/cold": {
        "ns_per_op": 60892874, "bytes_per_op": 41577219, "allocs_per_op": 130115,
    },
    "BenchmarkServeEstimate/warm": {
        "ns_per_op": 640087, "bytes_per_op": 777747, "allocs_per_op": 100,
    },
}

current = {}
for line in os.environ["BENCH_OUT"].splitlines():
    m = re.match(r"^(Benchmark[\w/]+?)(?:-\d+)?\s+\d+\s+(.*)", line)
    if not m:
        continue
    name, rest = m.group(1), m.group(2)
    row = current.setdefault(name, {})
    for val, unit in re.findall(r"([\d.]+)\s+([\w/%-]+)", rest):
        key = {
            "ns/op": "ns_per_op",
            "B/op": "bytes_per_op",
            "allocs/op": "allocs_per_op",
        }.get(unit)
        if key:
            row[key] = float(val) if "." in val else int(float(val))

doc = {
    "description": "Serving-path benchmark after the fault-tolerance layer "
                   "(request validation, flowSim-fallback bookkeeping, "
                   "admission control, per-estimate deadlines). Overhead "
                   "budget vs the frozen baseline is <1%. Regenerate with "
                   "scripts/bench.sh.",
    "baseline_prefaulttolerance": baseline,
    "current": current,
}
summary = {}
for name in baseline:
    if name == "commit":
        continue
    cur = current.get(name)
    if cur and "ns_per_op" in cur:
        overhead = cur["ns_per_op"] / baseline[name]["ns_per_op"] - 1.0
        summary[name.split("/")[-1] + "_ns_overhead_pct"] = round(100 * overhead, 2)
if summary:
    doc["summary"] = summary
with open("BENCH_pr5.json", "w") as f:
    json.dump(doc, f, indent=2)
    f.write("\n")
print("wrote BENCH_pr5.json")
EOF

backend_out=$(go test -run '^$' -bench '^(BenchmarkModelInferenceBatch|BenchmarkModelInferenceBatchInt8)$' -benchtime=2s -benchmem -count=1 .)
echo "$backend_out"

BENCH_OUT="$backend_out" python3 - <<'EOF'
import json, os, re

# Frozen float inference numbers from the batching PR (BENCH_pr3.json,
# commit ab1551d machine class): the quantized backend must be
# parity-or-better against this batched ns/op.
baseline = {
    "commit": "pr3",
    "BenchmarkModelInferenceBatch": {
        "ns_per_op": 6565977, "ns_per_sample": 205187,
    },
}

current = {}
for line in os.environ["BENCH_OUT"].splitlines():
    m = re.match(r"^(Benchmark\w+?)(?:-\d+)?\s+\d+\s+(.*)", line)
    if not m:
        continue
    name, rest = m.group(1), m.group(2)
    row = current.setdefault(name, {})
    for val, unit in re.findall(r"([\d.]+)\s+([\w/%-]+)", rest):
        key = {
            "ns/op": "ns_per_op",
            "B/op": "bytes_per_op",
            "allocs/op": "allocs_per_op",
            "ns/sample": "ns_per_sample",
        }.get(unit)
        if key:
            row[key] = float(val) if "." in val else int(float(val))

doc = {
    "description": "Inference backend benchmarks: the float64 transformer "
                   "vs the int8 weight-quantized backend, one 32-sample "
                   "PredictBatch per op. The quantized path must be "
                   "parity-or-better vs the frozen PR 3 float baseline. "
                   "Regenerate with scripts/bench.sh.",
    "baseline_pr3_float": baseline,
    "current": current,
}
summary = {}
flt = current.get("BenchmarkModelInferenceBatch")
q = current.get("BenchmarkModelInferenceBatchInt8")
if q and "ns_per_op" in q:
    summary["int8_vs_pr3_float_speedup"] = round(
        baseline["BenchmarkModelInferenceBatch"]["ns_per_op"] / q["ns_per_op"], 3)
    if flt and "ns_per_op" in flt:
        summary["int8_vs_float_speedup"] = round(
            flt["ns_per_op"] / q["ns_per_op"], 3)
if summary:
    doc["summary"] = summary
with open("BENCH_pr8.json", "w") as f:
    json.dump(doc, f, indent=2)
    f.write("\n")
print("wrote BENCH_pr8.json")
if summary.get("int8_vs_pr3_float_speedup", 1.0) < 1.0:
    raise SystemExit("int8 backend slower than the PR 3 float baseline")
EOF

sharded_out=$(go test -run '^$' -bench '^BenchmarkModelInferenceBatchSharded$' -benchtime=2s -count=1 .)
echo "$sharded_out"

BENCH_OUT="$sharded_out" python3 - <<'EOF'
import json, os, re

# Frozen serial inference numbers from the int8-backend PR (BENCH_pr8.json,
# commit 9cfdd4c machine class), the baseline the sharded GEMM is gated
# against.
baseline = {
    "commit": "pr8",
    "BenchmarkModelInferenceBatch": {"ns_per_op": 5811283},
    "BenchmarkModelInferenceBatchInt8": {"ns_per_op": 5638866},
}

current = {}
for line in os.environ["BENCH_OUT"].splitlines():
    m = re.match(r"^(Benchmark[\w/=.-]+?)(?:-\d+)?\s+\d+\s+(.*)", line)
    if not m:
        continue
    name, rest = m.group(1), m.group(2)
    row = current.setdefault(name, {})
    for val, unit in re.findall(r"([\d.]+)\s+([\w/%-]+)", rest):
        key = {
            "ns/op": "ns_per_op",
            "ns/sample": "ns_per_sample",
        }.get(unit)
        if key:
            row[key] = float(val) if "." in val else int(float(val))

doc = {
    "description": "Sharded-GEMM benchmarks: one 32-sample PredictBatch "
                   "per op across backend x GEMM parallelism. Regenerate "
                   "with scripts/bench.sh.",
    "note": "The gate is parity-or-better (>= 0.90, noise tolerance): on "
            "a single-CPU host sharded kernels cannot beat serial wall "
            "clock.",
    "baseline_pr8_serial": baseline,
    "current": current,
}
summary = {}
for kind, base_name in [
    ("net", "BenchmarkModelInferenceBatch"),
    ("net-int8", "BenchmarkModelInferenceBatchInt8"),
]:
    p1 = current.get(f"BenchmarkModelInferenceBatchSharded/{kind}/par=1", {})
    p4 = current.get(f"BenchmarkModelInferenceBatchSharded/{kind}/par=4", {})
    slug = kind.replace("-", "_")
    if "ns_per_op" in p1:
        summary[f"{slug}_par1_vs_pr8_speedup"] = round(
            baseline[base_name]["ns_per_op"] / p1["ns_per_op"], 3)
    if "ns_per_op" in p1 and "ns_per_op" in p4:
        summary[f"{slug}_par4_vs_par1_speedup"] = round(
            p1["ns_per_op"] / p4["ns_per_op"], 3)
if summary:
    doc["summary"] = summary
with open("BENCH_pr9.json", "w") as f:
    json.dump(doc, f, indent=2)
    f.write("\n")
print("wrote BENCH_pr9.json")

# Parity-or-better gates (0.90 floor absorbs single-core scheduling noise).
failures = []
for key in ["net_par1_vs_pr8_speedup", "net_int8_par1_vs_pr8_speedup",
            "net_par4_vs_par1_speedup", "net_int8_par4_vs_par1_speedup"]:
    v = summary.get(key)
    if v is not None and v < 0.90:
        failures.append(f"{key} = {v} (< 0.90)")
if failures:
    raise SystemExit("sharded GEMM regression: " + "; ".join(failures))
EOF

# Distributed-serving scaling + graceful-degradation record (BENCH_pr6.json):
# real multi-process fleets on loopback, see scripts/cluster_bench.sh.
scripts/cluster_bench.sh

# Ground-truth fan-out clustering record (BENCH_pr7.json): unclustered vs
# clustered Parsimon at 6144 hosts across distance thresholds. The record
# test writes the JSON itself and fails if no in-epsilon threshold reaches
# a 2x speedup, so a clustering regression breaks this run.
echo "== BENCH_pr7: link-clustering fan-out record =="
M3_BENCH_RECORD=1 go test -run '^TestGroundTruthFanoutRecord$' -v -timeout 30m .
echo "wrote BENCH_pr7.json"
