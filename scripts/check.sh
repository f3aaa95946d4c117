#!/usr/bin/env bash
# Repo health gate: formatting, vet, build, and the full test suite under
# the race detector. Run from the repo root (or let the script cd there).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== gofmt =="
unformatted=$(gofmt -l cmd internal examples ./*.go)
if [[ -n "$unformatted" ]]; then
    echo "gofmt needed:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet =="
go vet ./...

echo "== go build =="
go build ./...

echo "== go test -race (shuffled) =="
# -shuffle=on randomizes test (and package-level example) execution order so
# inter-test state leaks can't hide behind source order; the seed is printed
# on failure for reproduction.
go test -race -shuffle=on ./...

echo "== fault injection (-race) =="
# The fault-tolerance suite: panic isolation in the pool, flowSim fallback
# and panic containment in core, reload/shed/degraded behavior in serve —
# all with fault hooks armed, under the race detector.
go test -race -run 'Panic|Fault|Fallback|Degraded|Reload|Admission|Hook|Cancels' \
    ./internal/pool/ ./internal/core/ ./internal/serve/ ./internal/faultinject/

echo "== checkpoint fuzz smoke =="
# Five seconds of coverage-guided corruption against the checkpoint decoder:
# any input may be rejected, none may panic.
go test -run '^$' -fuzz '^FuzzCheckpoint$' -fuzztime=5s ./internal/model/

echo "== inference backend parity + selection =="
# The multi-backend gates: int8-vs-float parity within the pinned epsilon,
# bit-stable quantization (behind byte-stable serving responses), per-backend
# cache keying, request-level backend selection, and the stable
# unknown_backend rejection for kinds this build does not register.
go test -run 'TestQuantizedParity|TestQuantizedDeterminism|TestBackendFingerprints|TestBuildBackendRegistry' \
    ./internal/model/
go test -run 'TestEstimateCacheBackendKeying' ./internal/core/
go test -run 'TestEstimateBackendSelection|TestUnknownBackend|TestQuantilesBackendByteStable|TestMetricsBackendSplit' \
    ./internal/serve/

echo "== warm-path gate (-race) =="
# A warm cache hit does O(1) model and quantile work: no request
# fingerprints the model (a counting predictor sees exactly one call, at
# backend-set build), a model swap still re-keys the cache and shard calls
# pinned to the old fingerprint get 409 model_mismatch, and the memoized
# combined quantiles and sorted-slice bucket quantiles are bit-identical to
# the unmemoized computation, also under concurrent callers.
go test -race -run '^TestWarmPathNoFingerprint$|^TestBackendSetFingerprints$|^TestSwapNewCacheKey$' \
    ./internal/serve/
go test -race -run '^TestCombinedQuantile|^TestBucketQuantileMatchesCDF$|^TestFromSnapshotSameAnswers$' \
    ./internal/agg/

echo "== schedule invariance + sharded GEMM bit-identity =="
# Schedule-invariance gate: the featurize→predict schedule on a 4-worker
# pool must reproduce batch size 1 on a 1-worker pool bit for bit across
# backends, micro-batch sizes, and seeds (-count=2 reruns in one process to
# catch state leaks); the worker-sharded GEMM must be bit-identical to the
# serial kernels in both the float and int8 paths — all under the race
# detector, since both features are scheduling-dependent by construction.
go test -race -count=2 -run '^TestScheduleInvariantBitIdentical$' ./internal/core/
go test -race -run '^TestPredictParallelismBitIdentical$|^TestPredictParallelismConcurrent$' ./internal/model/
go test -race -run '^TestFloatShardedBitIdentical$|^TestQuantShardedBitIdentical$' ./internal/ml/

echo "== packetsim determinism =="
# Golden-parity and pool-reuse tests pin the engine to the frozen
# bit-identical result hashes; -count=2 reruns them in one process so any
# state leaking through the sync.Pool between runs fails the second pass.
go test -run 'TestEngineGoldenParity|TestRunDeterministic' -count=2 ./internal/packetsim/

echo "== parsimon clustering determinism + parity =="
# Link-clustering gates: frozen golden hashes (clustering off), threshold-0
# bit-identity with the unclustered path, and cross-pool-width determinism;
# -count=2 reruns in one process to catch state leaks across runs.
go test -run 'TestParsimonGoldenParity|TestClusterExactTierBitIdentical|TestClusterUniformWorkloadLossless|TestClusterDeterminism' \
    -count=2 ./internal/parsimon/

echo "== 100k-host scale smoke =="
# Builds the 100,352-host fat-tree, validates routing, and runs a short
# clustered ground-truth pass under hard memory ceilings (512 MiB live
# heap / 1.5 GiB Sys); measured ~2s wall, budgeted 10m for slow machines.
M3_SCALE_SMOKE=1 go test -run '^TestScaleSmoke100k$' -v -timeout 10m ./internal/core/

echo "== chaos gate (-race) =="
# The resilience gate: a 3-replica in-process fleet under a seeded 10% fault
# schedule plus a flapped replica. Every request must answer 200 with the
# single-process byte-identical result, breakers must open for the flapped
# peer, and the background prober alone must re-admit it — no user request
# pays for recovery. Deadline propagation and the adaptive Retry-After ride
# along.
go test -race -run '^TestChaosFleetResilience$|^TestDeadlinePropagation|^TestRetryAfterAdaptive$' \
    ./internal/serve/
go test -race -run '^TestChaos|^TestProber|^TestBreaker|^TestRetryBudget|^TestCall' \
    ./internal/cluster/ ./internal/faultinject/

echo "== cluster smoke (3-replica scatter parity) =="
# Boots real m3serve processes: a standalone reference and a 3-replica
# scatter fleet; the fleet's quantiles must be byte-identical to standalone.
scripts/cluster_smoke.sh

echo "== bench smoke (-short) =="
scripts/bench.sh -short

echo "ok"
