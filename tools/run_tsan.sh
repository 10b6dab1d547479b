#!/bin/sh
# Build the ThreadSanitizer preset and run the concurrency-layer tests
# (thread pool, parallel ops/backends, parallel quantization).
#
# Usage: tools/run_tsan.sh [build-dir]
#
# GOBO_THREADS is forced above 1 so the parallel paths really run
# multi-threaded even on single-core CI runners.
set -eu

repo=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
build=${1:-"$repo/build-tsan"}

cmake -B "$build" -S "$repo" -DGOBO_SANITIZE=thread \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$build" -j \
    --target test_threadpool test_exec test_quantizer test_scratch test_ops

# ModelBitIdentity covers ThreadCountDeterminism and the skewed-batch
# WorkStealingOnSkewedSequenceLengths stress; the ThreadPool group
# covers the steal path itself (StealsFromABlockedParticipant,
# SkewedItemsBalanceAcrossWorkers, nested composition).
GOBO_THREADS=${GOBO_THREADS:-8} TSAN_OPTIONS=${TSAN_OPTIONS:-halt_on_error=1} \
    ctest --test-dir "$build" --output-on-failure \
    -R 'ThreadPool|ExecContext|DefaultThreads|BackendBitIdentity|ModelBitIdentity|Parallel|PackedHotPath'

echo "TSan run clean."
