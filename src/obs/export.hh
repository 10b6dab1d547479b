/**
 * @file
 * Exporters over the observability subsystem.
 *
 * Three output shapes: Chrome trace-event JSON from a Tracer (loads in
 * Perfetto / chrome://tracing), a console rendering of a
 * MetricsSnapshot (counters + p50/p90/p99 latency tables via
 * util/table), and machine-readable metrics JSON. Plus two folds:
 * thread-pool telemetry into snapshot counters, and per-name span
 * summaries (count/total/mean) out of a trace — what
 * bench/micro_forward records per layer.
 */

#ifndef GOBO_OBS_EXPORT_HH
#define GOBO_OBS_EXPORT_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "obs/metrics.hh"
#include "obs/pmu.hh"
#include "obs/trace.hh"

namespace gobo {

struct PoolTelemetry;
struct ScratchStats;

/**
 * Write `tracer`'s events as Chrome trace-event JSON
 * ({"traceEvents": [...]}; "ph":"X" complete events, microsecond
 * timestamps). Loadable in Perfetto and chrome://tracing.
 */
void writeChromeTrace(const Tracer &tracer, std::ostream &os);

/**
 * Render the snapshot for humans: a counter table (zero-valued
 * counters are skipped) and one row per histogram with count, mean and
 * p50/p90/p99.
 */
void printMetrics(const MetricsSnapshot &snap, std::ostream &os);

/** Write the snapshot as machine JSON (counters + histograms). */
void writeMetricsJson(const MetricsSnapshot &snap, std::ostream &os);

/**
 * Fold thread-pool telemetry into `snap` as `pool.*` counters (jobs,
 * inline runs, nested jobs, wakes, steals, items drained, per-worker
 * drain counts) so one exporter covers the whole stack.
 */
void appendPoolCounters(MetricsSnapshot &snap, const PoolTelemetry &pool);

/**
 * Fold scratch-arena statistics (exec/scratch.hh) into `snap` as
 * `scratch.*` counters: live arenas, bytes reserved by their decode
 * buffers, and index rows decoded (`scratch.rows_decoded`).
 */
void appendScratchCounters(MetricsSnapshot &snap, const ScratchStats &s);

/**
 * Fold tracer health into `snap` as `trace.*` counters — today just
 * `trace.dropped_events`, the spans discarded because a per-thread
 * buffer filled. Nonzero means every trace-derived number (span
 * summaries, Chrome export) undercounts.
 */
void appendTraceCounters(MetricsSnapshot &snap, const Tracer &tracer);

/**
 * Fold one PmuSnapshot into `snap`: raw totals as `pmu.*` counters
 * (cycles, instructions, llc_misses, llc_references, stalled_backend,
 * plus per-worker `pmu.worker[i].llc_misses`), and the derived figures
 * as gauges — `pmu.available` (1/0), `pmu.ipc`, `pmu.llc_miss_ratio`,
 * and `pmu.llc_miss_gbps` (misses x cache line / elapsed). With an
 * unavailable backend only `pmu.available` = 0 is appended, so a
 * counters diff between PMU-on and PMU-off runs stays readable.
 */
void appendPmuMetrics(MetricsSnapshot &snap, const PmuSnapshot &pmu);

/** Aggregate of every span sharing one name. */
struct SpanSummary
{
    std::string name;
    std::uint64_t count = 0;
    double totalUs = 0.0;
    double meanUs = 0.0;
};

/** Per-name span aggregates, sorted by total time descending. */
std::vector<SpanSummary> summarizeSpans(const Tracer &tracer);

/** Aggregate of the PMU deltas carried by every span sharing a name
 * (only spans that actually recorded the llc_miss/instructions/cycles
 * args contribute — spans traced with PMU off are invisible here). */
struct PmuSpanSummary
{
    std::string name;
    std::uint64_t count = 0; ///< spans that carried PMU args.
    std::uint64_t llcMisses = 0;
    std::uint64_t instructions = 0;
    std::uint64_t cycles = 0;
    double totalUs = 0.0; ///< wall time of the contributing spans.
};

/**
 * Per-name aggregates of span PMU annotations, sorted by LLC misses
 * descending — the measured side of the audit layer's modeled-vs-
 * measured DRAM comparison. Empty when no span carried PMU args.
 */
std::vector<PmuSpanSummary> summarizePmuSpans(const Tracer &tracer);

} // namespace gobo

#endif // GOBO_OBS_EXPORT_HH
