/**
 * @file
 * JSON writers for the bench result documents.
 *
 * BENCH_forward.json and BENCH_kernels.json used to be formatted by
 * fprintf blocks inline in the bench mains, which meant their shape
 * could only be validated by running a full benchmark. Extracting the
 * writers here (header-only; both bench binaries and the test suite
 * include it) lets tests/test_json_outputs.cc feed synthetic documents
 * through the exact code that writes the committed baselines and run
 * the strict jsonlint validator over the result.
 *
 * The emitted byte format is unchanged from the inline writers — the
 * committed baselines under bench/baseline/ still parse field-for-
 * field — except that BENCH_kernels.json gains the optional `pmu`
 * roofline block (machine-dependent by construction; bench_diff.py
 * skips it by design — see EXPERIMENTS.md).
 */

#ifndef GOBO_BENCH_BENCH_JSON_HH
#define GOBO_BENCH_BENCH_JSON_HH

#include <cstddef>
#include <cstdio>
#include <ostream>
#include <string>
#include <vector>

#include "obs/export.hh"

namespace gobo::benchjson {

namespace detail {

/** Locale-proof printf into an ostream (the bench docs are ASCII and
 * every float goes through an explicit %-format). */
template <typename... Args>
inline void
put(std::ostream &os, const char *fmt, Args... args)
{
    char buf[512];
    std::snprintf(buf, sizeof buf, fmt, args...);
    os << buf;
}

} // namespace detail

// ---------------------------------------------------------------------------
// BENCH_forward.json

struct ForwardResult
{
    std::string engine;
    std::string backend;
    double tokensPerSec = 0.0;
    std::size_t residentBytes = 0;
};

struct ScalingPoint
{
    std::size_t threads = 0;
    double tokensPerSec = 0.0;
    double speedupVsSerial = 0.0;
};

struct ForwardDoc
{
    std::size_t seqLen = 0;
    std::size_t batch = 0;
    std::size_t threads = 0;
    std::size_t cores = 0;
    std::string kernelTier;
    /** Active tier's sequence-tile width (KernelSet::seqTile). Changes
     * batching granularity, so bench_diff refuses cross-width diffs. */
    std::size_t seqTile = 0;
    std::vector<ForwardResult> results;
    std::vector<ScalingPoint> scaling;
    std::vector<SpanSummary> spans;
    double fp32ParallelSpeedup = 0.0;
    double qexecParallelTokensPerSec = 0.0;
    double packedResidentOverFp32 = 0.0;
};

inline void
writeForwardJson(const ForwardDoc &doc, std::ostream &os)
{
    using detail::put;
    put(os,
        "{\n  \"bench\": \"micro_forward\",\n"
        "  \"seq_len\": %zu,\n  \"batch\": %zu,\n"
        "  \"threads\": %zu,\n  \"cores\": %zu,\n"
        "  \"kernel_tier\": \"%s\",\n"
        "  \"seq_tile\": %zu,\n"
        "  \"results\": [\n",
        doc.seqLen, doc.batch, doc.threads, doc.cores,
        doc.kernelTier.c_str(), doc.seqTile);
    for (std::size_t i = 0; i < doc.results.size(); ++i)
        put(os,
            "    {\"engine\": \"%s\", \"backend\": \"%s\","
            " \"tokens_per_sec\": %.1f,"
            " \"resident_bytes\": %zu}%s\n",
            doc.results[i].engine.c_str(),
            doc.results[i].backend.c_str(), doc.results[i].tokensPerSec,
            doc.results[i].residentBytes,
            i + 1 < doc.results.size() ? "," : "");
    put(os, "  ],\n  \"scaling\": [\n");
    for (std::size_t i = 0; i < doc.scaling.size(); ++i)
        put(os,
            "    {\"threads\": %zu,"
            " \"tokens_per_sec\": %.1f,"
            " \"speedup_vs_serial\": %.3f}%s\n",
            doc.scaling[i].threads, doc.scaling[i].tokensPerSec,
            doc.scaling[i].speedupVsSerial,
            i + 1 < doc.scaling.size() ? "," : "");
    put(os, "  ],\n  \"spans\": [\n");
    for (std::size_t i = 0; i < doc.spans.size(); ++i)
        put(os,
            "    {\"name\": \"%s\", \"count\": %zu,"
            " \"total_us\": %.1f, \"mean_us\": %.2f}%s\n",
            doc.spans[i].name.c_str(),
            static_cast<std::size_t>(doc.spans[i].count),
            doc.spans[i].totalUs, doc.spans[i].meanUs,
            i + 1 < doc.spans.size() ? "," : "");
    put(os,
        "  ],\n  \"fp32_parallel_speedup\": %.3f,\n"
        "  \"qexec_parallel_tokens_per_sec\": %.1f,\n"
        "  \"packed_resident_over_fp32\": %.5f\n}\n",
        doc.fp32ParallelSpeedup, doc.qexecParallelTokensPerSec,
        doc.packedResidentOverFp32);
}

// ---------------------------------------------------------------------------
// BENCH_kernels.json

struct KernelResult
{
    std::string kernel;
    std::string tier;
    unsigned bits = 0; ///< 0 when the kernel does not depend on B.
    std::size_t n = 0;
    /** The tier's sequence-tile width — tile kernels process this many
     * lanes per call, so GB/s figures are only comparable at equal
     * width (bench_diff refuses mismatches on shared keys). */
    std::size_t seqTile = 0;
    double gbPerSec = 0.0;
    double gflopPerSec = 0.0;
};

/** Roofline position of one (kernel, tier, bits) cell, from hardware
 * counters sampled around the same timed loop the wall-clock figures
 * come from. Machine-dependent by construction — never gated. */
struct KernelRoofline
{
    std::string kernel;
    std::string tier;
    unsigned bits = 0;
    double wallGbPerSec = 0.0;     ///< the gated results[] figure.
    double measuredGbPerSec = 0.0; ///< LLC misses x line / elapsed.
    /** Useful flops per DRAM byte actually moved (misses x line);
     * high values mean the working set lived in cache. */
    double arithmeticIntensity = 0.0;
    double ipc = 0.0;
};

struct KernelsDoc
{
    /** Baseline (generic-tier) tile width, kept at the document level
     * for schema continuity; each result row additionally carries its
     * own tier's `seq_tile` since widths differ across tiers. */
    std::size_t seqTile = 0;
    std::vector<KernelResult> results;

    // The pmu block renders whenever pmuBackend is non-empty; with
    // pmuAvailable false it still records that counters were absent,
    // so a reader can tell "no PMU on this host" from "old schema".
    bool pmuAvailable = false;
    std::string pmuBackend; ///< empty = omit the pmu block entirely.
    std::size_t cacheLineBytes = 64;
    std::vector<KernelRoofline> roofline;
};

inline void
writeKernelsJson(const KernelsDoc &doc, std::ostream &os)
{
    using detail::put;
    put(os,
        "{\n  \"bench\": \"micro_kernels\",\n"
        "  \"seq_tile\": %zu,\n  \"results\": [\n",
        doc.seqTile);
    for (std::size_t i = 0; i < doc.results.size(); ++i)
        put(os,
            "    {\"kernel\": \"%s\", \"tier\": \"%s\","
            " \"bits\": %u, \"n\": %zu, \"seq_tile\": %zu,"
            " \"gb_per_sec\": %.3f,"
            " \"gflop_per_sec\": %.3f}%s\n",
            doc.results[i].kernel.c_str(), doc.results[i].tier.c_str(),
            doc.results[i].bits, doc.results[i].n,
            doc.results[i].seqTile,
            doc.results[i].gbPerSec, doc.results[i].gflopPerSec,
            i + 1 < doc.results.size() ? "," : "");
    put(os, "  ]");
    if (!doc.pmuBackend.empty()) {
        put(os,
            ",\n  \"pmu\": {\n"
            "    \"available\": %s,\n"
            "    \"backend\": \"%s\",\n"
            "    \"cache_line_bytes\": %zu,\n"
            "    \"results\": [\n",
            doc.pmuAvailable ? "true" : "false",
            doc.pmuBackend.c_str(), doc.cacheLineBytes);
        for (std::size_t i = 0; i < doc.roofline.size(); ++i)
            put(os,
                "      {\"kernel\": \"%s\", \"tier\": \"%s\","
                " \"bits\": %u, \"wall_gb_per_sec\": %.3f,"
                " \"measured_gb_per_sec\": %.3f,"
                " \"arithmetic_intensity_flop_per_byte\": %.3f,"
                " \"ipc\": %.3f}%s\n",
                doc.roofline[i].kernel.c_str(),
                doc.roofline[i].tier.c_str(), doc.roofline[i].bits,
                doc.roofline[i].wallGbPerSec,
                doc.roofline[i].measuredGbPerSec,
                doc.roofline[i].arithmeticIntensity, doc.roofline[i].ipc,
                i + 1 < doc.roofline.size() ? "," : "");
        put(os, "    ]\n  }");
    }
    put(os, "\n}\n");
}

} // namespace gobo::benchjson

#endif // GOBO_BENCH_BENCH_JSON_HH
