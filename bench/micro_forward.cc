/**
 * @file
 * Forward-pass throughput: serial vs parallel, FP32 vs compressed.
 *
 * Drives batched inference through InferenceSession on both backends
 * and both engines and reports tokens/sec — the end-to-end latency
 * story the execution refactor exists for. The parallel backend must
 * be bit-identical to serial (asserted here on the logits), so the
 * speedup column is a pure scheduling win. Results are written to
 * BENCH_forward.json (or --out PATH) for the driver; the JSON schema
 * is documented in EXPERIMENTS.md. A final traced pass through the
 * packed engine breaks the forward pass down by span (embed, per
 * layer, attention/ffn/layernorm, per QuantizedLinear).
 *
 * Flags: --seed N, --fast (fewer repetitions), plus
 *   --threads N   parallel-backend width (default GOBO_THREADS/cores)
 *   --seq-len S   tokens per sequence (default 32)
 *   --batch B     sequences per batch (default 16)
 *   --out PATH    JSON output path (default BENCH_forward.json)
 */

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_json.hh"
#include "bench/bench_util.hh"
#include "core/qexec.hh"
#include "exec/session.hh"
#include "kernels/kernels.hh"
#include "model/generate.hh"
#include "obs/export.hh"
#include "obs/observer.hh"
#include "util/rng.hh"
#include "util/table.hh"
#include "util/timer.hh"

using namespace gobo;
using namespace gobo::bench;

namespace {

using Result = benchjson::ForwardResult;
using ScalingPoint = benchjson::ScalingPoint;

/**
 * Thread counts for the scaling sweep: powers of two from 1 up to
 * max(4, cores), plus the exact core count when it is not a power of
 * two. Counts above the machine's cores are still measured (the JSON
 * stamps `cores` so bench_diff.py knows not to gate on them).
 */
std::vector<std::size_t>
sweepThreadCounts(std::size_t cores)
{
    std::vector<std::size_t> counts;
    std::size_t limit = std::max<std::size_t>(4, cores);
    for (std::size_t t = 1; t <= limit; t *= 2)
        counts.push_back(t);
    if (cores > 1
        && std::find(counts.begin(), counts.end(), cores)
               == counts.end()) {
        counts.push_back(cores);
        std::sort(counts.begin(), counts.end());
    }
    return counts;
}

double
timeBatches(const InferenceSession &session, const TokenBatch &batch,
            std::size_t reps)
{
    // Warm-up pass touches every weight and primes the pool.
    session.headLogitsBatch(batch);
    WallTimer timer;
    for (std::size_t r = 0; r < reps; ++r)
        session.headLogitsBatch(batch);
    double secs = timer.seconds();
    double tokens = static_cast<double>(reps * batch.size()
                                        * batch[0].size());
    return tokens / secs;
}

} // namespace

int
main(int argc, char **argv)
{
    std::uint64_t seed = 42;
    std::size_t threads = defaultThreads();
    std::size_t seq_len = 32, batch_size = 16, reps = 8;
    std::string out = "BENCH_forward.json";
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--seed" && i + 1 < argc) {
            seed = std::strtoull(argv[++i], nullptr, 10);
        } else if (arg == "--fast") {
            reps = 2;
        } else if (arg == "--threads" && i + 1 < argc) {
            threads = std::strtoul(argv[++i], nullptr, 10);
        } else if (arg == "--seq-len" && i + 1 < argc) {
            seq_len = std::strtoul(argv[++i], nullptr, 10);
        } else if (arg == "--batch" && i + 1 < argc) {
            batch_size = std::strtoul(argv[++i], nullptr, 10);
        } else if (arg == "--out" && i + 1 < argc) {
            out = argv[++i];
        } else {
            std::fprintf(stderr,
                         "usage: %s [--seed N] [--fast] [--threads N]"
                         " [--seq-len S] [--batch B] [--out PATH]\n",
                         argv[0]);
            return 2;
        }
    }

    const char *tier = activeKernels().name;
    std::printf("Micro-benchmark: forward-pass throughput "
                "(threads=%zu, seq=%zu, batch=%zu, kernels=%s)\n\n",
                threads, seq_len, batch_size, tier);

    auto cfg = miniConfig(ModelFamily::BertBase);
    BertModel model = generateModel(cfg, seed);
    ModelQuantOptions qopt = uniformOptions(3, CentroidMethod::Gobo, 4);

    Rng rng(seed * 31 + 5);
    // generateModel leaves the task head zeroed; fill it so the
    // logit-level identity check below compares real values.
    model.resizeHead(3);
    rng.fillGaussian(model.headW.data(), 0.0, 0.5);
    rng.fillGaussian(model.headB.data(), 0.0, 0.5);
    TokenBatch batch;
    for (std::size_t s = 0; s < batch_size; ++s) {
        std::vector<std::int32_t> seq;
        for (std::size_t t = 0; t < seq_len; ++t)
            seq.push_back(static_cast<std::int32_t>(
                rng.integer(0, static_cast<int>(cfg.vocabSize) - 1)));
        batch.push_back(std::move(seq));
    }

    ExecContext serial = ExecContext::serial();
    ExecContext parallel = ExecContext::parallel(threads);

    std::vector<Result> results;
    double fp32_serial = 0.0, fp32_parallel = 0.0, q_parallel = 0.0;

    {
        InferenceSession s_fp32(model, serial);
        InferenceSession p_fp32(model, parallel);
        // Sanity: the backends agree bit-for-bit on the logits.
        auto a = s_fp32.headLogitsBatch(batch);
        auto b = p_fp32.headLogitsBatch(batch);
        for (std::size_t i = 0; i < batch.size(); ++i)
            for (std::size_t j = 0; j < a[i].size(); ++j)
                if (a[i](j) != b[i](j)) {
                    std::fprintf(stderr,
                                 "backend mismatch at [%zu][%zu]\n", i,
                                 j);
                    return 1;
                }
        fp32_serial = timeBatches(s_fp32, batch, reps);
        fp32_parallel = timeBatches(p_fp32, batch, reps);
        results.push_back({"fp32", "serial", fp32_serial});
        results.push_back({"fp32", "parallel", fp32_parallel});
    }
    std::size_t packed_resident = 0;
    std::size_t cores = std::thread::hardware_concurrency();
    if (cores == 0)
        cores = 1;
    std::vector<ScalingPoint> scaling;
    {
        InferenceSession s_pk(QuantizedBertModel(model, qopt), serial);
        InferenceSession p_pk(QuantizedBertModel(model, qopt), parallel);
        auto b = s_pk.headLogitsBatch(batch);
        packed_resident = s_pk.residentWeightBytes();
        double pk_serial = timeBatches(s_pk, batch, reps);
        q_parallel = timeBatches(p_pk, batch, reps);
        results.push_back({"qpacked", "serial", pk_serial,
                           packed_resident});
        results.push_back({"qpacked", "parallel", q_parallel,
                           packed_resident});

        // Thread-scaling curve on the packed engine: one session,
        // re-contexted per width so weights stay resident and only the
        // scheduling changes. Every width must reproduce the serial
        // logits bit-for-bit (`b` above) — the curve is meaningless if
        // the work differs.
        for (std::size_t width : sweepThreadCounts(cores)) {
            s_pk.setContext(width <= 1 ? serial
                                       : ExecContext::parallel(width));
            auto scaled = s_pk.headLogitsBatch(batch);
            for (std::size_t i = 0; i < batch.size(); ++i)
                for (std::size_t j = 0; j < b[i].size(); ++j)
                    if (b[i](j) != scaled[i](j)) {
                        std::fprintf(stderr,
                                     "scaling mismatch at threads=%zu"
                                     " [%zu][%zu]\n",
                                     width, i, j);
                        return 1;
                    }
            double tps = timeBatches(s_pk, batch, reps);
            double base =
                scaling.empty() ? tps : scaling[0].tokensPerSec;
            scaling.push_back({width, tps, tps / base});
        }
    }
    std::size_t fp32_resident = cfg.fcWeightParams() * sizeof(float);
    results[0].residentBytes = fp32_resident;
    results[1].residentBytes = fp32_resident;

    ConsoleTable t(
        {"Engine", "Backend", "Tokens/sec", "Speedup", "Resident KiB"});
    for (const auto &r : results) {
        double base = r.engine == "fp32" ? fp32_serial
                                         : results[2].tokensPerSec;
        t.addRow({r.engine, r.backend, ConsoleTable::num(r.tokensPerSec, 0),
                  ConsoleTable::num(r.tokensPerSec / base, 2) + "x",
                  ConsoleTable::num(
                      static_cast<double>(r.residentBytes) / 1024.0,
                      1)});
    }
    t.print(std::cout);

    std::printf("\nresident weight bytes: fp32 %zu, packed %zu"
                " (packed/fp32 = %.4f)\n",
                fp32_resident, packed_resident,
                static_cast<double>(packed_resident)
                    / static_cast<double>(fp32_resident));

    double speedup = fp32_parallel / fp32_serial;
    std::printf("\nparallel FP32 speedup over serial: %.2fx on %zu"
                " threads\n",
                speedup, threads);

    std::printf("\nThread scaling, packed engine (%zu hardware"
                " cores):\n",
                cores);
    ConsoleTable sc({"Threads", "Tokens/sec", "Speedup"});
    for (const auto &p : scaling)
        sc.addRow({std::to_string(p.threads),
                   ConsoleTable::num(p.tokensPerSec, 0),
                   ConsoleTable::num(p.speedupVsSerial, 2) + "x"});
    sc.print(std::cout);

    // One traced batch through the packed parallel engine. The span
    // summary is the per-layer time breakdown; timing above ran
    // unobserved, so the throughput numbers carry zero instrumentation
    // cost.
    Observer obs;
    ExecContext traced_ctx = parallel;
    traced_ctx.obs = &obs;
    InferenceSession traced(QuantizedBertModel(model, qopt),
                            traced_ctx);
    traced.headLogitsBatch(batch);
    auto spans = summarizeSpans(obs.tracer);

    std::printf("\nPer-span time, one traced packed-parallel batch"
                " (top %zu of %zu spans):\n",
                std::min<std::size_t>(spans.size(), 12), spans.size());
    ConsoleTable st({"Span", "Count", "Total ms", "Mean us"});
    for (std::size_t i = 0; i < spans.size() && i < 12; ++i)
        st.addRow({spans[i].name, std::to_string(spans[i].count),
                   ConsoleTable::num(spans[i].totalUs / 1e3, 2),
                   ConsoleTable::num(spans[i].meanUs, 1)});
    st.print(std::cout);

    benchjson::ForwardDoc doc;
    doc.seqLen = seq_len;
    doc.batch = batch_size;
    doc.threads = threads;
    doc.cores = cores;
    doc.kernelTier = tier;
    doc.seqTile = activeKernels().seqTile;
    doc.results = results;
    doc.scaling = scaling;
    doc.spans = spans;
    doc.fp32ParallelSpeedup = speedup;
    doc.qexecParallelTokensPerSec = q_parallel;
    doc.packedResidentOverFp32 = static_cast<double>(packed_resident)
                                 / static_cast<double>(fp32_resident);

    std::ofstream json(out);
    if (json) {
        benchjson::writeForwardJson(doc, json);
        json.close();
        std::printf("wrote %s\n", out.c_str());
    }
    return 0;
}
