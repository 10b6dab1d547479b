/**
 * @file
 * Serving-path benchmark: trace-driven load through the
 * continuous-batching admission layer (src/serve).
 *
 * Replays a deterministic synthetic request trace (serve/loadgen)
 * through ServeServer over a packed 3-bit qexec session and writes
 * BENCH_serve.json. The deterministic block of that JSON — shed
 * counts, batch counts, tile occupancy, virtual latency quantiles —
 * is a pure function of (trace, options); the response checksum is
 * additionally a function of the kernel tier (the fp32 task head
 * reassociates on AVX2). Both are gated *exactly* by
 * tools/bench_diff.py against the committed baseline, which refuses
 * cross-tier diffs; wall-clock fields (tokens/sec, exec quantiles)
 * are machine-dependent and gated loosely or not at all. The windowed
 * `timeline` block (obs/timeline.hh) rides along in the JSON and is
 * gated window by window the same way.
 *
 * The default trace runs the virtual server near saturation with 4x
 * bursts, so both shed paths (overload at admission, deadline at
 * dispatch) exercise nonzero counts in the baseline — a diff that
 * silently stops shedding is a behavior change, not noise.
 *
 * A deterministic subsample of Ok responses is replayed one-at-a-time
 * through a serial session and compared bit-for-bit: batch formation
 * must be invisible in the logits (full-trace replay identity is
 * pinned in tests/test_serve.cc).
 *
 * Flags: --trace SPEC (loadgen grammar), --threads N, --fast
 * (smaller trace; do not diff against the full baseline), --out PATH.
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>

#include "bench/bench_util.hh"
#include "core/qexec.hh"
#include "exec/session.hh"
#include "exec/threadpool.hh"
#include "kernels/kernels.hh"
#include "model/generate.hh"
#include "obs/timeline.hh"
#include "serve/loadgen.hh"
#include "serve/server.hh"
#include "util/rng.hh"
#include "util/table.hh"

using namespace gobo;
using namespace gobo::bench;

namespace {

/** Near-saturation scenario: ~150 req/s of mean ~24.5 tokens against
 * a 4000 tok/s virtual server, with 4x bursts 20% of the time. */
constexpr const char *kDefaultTrace =
    "n=2000,seed=42,rate=150,len=1:64,long=0.25,burst=4x0.2,"
    "period=200000";
constexpr const char *kFastTrace =
    "n=500,seed=42,rate=150,len=1:64,long=0.25,burst=4x0.2,"
    "period=200000";

} // namespace

int
main(int argc, char **argv)
{
    std::string spec_text = kDefaultTrace;
    bool spec_set = false, fast = false;
    std::size_t threads = defaultThreads();
    std::string out = "BENCH_serve.json";
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--trace" && i + 1 < argc) {
            spec_text = argv[++i];
            spec_set = true;
        } else if (arg == "--fast") {
            fast = true;
        } else if (arg == "--threads" && i + 1 < argc) {
            auto v = parseThreadsSpec(argv[++i]);
            if (!v) {
                std::fprintf(stderr, "invalid --threads '%s'\n",
                             argv[i]);
                return 2;
            }
            threads = *v;
        } else if (arg == "--out" && i + 1 < argc) {
            out = argv[++i];
        } else {
            std::fprintf(stderr,
                         "usage: %s [--trace SPEC] [--threads N]"
                         " [--fast] [--out PATH]\n",
                         argv[0]);
            return 2;
        }
    }
    if (fast && !spec_set)
        spec_text = kFastTrace;

    auto spec = parseTraceSpec(spec_text);
    if (!spec) {
        std::fprintf(stderr, "invalid trace spec: %s\n",
                     spec_text.c_str());
        return 2;
    }

    const char *tier = activeKernels().name;
    std::printf("Micro-benchmark: serving path (threads=%zu,"
                " kernels=%s)\ntrace %s\n\n",
                threads, tier, traceSpecString(*spec).c_str());

    auto cfg = miniConfig(ModelFamily::BertBase);
    BertModel model = generateModel(cfg, 42);
    Rng rng(42 * 31 + 5);
    model.resizeHead(3);
    rng.fillGaussian(model.headW.data(), 0.0, 0.5);
    rng.fillGaussian(model.headB.data(), 0.0, 0.5);
    if (spec->maxLen > cfg.maxPosition) {
        std::fprintf(stderr, "trace len max %zu exceeds maxPosition %zu\n",
                     spec->maxLen, cfg.maxPosition);
        return 2;
    }
    auto trace = generateTrace(*spec, cfg.vocabSize);

    ModelQuantOptions qopt = uniformOptions(3, CentroidMethod::Gobo, 4);
    InferenceSession session(QuantizedBertModel(model, qopt),
                             ExecContext::parallel(threads));

    // Near-saturation policy: the queue bound trips during bursts
    // (overload sheds) and the deadline trips on the backlog behind
    // them (deadline sheds) — the baseline must exercise both paths.
    ServeOptions sopt;
    sopt.maxQueue = 24;
    sopt.requestDeadlineUs = 150000;
    ServeServer server(session, sopt);
    // Stamp the resolved options (tileLanes = the tier's seqTile)
    // into the JSON, not the pre-construction copy.
    sopt = server.options();
    ServeRun run = server.runTrace(trace);
    const ServeSummary &sum = run.summary;

    // Batch-forming identity spot check: every 97th Ok response must
    // equal a one-at-a-time serial forward of the same tokens.
    InferenceSession serial(QuantizedBertModel(model, qopt),
                            ExecContext::serial());
    std::size_t checked = 0;
    for (std::size_t i = 0; i < run.responses.size(); i += 97) {
        const ServeResponse &r = run.responses[i];
        if (r.status != ServeStatus::Ok)
            continue;
        Tensor ref = serial.headLogits(trace[i].tokens);
        for (std::size_t j = 0; j < ref.size(); ++j)
            if (ref(j) != r.logits(j)) {
                std::fprintf(stderr,
                             "replay mismatch: request %zu logit %zu\n",
                             i, j);
                return 1;
            }
        ++checked;
    }
    std::printf("serial replay identity: %zu/%llu Ok responses"
                " spot-checked, bit-identical\n\n",
                checked,
                static_cast<unsigned long long>(sum.completed));

    ConsoleTable t({"Metric", "Value"});
    t.addRow({"requests", std::to_string(sum.requests)});
    t.addRow({"completed", std::to_string(sum.completed)});
    t.addRow({"shed_overload", std::to_string(sum.shedOverload)});
    t.addRow({"shed_deadline", std::to_string(sum.shedDeadline)});
    t.addRow({"batches", std::to_string(sum.batches)});
    t.addRow({"tile_occupancy", ConsoleTable::num(sum.tileOccupancy, 3)});
    t.addRow({"latency p50 us", ConsoleTable::num(sum.latencyP50Us, 0)});
    t.addRow({"latency p95 us", ConsoleTable::num(sum.latencyP95Us, 0)});
    t.addRow({"latency p99 us", ConsoleTable::num(sum.latencyP99Us, 0)});
    t.addRow({"tokens/sec (wall)",
              ConsoleTable::num(sum.tokensPerSec, 0)});
    t.print(std::cout);
    std::printf("\nresponse checksum 0x%016llx\n\n",
                static_cast<unsigned long long>(sum.responseChecksum));
    printWorstShedWindows(sum.timeline, 3, std::cout);

    ServeReportMeta meta;
    meta.trace = traceSpecString(*spec);
    meta.kernelTier = tier;
    meta.threads = threads;
    meta.engine = "qexec";
    meta.format = "packed";
    std::ofstream os(out, std::ios::binary);
    if (!os) {
        std::fprintf(stderr, "cannot write %s\n", out.c_str());
        return 1;
    }
    writeServeJson(sum, sopt, meta, os);
    os.close();
    std::printf("wrote %s\n", out.c_str());
    return 0;
}
