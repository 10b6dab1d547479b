/**
 * @file
 * The repository benchmark: full-scale DistilBERT served from 3-bit
 * packed weights beside the FP32 engine.
 *
 * One process loads a seeded full-scale DistilBERT (generated once and
 * cached next to the build), quantizes it to 3-bit Packed, and serves
 * both engines through InferenceSession on the active kernel tier with
 * min(nproc, 4) threads. Three workloads:
 *
 *   long   offline headLogitsBatch of 8 x 128 tokens on both engines.
 *   serve  ServeServer::runTrace over a seeded burst of 1..64 token
 *          requests that sheds at the queue bound, replayed on a packed
 *          and an FP32 server.
 *   short  closed loop, one request in flight: headLogits on 1..16
 *          tokens (each block of 16 requests is a seeded permutation
 *          of the lengths 1..16), run on both engines. Too sensitive to
 *          a shared host to gate on, so BENCHMARK.json leaves it out;
 *          it is run by hand.
 *
 * Everything is measured after warm-up over repeated trials and
 * reported as median, quartiles and sample count: latencies per call,
 * throughput per trial (a block, a batch or a trace). The untraced run
 * (--trace 0) prints the end-to-end metrics; the traced run (--trace 1)
 * replays the same loop and additionally times every FC layer from
 * outside by calling QuantizedLinear::forward and ops linear() at the
 * workload's own shapes, joins them with in-process kernel peaks (the
 * roofline denominators), splits the traced requests' time into FC and
 * other work from the program's own spans, and reads the program's
 * qexec, pool, scratch and serve counters. The last stdout line is one
 * JSON object: {"correct", "attempted", "failed", "metrics"}.
 *
 * Usage: perfbench --workload short|long|serve --seed N --seconds S
 *                  --trace 0|1 --model PATH [--report PATH]
 */

#include <algorithm>
#include <array>
#include <barrier>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "core/qexec.hh"
#include "core/quantizer.hh"
#include "exec/scratch.hh"
#include "exec/session.hh"
#include "exec/threadpool.hh"
#include "kernels/kernels.hh"
#include "model/config.hh"
#include "model/footprint.hh"
#include "model/generate.hh"
#include "model/serialize.hh"
#include "obs/observer.hh"
#include "serve/loadgen.hh"
#include "serve/server.hh"
#include "tensor/ops.hh"
#include "util/logging.hh"
#include "util/rng.hh"

using namespace gobo;

namespace {

using Clock = std::chrono::steady_clock;

double
since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

// The model every run serves. Its seed is fixed so one cached file
// serves every workload seed; the workload seed drives the task head,
// token ids, lengths and traces.
constexpr ModelFamily kFamily = ModelFamily::DistilBert;
constexpr std::uint64_t kModelSeed = 42;
constexpr unsigned kBits = 3;
constexpr std::size_t kHeadOutputs = 3;
constexpr std::size_t kMaxThreads = 4;
// Set-up is repeated and its median reported, so work moved into
// set-up shows up in setup_s.
constexpr std::size_t kSetupReps = 3;

constexpr std::size_t kShortMaxLen = 16;
constexpr std::size_t kLongBatch = 8;
constexpr std::size_t kLongLen = 128;
// Requests per serve trace, how many the queue bound admits, and how
// many Ok responses are replayed serially (first trace only).
constexpr std::size_t kServeRequests = 20;
constexpr std::size_t kServeAdmitted = 12;
constexpr std::size_t kReplaySamples = 2;
// Every workload runs at least this many trials, even past --seconds.
constexpr std::size_t kMinTrials = 3;

constexpr std::size_t kKinds = 7;
constexpr std::array<const char *, kKinds> kKindNames = {
    "query", "key", "value", "attn_output", "intermediate", "output",
    "pooler"};

std::uint64_t
subSeed(std::uint64_t seed, std::uint64_t stream)
{
    return mix64(seed * 0x9e3779b97f4a7c15ULL + stream);
}

// ---------------------------------------------------------------- stats

/** Median and quartiles as Python's statistics.quantiles(n=4) gives
 * them (the "exclusive" method), plus the sample count. */
struct Stats
{
    double median = 0.0, q1 = 0.0, q3 = 0.0;
    std::size_t n = 0;
};

Stats
summarize(std::vector<double> v)
{
    Stats s;
    s.n = v.size();
    if (v.empty())
        return s;
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    s.median = n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
    if (n < 2) {
        s.q1 = s.q3 = s.median;
        return s;
    }
    auto quartile = [&](std::size_t i) {
        std::size_t m = n + 1;
        std::size_t j = std::clamp<std::size_t>(i * m / 4, 1, n - 1);
        double delta = static_cast<double>(i * m) - 4.0 * j;
        return (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    };
    s.q1 = quartile(1);
    s.q3 = quartile(3);
    return s;
}

/** Linear-interpolated percentile p in [0, 100] of unsorted samples. */
double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    double pos = p / 100.0 * static_cast<double>(v.size() - 1);
    auto lo = static_cast<std::size_t>(pos);
    std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

/** The highest of p99/p95/p90/p75 with at least ten samples beyond
 * it; 0 when even p75 lacks them. */
double
tailRank(std::size_t n)
{
    for (double p : {99.0, 95.0, 90.0, 75.0}) {
        auto at = static_cast<std::size_t>(
            std::ceil(p / 100.0 * static_cast<double>(n)));
        if (n >= at + 10)
            return p;
    }
    return 0.0;
}

double
mean(const std::vector<double> &v)
{
    return v.empty() ? 0.0
                     : std::accumulate(v.begin(), v.end(), 0.0)
                           / static_cast<double>(v.size());
}

std::string
num(double v)
{
    char buf[64];
    auto r = std::to_chars(buf, buf + sizeof buf, v);
    return std::string(buf, r.ptr);
}

double
peakRssMiB()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0;
    return 0.0;
}

/** All CPUs' time since boot and the part of it the hypervisor stole,
 * from the first line of /proc/stat (in clock ticks). */
struct CpuTimes
{
    double total = 0.0, steal = 0.0;
};

CpuTimes
cpuTimes()
{
    std::ifstream in("/proc/stat");
    std::string cpu;
    CpuTimes t;
    if (!(in >> cpu) || cpu != "cpu")
        return t;
    double v;
    for (int field = 0; field < 8 && in >> v; ++field) {
        t.total += v;
        if (field == 7)
            t.steal = v;
    }
    return t;
}

/**
 * Share of the host's CPU time stolen since `from`; 0 where the kernel
 * does not report it. Printed beside every run, because a shared host
 * is the main source of run-to-run spread.
 */
double
stealFrac(const CpuTimes &from)
{
    CpuTimes to = cpuTimes();
    double total = to.total - from.total;
    return total > 0 ? (to.steal - from.steal) / total : 0.0;
}

// --------------------------------------------------------------- report

struct Metric
{
    std::string name, unit;
    Stats stats;
};

/** Named metrics in print order; each carries its sample count. */
class Report
{
  public:
    void
    add(std::string name, std::string unit, Stats s)
    {
        metrics.push_back({std::move(name), std::move(unit), s});
    }

    void
    add(std::string name, std::string unit, const std::vector<double> &v)
    {
        add(std::move(name), std::move(unit), summarize(v));
    }

    /** A single derived value (a count or a ratio over n samples). */
    void
    value(std::string name, std::string unit, double v, std::size_t n)
    {
        add(std::move(name), std::move(unit), Stats{v, v, v, n});
    }

    void
    print(const char *title) const
    {
        std::printf("\n%s\n", title);
        for (const auto &m : metrics)
            std::printf("  %-32s %14.4f %-11s q1=%.4f q3=%.4f n=%zu\n",
                        m.name.c_str(), m.stats.median, m.unit.c_str(),
                        m.stats.q1, m.stats.q3, m.stats.n);
    }

    std::string
    json() const
    {
        std::string out = "{";
        for (std::size_t i = 0; i < metrics.size(); ++i) {
            const auto &m = metrics[i];
            out += (i ? ", \"" : "\"") + m.name + "\": {\"value\": "
                   + num(m.stats.median) + ", \"unit\": \"" + m.unit
                   + "\"}";
        }
        return out + "}";
    }

    std::string
    detailJson() const
    {
        std::string out = "{";
        for (std::size_t i = 0; i < metrics.size(); ++i) {
            const auto &m = metrics[i];
            out += (i ? ",\n    \"" : "\n    \"") + m.name
                   + "\": {\"median\": " + num(m.stats.median)
                   + ", \"q1\": " + num(m.stats.q1) + ", \"q3\": "
                   + num(m.stats.q3) + ", \"n\": "
                   + std::to_string(m.stats.n) + ", \"unit\": \"" + m.unit
                   + "\"}";
        }
        return out + "\n  }";
    }

  private:
    std::vector<Metric> metrics;
};

// ---------------------------------------------------------------- model

std::string
modelStamp()
{
    ModelConfig cfg = fullConfig(kFamily);
    return "family=" + familyName(kFamily) + " scale=full hidden="
           + std::to_string(cfg.hidden) + " layers="
           + std::to_string(cfg.numLayers) + " seed="
           + std::to_string(kModelSeed);
}

/**
 * Make sure `path` holds the seeded full-scale model. A sidecar
 * `<path>.stamp` records family, scale, seed and file size; any
 * mismatch (or a missing file) regenerates the model. Generation time
 * is not part of set-up.
 */
void
ensureModel(const std::string &path)
{
    namespace fs = std::filesystem;
    std::string want = modelStamp();
    std::string stampPath = path + ".stamp";
    if (fs::exists(path) && fs::exists(stampPath)) {
        std::ifstream in(stampPath);
        std::string have;
        std::getline(in, have);
        if (have == want + " bytes=" + std::to_string(fs::file_size(path)))
            return;
    }
    std::printf("generating %s into %s\n", want.c_str(), path.c_str());
    auto t0 = Clock::now();
    fs::create_directories(fs::path(path).parent_path());
    BertModel model = generateModel(fullConfig(kFamily), kModelSeed);
    std::string tmp = path + ".tmp";
    saveModel(tmp, model);
    fs::rename(tmp, path);
    std::ofstream(stampPath)
        << want << " bytes=" << fs::file_size(path) << "\n";
    std::printf("generated in %.1f s (excluded from setup_s)\n", since(t0));
}

/** Both engines over one loaded model. */
struct Engines
{
    std::unique_ptr<InferenceSession> packed, fp32;
    /** A copy of the packed model whose layers the traced run times
     * directly (the session keeps its own copy private). */
    std::optional<QuantizedBertModel> layers;
    double loadS = 0.0, quantizeS = 0.0, setupS = 0.0;
};

/**
 * Set-up as a user pays it: load the FP32 file, fill the task head
 * (the generated head is all zeros, so logit checks against it would
 * prove nothing; the head is part of the model, so it follows the
 * model seed), quantize to 3-bit Packed, and build both sessions.
 */
std::unique_ptr<Engines>
setUp(const std::string &path, std::size_t threads, bool keepLayers)
{
    auto e = std::make_unique<Engines>();
    auto t0 = Clock::now();
    BertModel model = loadModel(path);
    ModelConfig want = fullConfig(kFamily);
    fatalIf(model.config().family != kFamily
                || model.config().hidden != want.hidden
                || model.config().numLayers != want.numLayers,
            "cached model ", path, " is not full-scale ", want.name);
    model.resizeHead(kHeadOutputs);
    Rng rng(subSeed(kModelSeed, 1));
    rng.fillGaussian(model.headW.data(), 0.0, 0.5);
    rng.fillGaussian(model.headB.data(), 0.0, 0.5);
    e->loadS = since(t0);

    auto t1 = Clock::now();
    ModelQuantOptions qopt;
    qopt.base.bits = kBits;
    qopt.format = WeightFormat::Packed;
    qopt.threads = threads;
    QuantizedBertModel quantized(model, qopt);
    e->quantizeS = since(t1);

    ExecContext ctx = ExecContext::parallel(threads);
    ctx.weightFormat = WeightFormat::Packed;
    e->packed = std::make_unique<InferenceSession>(
        keepLayers ? QuantizedBertModel(quantized) : std::move(quantized),
        ctx);
    e->fp32 = std::make_unique<InferenceSession>(std::move(model), ctx);
    e->setupS = since(t0);
    // The copy the traced run times layer by layer is not set-up work.
    if (keepLayers)
        e->layers.emplace(std::move(quantized));
    return e;
}

// --------------------------------------------------------- measurements

/** Outcomes shared by every workload. */
struct Measure
{
    std::vector<double> packedCallMs, fp32CallMs;
    /** Tokens over engine seconds, one sample per trial. */
    std::vector<double> packedTokS, fp32TokS;
    std::uint64_t attempted = 0, failed = 0;
    std::uint64_t compared = 0, agreed = 0;
    bool correct = true;
    // serve only
    std::vector<double> vlatMs, queueWaitMs, execP50Ms, execP99Ms;
    std::uint64_t traces = 0, shedOverload = 0, shedDeadline = 0,
                  batches = 0, lanesFilled = 0, lanesTotal = 0;

    void
    addTrial(double tokens, double packed, double fp32)
    {
        packedTokS.push_back(tokens / packed);
        fp32TokS.push_back(tokens / fp32);
    }

    void
    fail(const std::string &what)
    {
        correct = false;
        ++failed;
        std::fprintf(stderr, "check failed: %s\n", what.c_str());
    }
};

/** Finite, the head's width, and not all zero. */
bool
logitsOk(const Tensor &t)
{
    if (t.size() != kHeadOutputs)
        return false;
    bool nonzero = false;
    for (float v : t.flat()) {
        if (!std::isfinite(v))
            return false;
        nonzero |= v != 0.0f;
    }
    return nonzero;
}

bool
sameBits(const Tensor &a, const Tensor &b)
{
    return a.size() == b.size()
           && std::memcmp(a.flat().data(), b.flat().data(),
                          a.size() * sizeof(float))
                  == 0;
}

void
checkPair(Measure &m, const Tensor &p, const Tensor &f, const char *where)
{
    if (!logitsOk(p))
        m.fail(std::string(where) + ": packed logits not finite/non-zero");
    if (!logitsOk(f))
        m.fail(std::string(where) + ": fp32 logits not finite/non-zero");
    if (p.size() == f.size() && p.size() > 0) {
        ++m.compared;
        m.agreed += argmax(p.flat()) == argmax(f.flat());
    }
}

/**
 * Replay `seqs` one at a time on a serial context and require the
 * N-thread logits `expected` bit for bit. Returns the serial seconds.
 */
double
serialReplay(InferenceSession &s, const TokenBatch &seqs,
             const std::vector<Tensor> &expected, Measure &m,
             const char *engine)
{
    ExecContext parallel = s.context();
    ExecContext serial = ExecContext::serial();
    serial.weightFormat = parallel.weightFormat;
    s.setContext(serial);
    auto t0 = Clock::now();
    for (std::size_t i = 0; i < seqs.size(); ++i)
        if (!sameBits(s.headLogits(seqs[i]), expected[i]))
            m.fail(std::string(engine)
                   + ": serial replay differs from N-thread logits");
    double secs = since(t0);
    s.setContext(parallel);
    return secs;
}

std::vector<std::int32_t>
randomTokens(Rng &rng, std::size_t len, std::size_t vocab)
{
    std::vector<std::int32_t> t(len);
    for (auto &id : t)
        id = static_cast<std::int32_t>(
            rng.integer(0, static_cast<std::int64_t>(vocab) - 1));
    return t;
}

// ------------------------------------------------------------- tracing

/** Achieved-rate peaks at the active tier, all threads at once. */
struct Peaks
{
    double dotGflops = 0.0, streamGbps = 0.0, decodeGbps = 0.0;
};

/**
 * Run body(t) on `threads` fresh threads released together; returns
 * the wall seconds until the last one finishes.
 */
double
runTogether(std::size_t threads, const std::function<void(std::size_t)> &body)
{
    std::barrier start(static_cast<std::ptrdiff_t>(threads + 1));
    std::vector<std::thread> pool;
    for (std::size_t t = 0; t < threads; ++t)
        pool.emplace_back([&, t] {
            start.arrive_and_wait();
            body(t);
        });
    start.arrive_and_wait();
    auto t0 = Clock::now();
    for (auto &th : pool)
        th.join();
    return since(t0);
}

Peaks
measurePeaks(const KernelSet &kn, std::size_t threads)
{
    constexpr int kReps = 5;
    Peaks p;
    std::vector<double> samples;

    // dot: L1-resident vectors, so compute is the only limit.
    constexpr std::size_t kDotN = 4096, kDotIters = 25000;
    for (int r = 0; r < kReps; ++r) {
        std::vector<float> sinks(threads);
        double secs = runTogether(threads, [&](std::size_t t) {
            std::vector<float> a(kDotN, 1.0f + t), b(kDotN, 0.5f);
            float acc = 0.0f;
            for (std::size_t i = 0; i < kDotIters; ++i)
                acc = kn.dot(acc * 1e-9f, a.data(), b.data(), kDotN);
            sinks[t] = acc;
        });
        samples.push_back(2.0 * kDotN * kDotIters * threads / secs / 1e9);
    }
    p.dotGflops = summarize(samples).median;

    // stream: axpy over x and y whose sum exceeds the last-level cache
    // (each ~0.65 x LLC, capped at 192 MiB); 12 bytes per element.
    long llc = sysconf(_SC_LEVEL3_CACHE_SIZE);
    std::size_t perVec = std::clamp<std::size_t>(
        llc > 0 ? static_cast<std::size_t>(llc) * 2 / 3 : 0,
        std::size_t{64} << 20, std::size_t{192} << 20);
    std::size_t n = perVec / sizeof(float);
    {
        std::vector<float> x(n), y(n);
        std::size_t slice = (n + threads - 1) / threads;
        auto pass = [&](std::size_t t) {
            std::size_t b = std::min(n, t * slice);
            std::size_t e = std::min(n, b + slice);
            kn.axpy(1e-3f, x.data() + b, y.data() + b, e - b);
        };
        runTogether(threads, [&](std::size_t t) {
            std::size_t b = std::min(n, t * slice);
            std::size_t e = std::min(n, b + slice);
            std::fill(x.begin() + b, x.begin() + e, 1.0f);
            std::fill(y.begin() + b, y.begin() + e, 2.0f);
        });
        samples.clear();
        for (int r = 0; r < kReps; ++r)
            samples.push_back(12.0 * n / runTogether(threads, pass) / 1e9);
    }
    p.streamGbps = summarize(samples).median;

    // decodePackedRow: an intermediate-layer-sized 3-bit stream per
    // thread (3072 rows x 768), rated in packed bytes consumed.
    constexpr std::size_t kRows = 3072, kCols = 768, kPasses = 4;
    std::size_t rowBytes = kCols * kBits / 8;
    std::vector<std::vector<std::uint8_t>> streams(threads);
    for (std::size_t t = 0; t < threads; ++t) {
        Rng rng(t + 1);
        streams[t].resize(kRows * rowBytes);
        for (auto &byte : streams[t])
            byte = static_cast<std::uint8_t>(rng.integer(0, 255));
    }
    samples.clear();
    for (int r = 0; r < kReps; ++r) {
        double secs = runTogether(threads, [&](std::size_t t) {
            const auto &packed = streams[t];
            std::vector<std::uint8_t> out(kCols);
            for (std::size_t pass = 0; pass < kPasses; ++pass)
                for (std::size_t row = 0; row < kRows; ++row)
                    kn.decodePackedRow(packed.data(), packed.size(),
                                       row * kCols * kBits, kBits, kCols,
                                       out.data());
        });
        samples.push_back(static_cast<double>(kPasses * kRows * rowBytes
                                              * threads)
                          / secs / 1e9);
    }
    p.decodeGbps = summarize(samples).median;
    return p;
}

/** Per-kind sums of one trial's FC calls. */
struct FcSums
{
    std::array<double, kKinds> secs{}, bytes{}, flops{};
};

/** Per-trial samples of one kind. */
struct KindSamples
{
    std::vector<double> ms, gbps, gflops, roofline;
};

/**
 * Everything the traced run collects. FC layers are timed from
 * outside: every layer of both engines is called at the shapes the
 * workload's requests have (sequence length rows, 1 row for the
 * pooler) on the sessions' context.
 */
class Tracing
{
  public:
    Tracing(Engines &e, std::size_t threads)
        : eng(e), ctx(e.packed->context()),
          peaks(measurePeaks(resolveKernels(ctx.kernels), threads))
    {
        e.layers->forEachLayer([&](const QuantizedLinear &l) {
            qLayers.push_back(&l);
            fcLabels.insert(l.spanLabel());
        });
        const BertModel &m = e.fp32->model();
        for (const auto &enc : m.encoders) {
            const Tensor *w[] = {&enc.queryW, &enc.keyW, &enc.valueW,
                                 &enc.attnOutW, &enc.interW, &enc.outW};
            const Tensor *b[] = {&enc.queryB, &enc.keyB, &enc.valueB,
                                 &enc.attnOutB, &enc.interB, &enc.outB};
            for (int k = 0; k < 6; ++k)
                dLayers.push_back({w[k], b[k]});
        }
        dLayers.push_back({&m.poolerW, &m.poolerB});
        fatalIf(qLayers.size() != dLayers.size(), "FC layer count mismatch");
    }

    /**
     * Time every FC layer of both engines for one engine call over
     * sequences of `lens` tokens, into the current trial's sums. Like
     * the session's batched call, the sequences of one call run
     * concurrently on the pool (each forward nests its own parallel
     * loops), so a layer's time is what it costs inside that call.
     */
    void
    timeLayers(const std::vector<std::size_t> &lens)
    {
        std::vector<const Tensor *> xs(lens.size());
        for (std::size_t i = 0; i < qLayers.size(); ++i) {
            std::size_t kind =
                i + 1 == qLayers.size() ? kKinds - 1 : i % 6;
            const QuantizedLinear &q = *qLayers[i];
            double flops = 0.0;
            for (std::size_t s = 0; s < lens.size(); ++s) {
                xs[s] = kind == kKinds - 1 ? &input(1, false)
                                           : &input(lens[s], kind == 5);
                OpCounts ops = q.denseOpCounts(xs[s]->rows());
                flops += static_cast<double>(ops.additions
                                             + ops.multiplications);
            }
            auto timed = [&](const std::function<void(const Tensor &)> &fn) {
                auto t0 = Clock::now();
                ctx.parallelFor(xs.size(),
                                [&](std::size_t s) { fn(*xs[s]); });
                return since(t0);
            };
            auto n = static_cast<double>(lens.size());
            qSums.secs[kind] +=
                timed([&](const Tensor &x) { q.forward(ctx, x); });
            qSums.bytes[kind] += n * static_cast<double>(q.residentBytes());
            qSums.flops[kind] += flops;

            const auto &[w, b] = dLayers[i];
            dSums.secs[kind] +=
                timed([&](const Tensor &x) { linear(ctx, x, *w, *b); });
            dSums.bytes[kind] += n * static_cast<double>(w->size() * 4);
            dSums.flops[kind] += flops;
        }
        reqs += lens.size();
    }

    /** Close one trial: per-request kind times and rates, and the FC
     * share of the trial's traced requests. */
    void
    endTrial()
    {
        if (reqs == 0)
            return;
        close(qSums, q);
        close(dSums, d);
        qSums = {};
        dSums = {};
        reqs = 0;
        splitSpans();
    }

    /** Run `call`, which returns the seconds it measured, with the
     * program's observer attached to the packed session;
     * `untracedSecs` is the same call's untraced time. */
    void
    traced(double untracedSecs, std::size_t requests,
           const std::function<double()> &call)
    {
        ExecContext plain = eng.packed->context();
        ExecContext withObs = plain;
        withObs.obs = &obs;
        eng.packed->setContext(withObs);
        double secs = call();
        eng.packed->setContext(plain);
        overhead.push_back(secs / untracedSecs - 1.0);
        tracedRequests += requests;
    }

    /** Bracket an untraced packed call for pool/scratch deltas. */
    void
    beginPacked()
    {
        pool0 = ThreadPool::shared().telemetry();
        scratch0 = scratchStats();
    }

    void
    endPacked(std::size_t requests)
    {
        PoolTelemetry p = ThreadPool::shared().telemetry();
        ScratchStats s = scratchStats();
        steals += p.steals - pool0.steals;
        nested += p.nestedJobs - pool0.nestedJobs;
        inlineRuns += p.inlineRuns - pool0.inlineRuns;
        workerItems.resize(p.workerItems.size());
        for (std::size_t w = 0; w < p.workerItems.size(); ++w)
            workerItems[w] += p.workerItems[w]
                              - (w < pool0.workerItems.size()
                                     ? pool0.workerItems[w]
                                     : 0);
        hits += s.decodeRowHits - scratch0.decodeRowHits;
        misses += s.decodeRowMisses - scratch0.decodeRowMisses;
        packedRequests += requests;
    }

    void
    speedup(double serialSecs, double parallelSecs)
    {
        parallelSpeedup = serialSecs / parallelSecs;
    }

    void
    report(Report &r, const Engines &e) const
    {
        for (std::size_t k = 0; k < kKinds; ++k)
            addKind(r, "qexec." + std::string(kKindNames[k]), q[k]);
        for (std::size_t k = 0; k < kKinds; ++k)
            addKind(r, "ops.linear." + std::string(kKindNames[k]), d[k]);
        r.add("qexec.fc_share", "ratio", qShare);
        auto snap = obs.metrics.snapshot();
        auto perReq = [&](const char *name) {
            const auto *c = snap.findCounter(name);
            return c && tracedRequests
                       ? static_cast<double>(c->value)
                             / static_cast<double>(tracedRequests)
                       : 0.0;
        };
        r.value("qexec.bytes_streamed", "B/req",
                perReq("qexec.bytes_streamed"), tracedRequests);
        r.value("qexec.rows_decoded", "rows/req",
                perReq("qexec.rows_decoded"), tracedRequests);
        r.value("qexec.outlier_corrections", "count/req",
                perReq("qexec.outlier_corrections"), tracedRequests);
        r.add("encoder.other_ms", "ms", otherMs);
        r.value("kernels.dot_gflops", "GFLOP/s", peaks.dotGflops, 5);
        r.value("kernels.stream_gbps", "GB/s", peaks.streamGbps, 5);
        r.value("kernels.decode_row_gbps", "GB/s", peaks.decodeGbps, 5);
        auto per = [&](std::uint64_t v) {
            return packedRequests ? static_cast<double>(v)
                                        / static_cast<double>(packedRequests)
                                  : 0.0;
        };
        r.value("pool.steals", "count/req", per(steals), packedRequests);
        r.value("pool.nested_jobs", "count/req", per(nested),
                packedRequests);
        r.value("pool.inline_runs", "count/req", per(inlineRuns),
                packedRequests);
        std::vector<double> items(workerItems.begin(), workerItems.end());
        double m = mean(items);
        r.value("pool.worker_imbalance", "ratio",
                m > 0 ? *std::max_element(items.begin(), items.end()) / m
                      : 0.0,
                items.size());
        r.value("pool.parallel_speedup", "x", parallelSpeedup, 1);
        r.value("scratch.decode_hit_rate", "ratio",
                hits + misses ? static_cast<double>(hits)
                                    / static_cast<double>(hits + misses)
                              : 0.0,
                hits + misses);
        r.value("scratch.cache_mib", "MiB",
                toMiB(scratchStats().decodeCacheBytes), 1);
        r.value("load.s", "s", e.loadS, 1);
        r.value("quantize.s", "s", e.quantizeS, 1);
        r.add("obs.trace_overhead_frac", "ratio", overhead);
    }

  private:
    /**
     * Split the time of the requests traced since the last call into
     * FC and other work, from the program's spans: one request span per
     * sequence ("session.headLogits" for a single call, "sequence[i]"
     * in a batch) and the qexec span of every FC forward, which runs on
     * the request's thread inside its span. So other_ms (attention,
     * softmax, layernorm, GELU, embedding) cannot go below zero.
     */
    void
    splitSpans()
    {
        double reqUs = 0.0, fcUs = 0.0;
        std::size_t requests = 0;
        for (const auto &ev : obs.tracer.events()) {
            if (ev.tsUs < spansFromUs)
                continue;
            if (ev.name == "session.headLogits"
                || ev.name.rfind("sequence[", 0) == 0) {
                reqUs += ev.durUs;
                ++requests;
            } else if (fcLabels.count(ev.name)) {
                fcUs += ev.durUs;
            }
        }
        spansFromUs = obs.tracer.nowUs();
        if (requests == 0)
            return;
        qShare.push_back(fcUs / reqUs);
        otherMs.push_back((reqUs - fcUs) / 1e3
                          / static_cast<double>(requests));
    }

    const Tensor &
    input(std::size_t len, bool inner)
    {
        auto &slot = inner ? innerInputs : hiddenInputs;
        if (slot.size() <= len)
            slot.resize(len + 1);
        if (slot[len].size() == 0) {
            const ModelConfig &cfg = eng.fp32->config();
            Tensor x(len, inner ? cfg.intermediate : cfg.hidden);
            Rng rng(len * 2 + inner);
            rng.fillGaussian(x.data(), 0.0, 1.0);
            slot[len] = std::move(x);
        }
        return slot[len];
    }

    void
    close(const FcSums &s, std::array<KindSamples, kKinds> &out) const
    {
        for (std::size_t k = 0; k < kKinds; ++k) {
            double gbps = s.bytes[k] / s.secs[k] / 1e9;
            double gflops = s.flops[k] / s.secs[k] / 1e9;
            double roof = std::min(peaks.dotGflops,
                                   peaks.streamGbps * s.flops[k]
                                       / s.bytes[k]);
            out[k].ms.push_back(s.secs[k] * 1e3
                                / static_cast<double>(reqs));
            out[k].gbps.push_back(gbps);
            out[k].gflops.push_back(gflops);
            out[k].roofline.push_back(gflops / roof);
        }
    }

    static void
    addKind(Report &r, const std::string &prefix, const KindSamples &s)
    {
        r.add(prefix + ".ms", "ms", s.ms);
        r.add(prefix + ".gbps", "GB/s", s.gbps);
        r.add(prefix + ".gflops", "GFLOP/s", s.gflops);
        r.add(prefix + ".roofline_frac", "ratio", s.roofline);
    }

    Engines &eng;
    ExecContext ctx;
    Peaks peaks;
    std::vector<const QuantizedLinear *> qLayers;
    std::set<std::string> fcLabels;
    std::vector<std::pair<const Tensor *, const Tensor *>> dLayers;
    std::vector<Tensor> hiddenInputs, innerInputs;
    FcSums qSums, dSums;
    std::size_t reqs = 0;
    std::array<KindSamples, kKinds> q, d;
    std::vector<double> qShare, otherMs, overhead;
    Observer obs;
    double spansFromUs = 0.0;
    std::size_t tracedRequests = 0;
    PoolTelemetry pool0;
    ScratchStats scratch0;
    std::uint64_t steals = 0, nested = 0, inlineRuns = 0, hits = 0,
                  misses = 0;
    std::vector<std::uint64_t> workerItems;
    std::size_t packedRequests = 0;
    double parallelSpeedup = 0.0;
};

// ------------------------------------------------------------ workloads

struct RunArgs
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 10.0;
    bool trace = false;
};

/** Closed loop, one request in flight, lengths 1..16. */
void
runShort(Engines &e, const RunArgs &a, Measure &m, Tracing *tr)
{
    std::size_t vocab = e.fp32->config().vocabSize;
    Rng rng(subSeed(a.seed, 2));
    // Warm-up: the first forwards on fresh sessions run 2-3x slower.
    for (std::size_t len : {kShortMaxLen, std::size_t{1}, std::size_t{8}}) {
        auto t = randomTokens(rng, len, vocab);
        e.packed->headLogits(t);
        e.fp32->headLogits(t);
    }

    TokenBatch sample;
    std::vector<Tensor> samplePacked, sampleFp32;
    auto t0 = Clock::now();
    for (std::size_t trial = 0;
         trial < kMinTrials || since(t0) < a.seconds; ++trial) {
        std::vector<std::size_t> lens(kShortMaxLen);
        std::iota(lens.begin(), lens.end(), 1);
        rng.shuffle(lens);
        double pSecs = 0.0, fSecs = 0.0;
        std::size_t tokens = 0;
        for (std::size_t len : lens) {
            auto toks = randomTokens(rng, len, vocab);
            if (tr)
                tr->beginPacked();
            auto c0 = Clock::now();
            Tensor p = e.packed->headLogits(toks);
            double dp = since(c0);
            if (tr)
                tr->endPacked(1);
            c0 = Clock::now();
            Tensor f = e.fp32->headLogits(toks);
            double df = since(c0);
            m.packedCallMs.push_back(dp * 1e3);
            m.fp32CallMs.push_back(df * 1e3);
            pSecs += dp;
            fSecs += df;
            tokens += len;
            m.attempted += 2;
            checkPair(m, p, f, "short");
            if (trial == 0 && len % 4 == 0) {
                sample.push_back(toks);
                samplePacked.push_back(p);
                sampleFp32.push_back(f);
            }
            if (tr) {
                tr->timeLayers({len});
                tr->traced(dp, 1, [&] {
                    auto t0 = Clock::now();
                    e.packed->headLogits(toks);
                    return since(t0);
                });
            }
        }
        m.addTrial(static_cast<double>(tokens), pSecs, fSecs);
        if (tr)
            tr->endTrial();
    }

    // N-thread vs serial identity on the lengths 4, 8, 12, 16 of the
    // first block.
    double parallelSecs = 0.0;
    for (std::size_t i = 0; i < sample.size(); ++i) {
        auto c0 = Clock::now();
        e.packed->headLogits(sample[i]);
        parallelSecs += since(c0);
    }
    double serialSecs =
        serialReplay(*e.packed, sample, samplePacked, m, "short packed");
    serialReplay(*e.fp32, sample, sampleFp32, m, "short fp32");
    if (tr)
        tr->speedup(serialSecs, parallelSecs);
}

/** Offline batches of 8 x 128 tokens. */
void
runLong(Engines &e, const RunArgs &a, Measure &m, Tracing *tr)
{
    std::size_t vocab = e.fp32->config().vocabSize;
    Rng rng(subSeed(a.seed, 3));
    auto makeBatch = [&] {
        TokenBatch b;
        for (std::size_t s = 0; s < kLongBatch; ++s)
            b.push_back(randomTokens(rng, kLongLen, vocab));
        return b;
    };
    {
        TokenBatch warm = makeBatch();
        e.packed->headLogitsBatch(warm);
        e.fp32->headLogitsBatch(warm);
    }

    TokenBatch first;
    std::vector<Tensor> firstPacked, firstFp32;
    double tokens = static_cast<double>(kLongBatch * kLongLen);
    auto t0 = Clock::now();
    for (std::size_t trial = 0;
         trial < kMinTrials || since(t0) < a.seconds; ++trial) {
        TokenBatch batch = makeBatch();
        if (tr)
            tr->beginPacked();
        auto c0 = Clock::now();
        auto p = e.packed->headLogitsBatch(batch);
        double dp = since(c0);
        if (tr)
            tr->endPacked(kLongBatch);
        c0 = Clock::now();
        auto f = e.fp32->headLogitsBatch(batch);
        double df = since(c0);
        m.packedCallMs.push_back(dp * 1e3);
        m.fp32CallMs.push_back(df * 1e3);
        m.addTrial(tokens, dp, df);
        m.attempted += 2 * kLongBatch;
        if (p.size() != kLongBatch || f.size() != kLongBatch) {
            m.fail("long: batch returned the wrong number of logits");
            continue;
        }
        for (std::size_t s = 0; s < kLongBatch; ++s)
            checkPair(m, p[s], f[s], "long");
        if (trial == 0) {
            first = batch;
            firstPacked = p;
            firstFp32 = f;
        }
        if (tr) {
            tr->timeLayers(
                std::vector<std::size_t>(kLongBatch, kLongLen));
            tr->traced(dp, kLongBatch, [&] {
                auto t0 = Clock::now();
                e.packed->headLogitsBatch(batch);
                return since(t0);
            });
            tr->endTrial();
        }
    }

    // N-thread vs serial identity on one seeded sequence of the first
    // batch.
    if (first.empty())
        return;
    std::size_t pick = subSeed(a.seed, 4) % kLongBatch;
    TokenBatch one = {first[pick]};
    auto c0 = Clock::now();
    e.packed->headLogitsBatch(one);
    double parallelSecs = since(c0);
    double serialSecs = serialReplay(*e.packed, one, {firstPacked[pick]},
                                     m, "long packed");
    serialReplay(*e.fp32, one, {firstFp32[pick]}, m, "long fp32");
    if (tr)
        tr->speedup(serialSecs, parallelSecs);
}

/**
 * The serve trace's arrivals: a burst of kServeRequests within a few
 * milliseconds (rate 5000/s, x4 bursts), far beyond the virtual
 * service rate of 4000 tok/s, so the admission layer sheds at the
 * queue bound. Only the arrival times are used: assignLengths replaces
 * every request's tokens.
 */
TraceSpec
serveSpec(std::uint64_t seed, std::size_t trial)
{
    TraceSpec s;
    s.requests = kServeRequests;
    s.seed = subSeed(seed, 100 + trial);
    s.ratePerSec = 5000.0;
    s.burstFactor = 4.0;
    s.burstDuty = 0.25;
    s.burstPeriodUs = 2000;
    return s;
}

/**
 * Give the trace's requests stratified lengths in the two bands of
 * len=1:64,long=0.25 (lengths 1..32 three times as often as 33..64).
 * The trace arrives as one burst, so the first kServeAdmitted arrivals
 * are admitted and the rest are shed at the queue bound. The admitted
 * requests get 4, 4, 2 and 2 lengths from the 16-wide bands 1..16,
 * 17..32, 33..48 and 49..64 (one per equal-width stratum, seeded
 * order), so every trace forms the same tiles and carries nearly the
 * same tokens; seeds differ in arrival times, order, exact lengths and
 * token ids. Shed requests get the same mix scaled down.
 */
void
assignLengths(std::vector<TraceRequest> &trace, std::size_t vocab, Rng &rng)
{
    auto stratified = [&](std::array<std::size_t, 4> perBand) {
        std::vector<std::size_t> lens;
        for (std::size_t b = 0; b < perBand.size(); ++b)
            for (std::size_t i = 0; i < perBand[b]; ++i)
                lens.push_back(
                    1 + 16 * b
                    + static_cast<std::size_t>(
                        (static_cast<double>(i) + rng.uniform()) * 16.0
                        / static_cast<double>(perBand[b])));
        rng.shuffle(lens);
        return lens;
    };
    std::vector<std::size_t> admitted = stratified({4, 4, 2, 2});
    std::vector<std::size_t> shed = stratified({3, 3, 1, 1});
    for (std::size_t i = 0; i < trace.size(); ++i) {
        std::size_t len = i < admitted.size()
                              ? admitted[i]
                              : shed[(i - admitted.size()) % shed.size()];
        trace[i].tokens = randomTokens(rng, len, vocab);
    }
}

ServeOptions
serveOptions()
{
    ServeOptions o;
    o.maxQueue = kServeAdmitted;
    // No deadline shedding: which band flushes first varies with the
    // arrival order, so deadline drops would change the served work
    // from seed to seed.
    o.requestDeadlineUs = 0;
    o.recorderCapacity = 0;
    return o;
}

/** One trace through one engine's server; only runTrace is timed. */
struct ServePass
{
    ServeRun run;
    double wallSecs = 0.0;
};

ServePass
servePass(const InferenceSession &s, const std::vector<TraceRequest> &trace)
{
    ServeServer server(s, serveOptions());
    ServePass p;
    auto t0 = Clock::now();
    p.run = server.runTrace(trace);
    p.wallSecs = since(t0);
    return p;
}

void
checkServe(Measure &m, const std::vector<TraceRequest> &trace,
           const ServeRun &run, const char *engine)
{
    std::string where = std::string("serve ") + engine;
    if (run.responses.size() != trace.size()) {
        m.fail(where + ": response count differs from request count");
        return;
    }
    for (std::size_t i = 0; i < trace.size(); ++i) {
        const ServeResponse &r = run.responses[i];
        ++m.attempted;
        if (r.id != trace[i].id)
            m.fail(where + ": response " + std::to_string(i)
                   + " answers another request");
        else if (r.status == ServeStatus::Ok && !logitsOk(r.logits))
            m.fail(where + ": Ok response with bad logits");
        else if (r.status != ServeStatus::Ok && r.logits.size() != 0)
            m.fail(where + ": shed response carries logits");
        else if (r.status != ServeStatus::Ok)
            ++m.failed; // shed: counted as failed, not incorrect.
    }
}

void
runServe(Engines &e, const RunArgs &a, Measure &m, Tracing *tr)
{
    std::size_t vocab = e.fp32->config().vocabSize;
    Rng rng(subSeed(a.seed, 7));
    {
        // Warm-up on a small trace of its own.
        TraceSpec w = serveSpec(a.seed, 0);
        w.requests = 16;
        w.seed = subSeed(a.seed, 5);
        auto trace = generateTrace(w, vocab);
        assignLengths(trace, vocab, rng);
        servePass(*e.packed, trace);
        servePass(*e.fp32, trace);
    }

    auto t0 = Clock::now();
    for (std::size_t trial = 0;
         trial < kMinTrials || since(t0) < a.seconds; ++trial) {
        TraceSpec spec = serveSpec(a.seed, trial);
        auto trace = generateTrace(spec, vocab);
        assignLengths(trace, vocab, rng);
        if (tr)
            tr->beginPacked();
        ServePass p = servePass(*e.packed, trace);
        if (tr)
            tr->endPacked(p.run.summary.completed);
        ServePass f = servePass(*e.fp32, trace);
        checkServe(m, trace, p.run, "packed");
        checkServe(m, trace, f.run, "fp32");

        const ServeSummary &ps = p.run.summary, &fs = f.run.summary;
        if (ps.tokensServed != fs.tokensServed)
            m.fail("serve: engines served different tokens");
        for (std::size_t i = 0; i < trace.size()
                                && i < p.run.responses.size()
                                && i < f.run.responses.size();
             ++i)
            if (p.run.responses[i].status != f.run.responses[i].status)
                m.fail("serve: engines disagree on admitting request "
                       + std::to_string(i));
        m.addTrial(static_cast<double>(ps.tokensServed), p.wallSecs,
                   f.wallSecs);
        m.packedCallMs.push_back(p.wallSecs * 1e3);
        m.fp32CallMs.push_back(f.wallSecs * 1e3);
        ++m.traces;
        m.shedOverload += ps.shedOverload;
        m.shedDeadline += ps.shedDeadline;
        m.batches += ps.batches;
        m.lanesFilled += ps.lanesFilled;
        m.lanesTotal += ps.lanesTotal;
        m.execP50Ms.push_back(ps.execP50Us / 1e3);
        m.execP99Ms.push_back(ps.execP99Us / 1e3);

        TokenBatch replay;
        std::vector<Tensor> replayPacked, replayFp32;
        std::vector<std::size_t> okIdx;
        for (std::size_t i = 0; i < trace.size(); ++i) {
            const ServeResponse &pr = p.run.responses[i];
            if (pr.status != ServeStatus::Ok)
                continue;
            m.vlatMs.push_back(static_cast<double>(pr.latencyUs) / 1e3);
            m.queueWaitMs.push_back(static_cast<double>(pr.queueWaitUs)
                                    / 1e3);
            if (i < f.run.responses.size()
                && f.run.responses[i].status == ServeStatus::Ok)
                checkPair(m, pr.logits, f.run.responses[i].logits,
                          "serve");
            okIdx.push_back(i);
        }
        if (trial == 0 && !okIdx.empty()) {
            Rng pick(subSeed(a.seed, 6));
            for (std::size_t s = 0; s < kReplaySamples; ++s) {
                std::size_t i = okIdx[static_cast<std::size_t>(pick.integer(
                    0, static_cast<std::int64_t>(okIdx.size()) - 1))];
                replay.push_back(trace[i].tokens);
                replayPacked.push_back(p.run.responses[i].logits);
                replayFp32.push_back(f.run.responses[i].logits);
            }
            auto c0 = Clock::now();
            for (const auto &t : replay)
                e.packed->headLogits(t);
            double parallelSecs = since(c0);
            double serialSecs = serialReplay(*e.packed, replay,
                                             replayPacked, m,
                                             "serve packed");
            serialReplay(*e.fp32, replay, replayFp32, m, "serve fp32");
            if (tr)
                tr->speedup(serialSecs, parallelSecs);
        }
        if (tr) {
            // Admitted requests of one length band share one tile.
            std::size_t bandWidth = serveOptions().bandWidth;
            std::map<std::size_t, std::vector<std::size_t>> tiles;
            for (std::size_t i : okIdx)
                tiles[(trace[i].tokens.size() - 1) / bandWidth].push_back(
                    trace[i].tokens.size());
            for (const auto &[band, lens] : tiles)
                tr->timeLayers(lens);
            // The same pass as the untraced one, with the observer
            // added on the session: both sides differ only in tracing.
            tr->traced(p.wallSecs, okIdx.size(), [&] {
                return servePass(*e.packed, trace).wallSecs;
            });
            tr->endTrial();
        }
    }
}

// ----------------------------------------------------------------- main

void
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s --workload short|long|serve --seed N "
                 "--seconds S --trace 0|1 --model PATH [--report PATH]\n",
                 argv0);
    std::exit(2);
}

std::string
stampJson(const RunArgs &a, std::size_t threads, const KernelSet &kn)
{
    ModelConfig cfg = fullConfig(kFamily);
    std::ostringstream os;
    os << "{\"kernel_tier\": \"" << kn.name << "\", \"seq_tile\": "
       << kn.seqTile << ", \"threads\": " << threads << ", \"nproc\": "
       << std::thread::hardware_concurrency()
       << ", \"decode_cache_kb\": " << decodeCacheBudgetBytes() / 1024
       << ", \"model\": \"" << cfg.name << " full hidden=" << cfg.hidden
       << " layers=" << cfg.numLayers << " inter=" << cfg.intermediate
       << " vocab=" << cfg.vocabSize << " seed=" << kModelSeed
       << " bits=" << kBits << " packed\", \"workload\": \"" << a.workload
       << "\", \"seed\": " << a.seed << ", \"seconds\": " << num(a.seconds)
       << ", \"trace\": " << (a.trace ? 1 : 0) << "}";
    return os.str();
}

double
agreement(const Measure &m)
{
    return m.compared ? static_cast<double>(m.agreed)
                            / static_cast<double>(m.compared)
                      : 0.0;
}

/** The request-level view of one workload, with sample counts. */
void
printSummary(const RunArgs &a, const Measure &m)
{
    auto tail = [](const char *name, const std::vector<double> &v) {
        double p = tailRank(v.size());
        if (p == 0.0)
            std::printf("  %-16s n/a (n=%zu: no percentile has ten "
                        "samples beyond it)\n",
                        name, v.size());
        else
            std::printf("  %-16s p%.0f = %.4f ms (n=%zu)\n", name, p,
                        percentile(v, p), v.size());
    };
    std::printf("\nrequest-level view (%s; a call is %s)\n",
                a.workload.c_str(),
                a.workload == "short"  ? "one request"
                : a.workload == "long" ? "one batch"
                                       : "one trace through runTrace");
    tail("packed tail", m.packedCallMs);
    tail("fp32 tail", m.fp32CallMs);
    std::printf("  fail_frac        %.4f (%llu of %llu engine requests "
                "failed or were shed)\n",
                m.attempted ? static_cast<double>(m.failed)
                                  / static_cast<double>(m.attempted)
                            : 0.0,
                static_cast<unsigned long long>(m.failed),
                static_cast<unsigned long long>(m.attempted));
    std::printf("  argmax_agree     %.4f (n=%zu requests, packed vs fp32 "
                "on the same tokens)\n",
                agreement(m), static_cast<std::size_t>(m.compared));
    if (!m.vlatMs.empty()) {
        // Virtual times are deterministic per trace; exec times are the
        // server's own wall-clock histogram, one value per trace.
        std::printf("  vlat_p50_ms      %.4f (n=%zu, virtual time)\n",
                    percentile(m.vlatMs, 50), m.vlatMs.size());
        tail("vlat tail", m.vlatMs);
        std::printf("  queue_wait_p50   %.4f ms (n=%zu, virtual time)\n",
                    percentile(m.queueWaitMs, 50), m.queueWaitMs.size());
        tail("queue_wait tail", m.queueWaitMs);
        std::printf("  exec_p50_ms      %.4f, exec_p99_ms %.4f (medians "
                    "over %zu traces of the server's histogram)\n",
                    summarize(m.execP50Ms).median,
                    summarize(m.execP99Ms).median, m.execP50Ms.size());
        std::printf("  sheds            overload=%llu deadline=%llu over "
                    "%llu traces (deterministic per trace)\n",
                    static_cast<unsigned long long>(m.shedOverload),
                    static_cast<unsigned long long>(m.shedDeadline),
                    static_cast<unsigned long long>(m.traces));
    }
    if (a.trace)
        std::printf("  bytes: packed = QuantizedLinear::residentBytes() per "
                    "forward, fp32 = rows x cols x 4 (computed from tensor "
                    "sizes, not measured)\n");
}

int
run(int argc, char **argv)
{
    RunArgs a;
    std::string model, reportPath;
    bool haveWorkload = false, haveSeed = false;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (i + 1 >= argc)
            usage(argv[0]);
        const char *v = argv[++i];
        if (arg == "--workload") {
            a.workload = v;
            haveWorkload = true;
        } else if (arg == "--seed") {
            auto s = parseUint64Spec(v);
            if (!s)
                usage(argv[0]);
            a.seed = *s;
            haveSeed = true;
        } else if (arg == "--seconds") {
            auto s = parseUint64Spec(v);
            if (!s || *s == 0 || *s > 3600)
                usage(argv[0]);
            a.seconds = static_cast<double>(*s);
        } else if (arg == "--trace") {
            if (std::strcmp(v, "0") && std::strcmp(v, "1"))
                usage(argv[0]);
            a.trace = v[0] == '1';
        } else if (arg == "--model") {
            model = v;
        } else if (arg == "--report") {
            reportPath = v;
        } else {
            usage(argv[0]);
        }
    }
    if (!haveWorkload || !haveSeed || model.empty()
        || (a.workload != "short" && a.workload != "long"
            && a.workload != "serve"))
        usage(argv[0]);

    std::size_t threads = std::clamp<std::size_t>(
        std::thread::hardware_concurrency(), 1, kMaxThreads);
    const KernelSet &kn = activeKernels();
    std::string stamp = stampJson(a, threads, kn);
    std::printf("stamp %s\n", stamp.c_str());

    ensureModel(model);

    // Set-up, repeated; the last one serves the workload.
    std::vector<double> setupS;
    std::unique_ptr<Engines> e;
    std::size_t reps = a.trace ? 1 : kSetupReps;
    for (std::size_t r = 0; r < reps; ++r) {
        e.reset();
        e = setUp(model, threads, a.trace);
        setupS.push_back(e->setupS);
        std::printf("setup %zu: load %.3f s, quantize %.3f s, total %.3f s\n",
                    r, e->loadS, e->quantizeS, e->setupS);
    }

    std::unique_ptr<Tracing> tr;
    if (a.trace)
        tr = std::make_unique<Tracing>(*e, threads);

    Measure m;
    auto tw = Clock::now();
    CpuTimes cpu0 = cpuTimes();
    if (a.workload == "short")
        runShort(*e, a, m, tr.get());
    else if (a.workload == "long")
        runLong(*e, a, m, tr.get());
    else
        runServe(*e, a, m, tr.get());
    double steal = stealFrac(cpu0);
    std::printf("phases: set-up %.1f s (x%zu), workload %.1f s (warm-up, "
                "trials, checks); host steal %.1f%% of CPU time\n",
                std::accumulate(setupS.begin(), setupS.end(), 0.0), reps,
                since(tw), steal * 100.0);

    Report r;
    if (!a.trace) {
        r.add("setup_s", "s", setupS);
        r.add("packed_tok_s", "tok/s", m.packedTokS);
        r.add("fp32_tok_s", "tok/s", m.fp32TokS);
        r.add("packed_p50_ms", "ms", m.packedCallMs);
        r.add("fp32_p50_ms", "ms", m.fp32CallMs);
        r.value("packed_resident_mib", "MiB",
                toMiB(e->packed->residentWeightBytes()
                      + decodeCacheResidentBytes(threads)),
                1);
        r.value("peak_rss_mib", "MiB", peakRssMiB(), 1);
        r.print("end-to-end metrics (median, quartiles, sample count)");
    } else {
        double occupancy =
            m.lanesTotal ? static_cast<double>(m.lanesFilled)
                               / static_cast<double>(m.lanesTotal)
                         : 0.0;
        auto perTrace = [&](std::uint64_t v) {
            return m.traces ? static_cast<double>(v)
                                  / static_cast<double>(m.traces)
                            : 0.0;
        };
        // The serve layer is only on the serve workload's path; its
        // metrics read 0 on short and long.
        r.value("serve.tile_occupancy", "ratio", occupancy, m.batches);
        r.value("serve.batches", "count/trace", perTrace(m.batches),
                m.traces);
        r.value("serve.shed_overload", "count/trace",
                perTrace(m.shedOverload), m.traces);
        r.value("serve.shed_deadline", "count/trace",
                perTrace(m.shedDeadline), m.traces);
        r.value("quantize.argmax_agree", "ratio", agreement(m),
                m.compared);
        tr->report(r, *e);
        r.print("per-layer metrics (median, quartiles, sample count)");
    }
    printSummary(a, m);

    if (!reportPath.empty()) {
        std::ofstream out(reportPath);
        out << "{\n  \"stamp\": " << stamp << ",\n  \"host_steal_frac\": "
            << num(steal) << ",\n  \"correct\": "
            << (m.correct ? "true" : "false") << ",\n  \"attempted\": "
            << m.attempted << ",\n  \"failed\": " << m.failed
            << ",\n  \"metrics\": " << r.detailJson() << "\n}\n";
    }
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": %s}\n",
                m.correct ? "true" : "false",
                static_cast<unsigned long long>(m.attempted),
                static_cast<unsigned long long>(m.failed), r.json().c_str());
    std::fflush(stdout);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return run(argc, argv);
    } catch (const std::exception &ex) {
        std::fprintf(stderr, "perfbench: %s\n", ex.what());
        return 1;
    }
}
