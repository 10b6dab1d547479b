/**
 * @file
 * Tests for the observability subsystem: metrics registry (sharded
 * counters/histograms, percentile extraction), tracer (span capture,
 * Chrome trace export), exporters, pool telemetry, and the two
 * contracts instrumentation must keep — null observers cost nothing
 * observable, and observed runs stay bit-identical across backends.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include "core/qexec.hh"
#include "exec/session.hh"
#include "jsonlint.hh"
#include "model/generate.hh"
#include "obs/export.hh"
#include "obs/observer.hh"
#include "util/logging.hh"
#include "util/rng.hh"

namespace gobo {
namespace {

TEST(Metrics, CountersAccumulateAndSnapshot)
{
    MetricsRegistry reg;
    CounterId a = reg.counter("a");
    CounterId b = reg.counter("b");
    reg.add(a, 3);
    reg.add(a);
    reg.add(b, 10);

    auto snap = reg.snapshot();
    ASSERT_NE(snap.findCounter("a"), nullptr);
    EXPECT_EQ(snap.findCounter("a")->value, 4u);
    EXPECT_EQ(snap.findCounter("b")->value, 10u);
    EXPECT_EQ(snap.findCounter("missing"), nullptr);
}

TEST(Metrics, CounterInterningIsIdempotent)
{
    MetricsRegistry reg;
    CounterId a1 = reg.counter("same");
    CounterId a2 = reg.counter("same");
    EXPECT_EQ(a1.index, a2.index);
    reg.add(a1);
    reg.add(a2);
    EXPECT_EQ(reg.snapshot().findCounter("same")->value, 2u);
}

TEST(Metrics, InvalidIdsAreIgnored)
{
    MetricsRegistry reg;
    reg.add(CounterId{});         // default id: no-op, no crash
    reg.observe(HistogramId{}, 1.0);
    EXPECT_TRUE(reg.snapshot().counters.empty());
}

TEST(Metrics, CountersMergeAcrossThreads)
{
    MetricsRegistry reg;
    CounterId c = reg.counter("threaded");
    constexpr int threads = 8, per_thread = 10000;
    std::vector<std::thread> pool;
    for (int t = 0; t < threads; ++t)
        pool.emplace_back([&] {
            for (int i = 0; i < per_thread; ++i)
                reg.add(c);
        });
    for (auto &th : pool)
        th.join();
    EXPECT_EQ(reg.snapshot().findCounter("threaded")->value,
              static_cast<std::uint64_t>(threads) * per_thread);
}

TEST(Metrics, CountsSurviveThreadExit)
{
    MetricsRegistry reg;
    CounterId c = reg.counter("ephemeral");
    std::thread([&] { reg.add(c, 7); }).join();
    EXPECT_EQ(reg.snapshot().findCounter("ephemeral")->value, 7u);
}

TEST(Metrics, HistogramBucketsAndQuantiles)
{
    MetricsRegistry reg;
    HistogramId h = reg.histogram("lat", {1.0, 2.0, 4.0, 8.0});
    // 100 observations spread uniformly over (0, 2]: 50 land in
    // (…,1], 50 in (1,2].
    for (int i = 1; i <= 100; ++i)
        reg.observe(h, i * 0.02);
    auto snap = reg.snapshot();
    const HistogramSnapshot *hist = snap.findHistogram("lat");
    ASSERT_NE(hist, nullptr);
    EXPECT_EQ(hist->count, 100u);
    EXPECT_EQ(hist->counts[0], 50u);
    EXPECT_EQ(hist->counts[1], 50u);
    EXPECT_NEAR(hist->mean(), 1.01, 1e-9);
    // p50 sits at the edge of the first bucket, p99 inside the second.
    EXPECT_NEAR(hist->quantile(0.5), 1.0, 0.05);
    EXPECT_GT(hist->quantile(0.99), 1.8);
    EXPECT_LE(hist->quantile(0.99), 2.0);
    EXPECT_EQ(hist->quantile(0.0), 0.0);
}

TEST(Metrics, HistogramOverflowClampsToLastBound)
{
    MetricsRegistry reg;
    HistogramId h = reg.histogram("of", {1.0, 10.0});
    reg.observe(h, 1e9);
    auto snap = reg.snapshot();
    const HistogramSnapshot *hist = snap.findHistogram("of");
    EXPECT_EQ(hist->counts[2], 1u); // overflow bucket
    EXPECT_EQ(hist->quantile(0.5), 10.0);
}

TEST(Metrics, OverflowCountAndLowerBoundFlag)
{
    MetricsRegistry reg;
    HistogramId h = reg.histogram("of2", {1.0, 10.0});
    for (int i = 0; i < 97; ++i)
        reg.observe(h, 0.5);
    for (int i = 0; i < 3; ++i)
        reg.observe(h, 1e6); // 3% overflow: past the 1% threshold
    auto snap = reg.snapshot();
    const HistogramSnapshot *hist = snap.findHistogram("of2");
    ASSERT_NE(hist, nullptr);
    EXPECT_EQ(hist->overflow(), 3u);
    EXPECT_NEAR(hist->overflowFraction(), 0.03, 1e-12);
    EXPECT_TRUE(hist->quantilesAreLowerBounds());
}

TEST(Metrics, RareOverflowDoesNotMarkLowerBounds)
{
    MetricsRegistry reg;
    HistogramId h = reg.histogram("rare", {1.0, 10.0});
    for (int i = 0; i < 999; ++i)
        reg.observe(h, 0.5);
    reg.observe(h, 1e6); // 0.1% overflow: under the threshold
    auto snap = reg.snapshot();
    const HistogramSnapshot *hist = snap.findHistogram("rare");
    EXPECT_EQ(hist->overflow(), 1u);
    EXPECT_FALSE(hist->quantilesAreLowerBounds());
}

TEST(Metrics, EmptyHistogramOverflowIsZero)
{
    MetricsRegistry reg;
    reg.histogram("nothing", {1.0});
    auto snap = reg.snapshot();
    const HistogramSnapshot *hist = snap.findHistogram("nothing");
    EXPECT_EQ(hist->overflow(), 0u);
    EXPECT_DOUBLE_EQ(hist->overflowFraction(), 0.0);
    EXPECT_FALSE(hist->quantilesAreLowerBounds());
}

TEST(Export, OverflowSurfacesInBothExporters)
{
    MetricsRegistry reg;
    HistogramId h = reg.histogram("sat_us", {1.0, 2.0});
    reg.observe(h, 0.5);
    reg.observe(h, 1e9); // 50% overflow
    auto snap = reg.snapshot();

    std::ostringstream table;
    printMetrics(snap, table);
    EXPECT_NE(table.str().find("Overflow"), std::string::npos);
    // Quantiles are clamped, so the console marks them as ">=" bounds.
    EXPECT_NE(table.str().find(">="), std::string::npos);

    std::ostringstream json;
    writeMetricsJson(snap, json);
    EXPECT_NE(json.str().find("\"overflow\": 1"), std::string::npos);
    EXPECT_NE(json.str().find("\"quantiles_lower_bound\": true"),
              std::string::npos);
}

TEST(Export, UnsaturatedHistogramIsNotMarked)
{
    MetricsRegistry reg;
    HistogramId h = reg.histogram("ok_us", {1.0, 2.0});
    for (int i = 0; i < 200; ++i)
        reg.observe(h, 0.5);
    auto snap = reg.snapshot();
    std::ostringstream table;
    printMetrics(snap, table);
    EXPECT_EQ(table.str().find(">="), std::string::npos);
    std::ostringstream json;
    writeMetricsJson(snap, json);
    EXPECT_NE(json.str().find("\"quantiles_lower_bound\": false"),
              std::string::npos);
}

TEST(Metrics, EmptyHistogramQuantileIsNaN)
{
    // An empty histogram has no defined quantile: NaN by contract, so
    // an all-shed serve run can never masquerade as 0-latency. The
    // JSON exporter must render that as null (never the invalid token
    // "nan"); the console table skips empty histograms entirely.
    MetricsRegistry reg;
    reg.histogram("never", {1.0});
    auto snap = reg.snapshot();
    EXPECT_TRUE(std::isnan(snap.findHistogram("never")->quantile(0.99)));
    EXPECT_TRUE(std::isnan(snap.findHistogram("never")->quantile(0.0)));
    EXPECT_EQ(snap.findHistogram("never")->mean(), 0.0);
    std::ostringstream json;
    writeMetricsJson(snap, json);
    EXPECT_EQ(json.str().find("nan"), std::string::npos);
    EXPECT_NE(json.str().find("\"p99\": null"), std::string::npos);
}

TEST(Metrics, RejectsBadBounds)
{
    MetricsRegistry reg;
    EXPECT_THROW(reg.histogram("h", {}), FatalError);
    EXPECT_THROW(reg.histogram("h", {2.0, 1.0}), FatalError);
    EXPECT_THROW(reg.histogram("h", {1.0, 1.0}), FatalError);
}

TEST(Metrics, LatencyBoundsAreAscending)
{
    auto bounds = latencyBoundsUs();
    ASSERT_FALSE(bounds.empty());
    EXPECT_DOUBLE_EQ(bounds.front(), 1.0);
    for (std::size_t i = 1; i < bounds.size(); ++i)
        EXPECT_GT(bounds[i], bounds[i - 1]);
    EXPECT_NEAR(bounds.back(), 1e7, 1.0); // 10 s in microseconds
}

TEST(Tracer, RecordsAndSortsSpans)
{
    Tracer tracer;
    tracer.record("b", 10.0, 5.0);
    tracer.record("a", 1.0, 2.0);
    auto events = tracer.events();
    ASSERT_EQ(events.size(), 2u);
    EXPECT_EQ(events[0].name, "a");
    EXPECT_EQ(events[1].name, "b");
    EXPECT_EQ(tracer.droppedEvents(), 0u);
}

TEST(Tracer, ThreadsGetDistinctTracks)
{
    Tracer tracer;
    tracer.record("main", 0.0, 1.0);
    std::thread([&] { tracer.record("worker", 0.5, 1.0); }).join();
    auto events = tracer.events();
    ASSERT_EQ(events.size(), 2u);
    EXPECT_NE(events[0].tid, events[1].tid);
}

TEST(ScopedSpanTest, RecordsDurationAndNesting)
{
    Observer obs;
    {
        ScopedSpan outer(&obs, "outer");
        ScopedSpan inner(&obs, "inner", 3);
    }
    auto events = obs.tracer.events();
    ASSERT_EQ(events.size(), 2u);
    // Inner closes first but starts later; sort is by start time.
    EXPECT_EQ(events[0].name, "outer");
    EXPECT_EQ(events[1].name, "inner[3]");
    EXPECT_GE(events[1].tsUs, events[0].tsUs);
    EXPECT_LE(events[1].tsUs + events[1].durUs,
              events[0].tsUs + events[0].durUs + 1.0);
}

TEST(ScopedSpanTest, NullObserverRecordsNothing)
{
    // The null path must be safe and free of side effects.
    ScopedSpan span(nullptr, "ghost");
    ScopedSpan indexed(nullptr, "ghost", 7);
    Observer::count(nullptr, CounterId{}, 5);
    SUCCEED();
}

TEST(Export, ChromeTraceIsWellFormedJson)
{
    Observer obs;
    {
        ScopedSpan span(&obs, "layer", 0);
        ScopedSpan nested(&obs, "attention");
    }
    std::ostringstream os;
    writeChromeTrace(obs.tracer, os);
    std::string json = os.str();
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"layer[0]\""), std::string::npos);
    EXPECT_NE(json.find("\"attention\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
    // Crude structural check: balanced braces/brackets.
    int braces = 0, brackets = 0;
    for (char c : json) {
        braces += c == '{' ? 1 : c == '}' ? -1 : 0;
        brackets += c == '[' ? 1 : c == ']' ? -1 : 0;
    }
    EXPECT_EQ(braces, 0);
    EXPECT_EQ(brackets, 0);
}

TEST(Export, HostileNamesStillProduceValidJson)
{
    // Metric names are ASCII in practice, but the exporters promise
    // valid JSON for *any* bytes: control characters, quotes,
    // backslashes, and non-ASCII UTF-8 must all escape rather than
    // corrupt the document.
    MetricsRegistry reg;
    reg.add(reg.counter("ctl\x01|quote\"|back\\|nl\n|tab\t|caf\xc3\xa9"),
            7);
    auto snap = reg.snapshot();
    std::ostringstream json;
    writeMetricsJson(snap, json);
    const std::string doc = json.str();
    EXPECT_TRUE(jsonValid(doc)) << doc;
    EXPECT_NE(doc.find("\\u0001"), std::string::npos);
    EXPECT_NE(doc.find("\\\""), std::string::npos);
    EXPECT_NE(doc.find("\\\\"), std::string::npos);
    EXPECT_NE(doc.find("\\n"), std::string::npos);
    EXPECT_NE(doc.find("\\t"), std::string::npos);
    // The two bytes of U+00E9 escape per byte: lossless, never
    // malformed even if the input was not valid UTF-8.
    EXPECT_NE(doc.find("\\u00c3"), std::string::npos);
    EXPECT_NE(doc.find("\\u00a9"), std::string::npos);

    // Same contract through the trace exporter's span names.
    Observer obs;
    { ScopedSpan span(&obs, "bad\x02name\"\\\xc3\xa9"); }
    std::ostringstream trace;
    writeChromeTrace(obs.tracer, trace);
    EXPECT_TRUE(jsonValid(trace.str())) << trace.str();
    EXPECT_NE(trace.str().find("\\u0002"), std::string::npos);
}

TEST(Export, ChromeTraceMetadataNamesTracks)
{
    Observer obs; // ctor names the constructing thread's track "main"
    { ScopedSpan span(&obs, "on-main"); }
    std::thread([&] { obs.tracer.record("on-worker", 0.0, 1.0); })
        .join();

    std::ostringstream os;
    writeChromeTrace(obs.tracer, os);
    const std::string doc = os.str();
    EXPECT_TRUE(jsonValid(doc)) << doc;
    EXPECT_NE(doc.find("{\"name\": \"process_name\", \"ph\": \"M\", "
                       "\"pid\": 1, \"args\": {\"name\": \"gobo\"}}"),
              std::string::npos);
    EXPECT_NE(doc.find("{\"name\": \"thread_name\", \"ph\": \"M\", "
                       "\"pid\": 1, \"tid\": 0, "
                       "\"args\": {\"name\": \"main\"}}"),
              std::string::npos);
    // Unnamed tracks (pool workers never call nameThread) default.
    EXPECT_NE(doc.find("\"args\": {\"name\": \"worker-1\"}"),
              std::string::npos);
}

TEST(Export, SpanArgsRenderIntoChromeTrace)
{
    Observer obs;
    {
        ScopedSpan span(&obs, "serve.admit");
        span.arg("request", 17);
        span.arg("batch", 3);
    }
    {
        ScopedSpan plain(&obs, "unannotated");
    }
    std::ostringstream os;
    writeChromeTrace(obs.tracer, os);
    const std::string doc = os.str();
    EXPECT_TRUE(jsonValid(doc)) << doc;
    EXPECT_NE(doc.find("\"args\": {\"request\": 17, \"batch\": 3}"),
              std::string::npos);
    // Unannotated spans carry no args object at all: from the span
    // name to the end of its event object, "args" never appears.
    std::size_t at = doc.find("\"unannotated\"");
    ASSERT_NE(at, std::string::npos);
    std::string event = doc.substr(at, doc.find('}', at) - at);
    EXPECT_EQ(event.find("args"), std::string::npos) << event;
}

TEST(Export, TraceCountersSurfaceDroppedEvents)
{
    Observer obs;
    { ScopedSpan span(&obs, "kept"); }
    MetricsSnapshot snap = obs.metrics.snapshot();
    appendTraceCounters(snap, obs.tracer);
    ASSERT_NE(snap.findCounter("trace.dropped_events"), nullptr);
    EXPECT_EQ(snap.findCounter("trace.dropped_events")->value, 0u);
}

TEST(Export, MetricsConsoleAndJson)
{
    Observer obs;
    obs.metrics.add(obs.qexecForwards, 12);
    obs.metrics.observe(obs.sequenceLatencyUs, 100.0);
    auto snap = obs.metrics.snapshot();

    std::ostringstream table;
    printMetrics(snap, table);
    EXPECT_NE(table.str().find("qexec.forwards"), std::string::npos);
    EXPECT_NE(table.str().find("session.sequence_latency_us"),
              std::string::npos);

    std::ostringstream json;
    writeMetricsJson(snap, json);
    EXPECT_NE(json.str().find("\"qexec.forwards\": 12"),
              std::string::npos);
    EXPECT_NE(json.str().find("\"p99\""), std::string::npos);
}

TEST(Export, SummarizeSpansAggregatesByName)
{
    Tracer tracer;
    tracer.record("layer[0]", 0.0, 10.0);
    tracer.record("layer[0]", 20.0, 30.0);
    tracer.record("layer[1]", 50.0, 5.0);
    auto summary = summarizeSpans(tracer);
    ASSERT_EQ(summary.size(), 2u);
    EXPECT_EQ(summary[0].name, "layer[0]"); // largest total first
    EXPECT_EQ(summary[0].count, 2u);
    EXPECT_DOUBLE_EQ(summary[0].totalUs, 40.0);
    EXPECT_DOUBLE_EQ(summary[0].meanUs, 20.0);
    EXPECT_EQ(summary[1].count, 1u);
}

TEST(Export, PoolTelemetryFoldsIntoCounters)
{
    ThreadPool pool(2);
    std::atomic<int> hits{0};
    pool.run(64, [&](std::size_t) { ++hits; });
    EXPECT_EQ(hits.load(), 64);

    PoolTelemetry t = pool.telemetry();
    EXPECT_EQ(t.jobs, 1u);
    EXPECT_EQ(t.itemsDrained, 64u);
    EXPECT_EQ(t.workerItems.size(), 2u);

    MetricsSnapshot snap;
    appendPoolCounters(snap, t);
    ASSERT_NE(snap.findCounter("pool.jobs"), nullptr);
    EXPECT_EQ(snap.findCounter("pool.jobs")->value, 1u);
    EXPECT_EQ(snap.findCounter("pool.items_drained")->value, 64u);
    EXPECT_NE(snap.findCounter("pool.worker[0].items"), nullptr);
    EXPECT_NE(snap.findCounter("pool.worker[1].items"), nullptr);
}

TEST(PoolTelemetryTest, InlineRunsAreCounted)
{
    ThreadPool pool(2);
    pool.run(1, [](std::size_t) {}); // count <= 1 runs inline
    PoolTelemetry t = pool.telemetry();
    EXPECT_EQ(t.jobs, 0u);
    EXPECT_EQ(t.inlineRuns, 1u);
}

/** Shared fixture: a mini model + batch for end-to-end contracts. */
class ObservedInference : public ::testing::Test
{
  protected:
    ObservedInference()
        : model(generateModel(miniConfig(ModelFamily::BertBase), 11))
    {
        // generateModel leaves the task head zeroed; fill it so the
        // logit-level identity checks compare real values.
        model.resizeHead(3);
        Rng rng(23);
        rng.fillGaussian(model.headW.data(), 0.0, 0.5);
        rng.fillGaussian(model.headB.data(), 0.0, 0.5);
        for (int s = 0; s < 4; ++s) {
            std::vector<std::int32_t> seq;
            for (int t = 0; t < 12; ++t)
                seq.push_back(static_cast<std::int32_t>(rng.integer(
                    0,
                    static_cast<int>(model.config().vocabSize) - 1)));
            batch.push_back(std::move(seq));
        }
    }

    static void
    expectIdentical(const std::vector<Tensor> &a,
                    const std::vector<Tensor> &b)
    {
        ASSERT_EQ(a.size(), b.size());
        for (std::size_t i = 0; i < a.size(); ++i) {
            ASSERT_EQ(a[i].size(), b[i].size());
            for (std::size_t j = 0; j < a[i].size(); ++j)
                EXPECT_EQ(a[i](j), b[i](j))
                    << "logit mismatch at [" << i << "][" << j << "]";
        }
    }

    BertModel model;
    TokenBatch batch;
};

TEST_F(ObservedInference, Fp32BitIdenticalWithObserverOn)
{
    // Baseline: no observer, serial.
    InferenceSession plain(model, ExecContext::serial());
    auto expected = plain.headLogitsBatch(batch);

    // Observed serial and observed parallel must match exactly.
    Observer obs;
    ExecContext serial = ExecContext::serial();
    serial.obs = &obs;
    InferenceSession observed_serial(model, serial);
    expectIdentical(expected, observed_serial.headLogitsBatch(batch));

    ExecContext parallel = ExecContext::parallel(4);
    parallel.obs = &obs;
    InferenceSession observed_parallel(model, parallel);
    expectIdentical(expected,
                    observed_parallel.headLogitsBatch(batch));
}

TEST_F(ObservedInference, QuantizedBitIdenticalWithObserverOn)
{
    ModelQuantOptions qopt;
    qopt.base.bits = 3;
    InferenceSession plain(QuantizedBertModel(model, qopt),
                           ExecContext::serial());
    auto expected = plain.headLogitsBatch(batch);

    // Observed serial and observed parallel agree with the unobserved
    // serial run bit for bit.
    Observer obs;
    ExecContext serial = ExecContext::serial();
    serial.obs = &obs;
    ExecContext parallel = ExecContext::parallel(4);
    parallel.obs = &obs;
    parallel.grainFlops = 1;
    for (const ExecContext &ctx : {serial, parallel}) {
        InferenceSession observed(QuantizedBertModel(model, qopt), ctx);
        expectIdentical(expected, observed.headLogitsBatch(batch));
    }
}

TEST_F(ObservedInference, SpansAndCountersCoverTheForwardPass)
{
    ModelQuantOptions qopt;
    qopt.base.bits = 3;

    Observer obs;
    ExecContext ctx = ExecContext::serial();
    ctx.obs = &obs;
    InferenceSession session(QuantizedBertModel(model, qopt), ctx);
    session.headLogitsBatch(batch);

    auto snap = obs.metrics.snapshot();
    EXPECT_EQ(snap.findCounter("session.batches")->value, 1u);
    EXPECT_EQ(snap.findCounter("session.sequences")->value,
              batch.size());
    EXPECT_EQ(snap.findCounter("session.tokens")->value,
              batch.size() * batch[0].size());
    // Packed 3-bit decodes through the 24-bit-group path; every
    // QuantizedLinear forward decodes its output rows.
    EXPECT_GT(snap.findCounter("qexec.forwards")->value, 0u);
    EXPECT_GT(snap.findCounter("qexec.rows_decoded")->value, 0u);
    EXPECT_GT(snap.findCounter("qexec.bytes_streamed")->value, 0u);
    EXPECT_GT(snap.findCounter("qexec.decode.group24")->value, 0u);
    const HistogramSnapshot *lat =
        snap.findHistogram("session.sequence_latency_us");
    ASSERT_NE(lat, nullptr);
    EXPECT_EQ(lat->count, batch.size());
    EXPECT_GT(lat->quantile(0.99), 0.0);

    // The trace has per-layer, per-component and per-linear spans.
    auto summary = summarizeSpans(obs.tracer);
    auto has = [&](const std::string &name) {
        for (const auto &s : summary)
            if (s.name == name)
                return true;
        return false;
    };
    EXPECT_TRUE(has("layer[0]"));
    EXPECT_TRUE(has("attention"));
    EXPECT_TRUE(has("ffn"));
    EXPECT_TRUE(has("layernorm"));
    EXPECT_TRUE(has("embed"));
    EXPECT_TRUE(has("enc[0].query"));
    EXPECT_TRUE(has("pooler"));
    EXPECT_TRUE(has("session.headLogitsBatch"));
}

TEST_F(ObservedInference, BothEnginesTraceTheSameSpanTree)
{
    // Both engines run the one encoder and differ only behind its FC
    // seam, so one batch yields the same multiset of span names on
    // each: embed, layer[e], attention, ffn, layernorm, every
    // enc[e].<kind> and the pooler, once per sequence and layer.
    auto spanNames = [](const Observer &obs) {
        std::multiset<std::string> names;
        for (const TraceEvent &e : obs.tracer.events())
            names.insert(e.name);
        return names;
    };
    ModelQuantOptions qopt;
    qopt.base.bits = 3;
    ExecContext parallel = ExecContext::parallel(4);
    parallel.grainFlops = 1;
    for (ExecContext ctx : {ExecContext::serial(), parallel}) {
        SCOPED_TRACE("threads=" + std::to_string(ctx.threads));
        Observer fp32_obs, packed_obs;
        ctx.obs = &fp32_obs;
        InferenceSession fp32(model, ctx);
        fp32.headLogitsBatch(batch);
        ctx.obs = &packed_obs;
        InferenceSession packed(QuantizedBertModel(model, qopt), ctx);
        packed.headLogitsBatch(batch);

        std::multiset<std::string> names = spanNames(fp32_obs);
        EXPECT_EQ(names, spanNames(packed_obs));
        std::size_t n = batch.size(), layers = model.config().numLayers;
        EXPECT_EQ(names.count("embed"), n);
        EXPECT_EQ(names.count("attention"), n * layers);
        EXPECT_EQ(names.count("ffn"), n * layers);
        EXPECT_EQ(names.count("layernorm"), 2 * n * layers);
        EXPECT_EQ(names.count("pooler"), n);
        for (std::size_t e = 0; e < layers; ++e) {
            EXPECT_EQ(names.count("layer[" + std::to_string(e) + "]"), n);
            for (FcKind kind : {FcKind::Query, FcKind::Key, FcKind::Value,
                                FcKind::AttnOutput, FcKind::Intermediate,
                                FcKind::Output})
                EXPECT_EQ(names.count(fcLayerLabel(kind, e)), n)
                    << fcLayerLabel(kind, e);
        }
    }
}

} // namespace
} // namespace gobo
