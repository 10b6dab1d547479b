/**
 * @file
 * Tests for the per-thread decode buffers (exec/scratch.hh) and the
 * promise QuantizedLinear::forward makes on top of them: after
 * warm-up the packed hot path allocates no scratch, and each forward
 * decodes every weight row of every layer exactly once.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/qexec.hh"
#include "exec/scratch.hh"
#include "exec/session.hh"
#include "exec/threadpool.hh"
#include "model/generate.hh"
#include "obs/observer.hh"
#include "util/rng.hh"

namespace gobo {
namespace {

TEST(ScratchArena, GrowOnlyBufferCountsRows)
{
    ScratchStats before = scratchStats();
    ScratchArena arena;
    std::uint8_t *a = arena.decodeBuffer(4, 64);
    a[4 * 64 - 1] = 7; // the whole block is writable
    ScratchStats mid = scratchStats();
    EXPECT_EQ(mid.arenas, before.arenas + 1);
    EXPECT_GE(mid.bytesReserved, before.bytesReserved + 4 * 64);

    // A smaller request reuses the same storage and reserves nothing.
    std::uint8_t *b = arena.decodeBuffer(2, 16);
    EXPECT_EQ(a, b);
    ScratchStats after = scratchStats();
    EXPECT_EQ(after.bytesReserved, mid.bytesReserved);
    EXPECT_EQ(after.decodeRowMisses, before.decodeRowMisses + 6);
    EXPECT_EQ(after.decodeRowHits, before.decodeRowHits);
    EXPECT_EQ(after.decodeCacheBytes, 0u);
    EXPECT_EQ(decodeCacheBudgetBytes(), 0u);
}

/** Mini BERT-base, 3-bit packed, a live head and 13 tokens. */
struct ModelSetup
{
    BertModel model;
    std::vector<std::int32_t> tokens;
};

ModelSetup
modelSetup()
{
    auto cfg = miniConfig(ModelFamily::BertBase);
    ModelSetup s{generateModel(cfg, 42), {}};
    Rng rng(42 * 31 + 5);
    s.model.resizeHead(3);
    rng.fillGaussian(s.model.headW.data(), 0.0, 0.5);
    rng.fillGaussian(s.model.headB.data(), 0.0, 0.5);
    for (std::size_t t = 0; t < 13; ++t)
        s.tokens.push_back(static_cast<std::int32_t>(rng.integer(
            0, static_cast<int>(cfg.vocabSize) - 1)));
    return s;
}

TEST(PackedHotPath, NoScratchAllocationAfterWarmUp)
{
    ModelSetup s = modelSetup();
    ModelQuantOptions qopt;
    qopt.base.bits = 3;
    QuantizedBertModel qmodel(s.model, qopt);

    // Rows one headLogits() decodes: every encoder layer's out features,
    // plus the pooler's — each weight row once per forward. grainFlops
    // = 1 splits every layer across the 4-thread grid.
    std::size_t rows = 0, largest_block = 0;
    qmodel.forEachLayer([&](const QuantizedLinear &l) {
        rows += l.outFeatures();
        largest_block = std::max(largest_block,
                                 l.outFeatures() * l.inFeatures());
    });
    ExecContext serial = ExecContext::serial();
    ExecContext par = ExecContext::parallel(4);
    par.grainFlops = 1;

    for (const ExecContext &ctx : {serial, par}) {
        SCOPED_TRACE("threads=" + std::to_string(ctx.threads));
        InferenceSession session(QuantizedBertModel(qmodel), ctx);
        Tensor warm = session.headLogits(s.tokens);
        ScratchStats before = scratchStats();
        Tensor again = session.headLogits(s.tokens);
        ScratchStats after = scratchStats();
        for (std::size_t i = 0; i < warm.size(); ++i)
            EXPECT_EQ(warm(i), again(i)) << i;
        EXPECT_EQ(after.decodeRowMisses - before.decodeRowMisses, rows);
        EXPECT_EQ(after.decodeRowHits, before.decodeRowHits);
        if (!ctx.isParallel()) {
            // One thread, one buffer: the warm-up forward grew it to
            // the largest block and kept it, so the second forward
            // reserves nothing.
            EXPECT_EQ(after.bytesReserved, before.bytesReserved);
            EXPECT_GE(after.bytesReserved, largest_block);
            EXPECT_EQ(after.arenas, before.arenas);
        } else {
            // Which worker takes which block is up to the scheduler, so
            // a worker may meet a larger block only in the second
            // forward; every arena still holds at most one block.
            EXPECT_LE(after.bytesReserved,
                      after.arenas * largest_block);
        }
    }
}

TEST(PackedHotPath, RowsDecodedCounterCountsEveryDecode)
{
    // A 4x64 layer on 32 rows cannot feed the 16-task grid of
    // parallel(4) with row blocks alone, so the grid also splits the
    // activation axis and each of the 4 activation blocks decodes all
    // 4 rows: the counters must report the 16 rows the tasks decoded.
    Rng rng(11);
    Tensor w(4, 64), x(32, 64);
    rng.fillGaussian(w.data(), 0.0, 0.05);
    rng.fillGaussian(x.data(), 0.0, 1.0);
    GoboConfig cfg;
    cfg.bits = 3;
    QuantizedLinear layer(quantizeTensor(w, cfg), Tensor(4), "probe");

    Observer obs;
    ExecContext ctx = ExecContext::parallel(4);
    ctx.grainFlops = 1;
    ctx.obs = &obs;
    ScratchStats before = scratchStats();
    layer.forward(ctx, x);
    ScratchStats after = scratchStats();

    MetricsSnapshot snap = obs.metrics.snapshot();
    EXPECT_EQ(after.decodeRowMisses - before.decodeRowMisses, 16u);
    EXPECT_EQ(snap.findCounter("qexec.rows_decoded")->value, 16u);
    EXPECT_EQ(snap.findCounter("qexec.layer.probe.rows_decoded")->value,
              16u);
}

} // namespace
} // namespace gobo
