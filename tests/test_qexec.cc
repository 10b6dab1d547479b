/**
 * @file
 * Tests for compressed-domain execution: QuantizedLinear must agree
 * with the dense FP32 layer over the decoded weights (same arithmetic,
 * different association), and QuantizedBertModel must agree with the
 * FP32 engine running the decoded model.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "core/qexec.hh"
#include "model/generate.hh"
#include "nn/encoder.hh"
#include "qexec_reference.hh"
#include "task/task.hh"
#include "tensor/ops.hh"
#include "util/logging.hh"
#include "util/rng.hh"

namespace gobo {
namespace {

Tensor
gaussianTensor(std::size_t r, std::size_t c, std::uint64_t seed,
               double sigma = 0.05)
{
    Rng rng(seed);
    std::vector<float> data(r * c);
    rng.fillGaussian(data, 0.0, sigma);
    return Tensor(r, c, std::move(data));
}

QuantizedLinear
makeQL(std::size_t out, std::size_t in, unsigned bits,
       std::uint64_t seed)
{
    Tensor w = gaussianTensor(out, in, seed);
    // Plant a couple of outliers so the correction path is exercised.
    w(0, 1) = 0.8f;
    w(out - 1, in - 1) = -0.75f;
    Tensor b(out);
    Rng rng(seed + 1);
    for (auto &v : b.flat())
        v = static_cast<float>(rng.gaussian(0.0, 0.02));
    GoboConfig cfg;
    cfg.bits = bits;
    return {quantizeTensor(w, cfg), std::move(b)};
}

TEST(QuantizedLinearTest, MatchesDecodedDenseLayer)
{
    auto ql = makeQL(24, 40, 3, 401);
    Tensor x = gaussianTensor(5, 40, 402, 1.0);

    Tensor w = ql.compressed().dequantize();
    Tensor zero_bias(24);
    QuantizedLinear ql2(ql.compressed(), zero_bias);
    Tensor got = ql2.forward(x);
    Tensor want = linear(x, w, zero_bias);
    ASSERT_EQ(got.rows(), want.rows());
    ASSERT_EQ(got.cols(), want.cols());
    EXPECT_LT(relativeError(want, got), 1e-5);
}

TEST(QuantizedLinearTest, OutlierCorrectionsApplied)
{
    // Without the correction path, the planted 0.8 outlier would be
    // replaced by a centroid (<0.3) and the first output would be off
    // by ~0.5 * x[1].
    auto ql = makeQL(8, 16, 3, 405);
    Tensor x(1, 16);
    x.fill(0.0f);
    x(0, 1) = 1.0f;
    Tensor y = ql.forward(x);
    Tensor w = ql.compressed().dequantize();
    EXPECT_EQ(w(0, 1), 0.8f);
    // y[0] = bias[0] + w(0,1); verify the 0.8 really flowed through.
    Tensor zero_bias(8);
    QuantizedLinear ql2(ql.compressed(), zero_bias);
    Tensor y2 = ql2.forward(x);
    EXPECT_NEAR(y2(0, 0), 0.8f, 1e-6);
}

TEST(QuantizedLinearTest, OpCountsReflectCentroidScheme)
{
    auto ql = makeQL(64, 64, 3, 407);
    auto ops = ql.opCounts(10);
    auto dense = ql.denseOpCounts(10);
    // Multiplications collapse from in (64) to 2^3 per output (plus
    // outlier corrections).
    EXPECT_LT(ops.multiplications, dense.multiplications / 4);
    EXPECT_GE(ops.additions, dense.additions); // adds stay ~the same
    std::size_t n_out = ql.compressed().outlierPositions.size();
    EXPECT_EQ(ops.multiplications, 10u * (64u * 8u + n_out));
}

TEST(QuantizedLinearTest, RejectsBadShapes)
{
    auto ql = makeQL(8, 16, 3, 409);
    Tensor wrong(2, 8);
    EXPECT_THROW(ql.forward(wrong), FatalError);
    Tensor w = gaussianTensor(8, 16, 411);
    GoboConfig cfg;
    cfg.bits = 3;
    auto q = quantizeTensor(w, cfg);
    Tensor bad_bias(7);
    EXPECT_THROW(QuantizedLinear(q, bad_bias), FatalError);
}

class QexecBits : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(QexecBits, ForwardEquivalenceAcrossWidths)
{
    unsigned bits = GetParam();
    auto ql = makeQL(32, 48, bits, 431 + bits);
    Tensor zero_bias(32);
    QuantizedLinear ql2(ql.compressed(), zero_bias);
    Tensor x = gaussianTensor(7, 48, 433, 2.0);
    Tensor got = ql2.forward(x);
    Tensor want = linear(x, ql.compressed().dequantize(), zero_bias);
    EXPECT_LT(relativeError(want, got), 1e-5);
}

TEST_P(QexecBits, PackedMatchesUnpackedBitIdentical)
{
    // The engine decodes the packed B-bit stream per row block, but
    // feeds the arithmetic of the kernel-free reference over the
    // bitstream-unpacked indexes (qexec_reference.hh), so the contract
    // is exact float equality, not a tolerance — serial and parallel.
    unsigned bits = GetParam();
    auto ql = makeQL(32, 48, bits, 461 + bits);
    Tensor x = gaussianTensor(7, 48, 463, 2.0);
    Tensor a = scalarReference(ql.compressed(), Tensor(32), x);
    QuantizedLinear packed(ql.compressed(), Tensor(32));
    Tensor b = packed.forward(x);
    ExecContext par = ExecContext::parallel(4);
    par.grainFlops = 1;
    Tensor c = packed.forward(par, x);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.flat().size(); ++i) {
        EXPECT_EQ(a.flat()[i], b.flat()[i]) << "flat index " << i;
        EXPECT_EQ(b.flat()[i], c.flat()[i]) << "flat index " << i;
    }
}

INSTANTIATE_TEST_SUITE_P(Widths, QexecBits,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u,
                                           8u));

TEST(QuantizedLinearTest, PackedFuzzAcrossRandomLayers)
{
    // Random shapes, widths B in [2, 8], and inputs: the packed engine
    // must stay bit-identical to the kernel-free reference everywhere,
    // including ragged rows whose bit offsets straddle byte and group
    // boundaries.
    Rng rng(471);
    for (int trial = 0; trial < 40; ++trial) {
        auto bits = static_cast<unsigned>(rng.integer(2, 8));
        auto out = static_cast<std::size_t>(rng.integer(1, 24));
        auto in = static_cast<std::size_t>(rng.integer(1, 56));
        Tensor w(out, in);
        rng.fillGaussian(w.data(), 0.0, 0.05);
        if (out > 1 && in > 1) {
            w(0, in - 1) = 0.9f; // force the outlier-correction path
            w(out - 1, 0) = -0.85f;
        }
        GoboConfig cfg;
        cfg.bits = bits;
        auto q = quantizeTensor(w, cfg);
        Tensor bias(out);
        rng.fillGaussian(bias.data(), 0.0, 0.1);
        QuantizedLinear packed(q, bias);
        auto seq = static_cast<std::size_t>(rng.integer(1, 5));
        Tensor x(seq, in);
        rng.fillGaussian(x.data(), 0.0, 1.0);
        Tensor a = scalarReference(q, bias, x);
        Tensor b = packed.forward(x);
        for (std::size_t i = 0; i < a.flat().size(); ++i)
            EXPECT_EQ(a.flat()[i], b.flat()[i])
                << "trial " << trial << " bits " << bits << " out "
                << out << " in " << in << " flat " << i;
    }
}

TEST(QuantizedLinearTest, ResidentBytesMatchFormat)
{
    auto ql = makeQL(32, 64, 3, 467);
    const auto &q = ql.compressed();
    std::size_t table_and_outliers =
        q.centroids.size() * sizeof(float)
        + q.outlierPositions.size()
              * (sizeof(std::uint32_t) + sizeof(float));
    // The 3-bit stream itself, never a byte per weight.
    EXPECT_EQ(ql.residentBytes(),
              (q.elementCount() * 3 + 7) / 8 + table_and_outliers);
    EXPECT_LT(ql.residentBytes(), q.elementCount());
    // ~B/32 of FP32 plus the small table/outlier tail.
    double fp32 = static_cast<double>(q.originalBytes());
    EXPECT_LT(static_cast<double>(ql.residentBytes()),
              fp32 * (3.0 / 32.0) + 2.0 * table_and_outliers);
}

TEST(QuantizedBertModelTest, MatchesDecodedModelPredictions)
{
    auto cfg = miniConfig(ModelFamily::DistilBert);
    BertModel model = generateModel(cfg, 421);
    auto spec = defaultSpec(TaskKind::MnliLike, 421);
    spec.numExamples = 60;
    spec.seqLen = 8;
    Dataset data = buildTask(model, spec);

    ModelQuantOptions options;
    options.base.bits = 3;
    options.embeddingBits = 4;

    QuantizedBertModel qmodel(model, options);
    BertModel decoded = model;
    quantizeModelInPlace(decoded, options);

    std::size_t agree = 0;
    for (const auto &ex : data.examples) {
        Tensor q_logits =
            classify(ExecContext::serial(), qmodel.engine(), ex.tokens);
        auto dec_pred = predict(decoded, TaskKind::MnliLike, ex);
        int q_label = static_cast<int>(argmax(q_logits.flat()));
        agree += q_label == dec_pred.label ? 1 : 0;
    }
    // FP reassociation can flip razor-thin margins; anything beyond a
    // stray example means the engines diverge.
    EXPECT_GE(agree, data.examples.size() - 1);
}

TEST(QuantizedBertModelTest, EncodeMatchesDecodedHidden)
{
    auto cfg = miniConfig(ModelFamily::DistilBert);
    BertModel model = generateModel(cfg, 423);
    ModelQuantOptions options;
    options.base.bits = 4;

    QuantizedBertModel qmodel(model, options);
    BertModel decoded = model;
    quantizeModelInPlace(decoded, options);

    std::vector<std::int32_t> ids{3, 1, 4, 1, 5, 9};
    Tensor a = encodeSequence(qmodel.engine(), ids);
    Tensor b = encodeSequence(decoded, ids);
    EXPECT_LT(relativeError(b, a), 1e-4);
}

TEST(QuantizedBertModelTest, OpCountsAndFootprint)
{
    auto cfg = miniConfig(ModelFamily::DistilBert);
    BertModel model = generateModel(cfg, 425);
    ModelQuantOptions options;
    options.base.bits = 3;
    QuantizedBertModel qmodel(model, options);

    auto ops = qmodel.opCounts(16);
    auto dense = qmodel.denseOpCounts(16);
    EXPECT_LT(ops.multiplications, dense.multiplications / 4);
    EXPECT_GT(ops.multiplications, 0u);

    // Compressed FC bytes beat FP32 by ~10x at 3 bits.
    std::size_t fp32 = cfg.fcWeightParams() * sizeof(float);
    EXPECT_GT(static_cast<double>(fp32)
                  / static_cast<double>(qmodel.compressedWeightBytes()),
              9.0);
}

TEST(QuantizedBertModelTest, PackedModelBitIdenticalToUnpacked)
{
    // The packed engine's logits equal the kernel-free reference over
    // bitstream-unpacked indexes (qexec_reference.hh) bit for bit, on
    // the reference's generic-tier dense ops, serial and parallel.
    auto cfg = miniConfig(ModelFamily::DistilBert);
    BertModel model = generateModel(cfg, 429);
    Rng rng(430);
    model.resizeHead(3);
    rng.fillGaussian(model.headW.data(), 0.0, 0.5);
    rng.fillGaussian(model.headB.data(), 0.0, 0.5);

    ModelQuantOptions options;
    options.base.bits = 3;
    options.embeddingBits = 4;
    QuantizedBertModel packed(model, options);

    std::vector<std::int32_t> ids{3, 1, 4, 1, 5, 9, 2, 6};
    Tensor ref = referenceQuantizedLogits(model, options, ids);
    ExecContext serial = ExecContext::serial();
    serial.kernels = &genericKernels();
    ExecContext par = ExecContext::parallel(4);
    par.kernels = &genericKernels();
    par.grainFlops = 1;
    Tensor hs = encodeSequence(serial, packed.engine(), ids);
    Tensor hp = encodeSequence(par, packed.engine(), ids);
    for (std::size_t i = 0; i < hs.flat().size(); ++i)
        EXPECT_EQ(hs.flat()[i], hp.flat()[i]) << "hidden flat " << i;
    for (const ExecContext &ctx : {serial, par}) {
        Tensor logits = classify(ctx, packed.engine(), ids);
        ASSERT_EQ(logits.size(), ref.size());
        for (std::size_t i = 0; i < ref.size(); ++i)
            EXPECT_EQ(logits(i), ref.flat()[i])
                << "logit " << i << " threads " << ctx.threads;
    }

    // The packed stream lands under the B/32-of-FP32 ceiling (plus
    // table/outlier tail), and well under a byte per weight.
    std::size_t fp32 = cfg.fcWeightParams() * sizeof(float);
    EXPECT_LT(packed.residentWeightBytes(), cfg.fcWeightParams());
    EXPECT_LT(static_cast<double>(packed.residentWeightBytes()),
              static_cast<double>(fp32) * (3.0 / 32.0 + 0.05));
}

TEST(QuantizedBertModelTest, MixedPrecisionBitsRespected)
{
    auto cfg = miniConfig(ModelFamily::RoBerta);
    BertModel model = generateModel(cfg, 427);
    ModelQuantOptions options;
    options.base.bits = 3;
    options.bitsFor = mixedPolicy(6, 3, 4);
    QuantizedBertModel qmodel(model, options);
    std::vector<std::int32_t> ids{1, 2, 3, 4};
    Tensor h = encodeSequence(qmodel.engine(), ids);
    for (float v : h.flat())
        EXPECT_TRUE(std::isfinite(v));
}

} // namespace
} // namespace gobo
