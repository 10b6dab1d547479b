/**
 * @file
 * Tests for the transformer inference engine.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "model/generate.hh"
#include "nn/encoder.hh"
#include "tensor/ops.hh"
#include "util/logging.hh"
#include "util/rng.hh"

namespace gobo {
namespace {

std::vector<std::int32_t>
tokens(std::initializer_list<std::int32_t> ids)
{
    return {ids};
}

TEST(EmbedTokens, ShapeAndBounds)
{
    auto cfg = miniConfig(ModelFamily::DistilBert);
    BertModel m = generateModel(cfg, 11);
    auto ids = tokens({0, 5, 9, 3});
    Tensor x = embedTokens(m, ids);
    EXPECT_EQ(x.rows(), 4u);
    EXPECT_EQ(x.cols(), cfg.hidden);
    EXPECT_THROW(embedTokens(m, tokens({-1})), FatalError);
    EXPECT_THROW(embedTokens(m, tokens({static_cast<std::int32_t>(
                                 cfg.vocabSize)})),
                 FatalError);
    EXPECT_THROW(embedTokens(m, {}), FatalError);
}

TEST(EmbedTokens, PositionDependence)
{
    // The same token at different positions gets different embeddings.
    auto cfg = miniConfig(ModelFamily::DistilBert);
    BertModel m = generateModel(cfg, 13);
    Tensor x = embedTokens(m, tokens({7, 7}));
    bool differ = false;
    for (std::size_t c = 0; c < x.cols() && !differ; ++c)
        differ = x(0, c) != x(1, c);
    EXPECT_TRUE(differ);
}

TEST(EncoderForward, PreservesShape)
{
    auto cfg = miniConfig(ModelFamily::DistilBert);
    BertModel m = generateModel(cfg, 17);
    Tensor x = embedTokens(m, tokens({1, 2, 3, 4, 5}));
    Tensor y = encoderForward(m, 0, x);
    EXPECT_EQ(y.rows(), x.rows());
    EXPECT_EQ(y.cols(), x.cols());
}

TEST(EncoderForward, OutputIsLayerNormalized)
{
    auto cfg = miniConfig(ModelFamily::DistilBert);
    BertModel m = generateModel(cfg, 19);
    // Replace the final layer norm with identity parameters so the
    // normalization itself is visible.
    m.encoders[0].outLnGamma.fill(1.0f);
    m.encoders[0].outLnBeta.fill(0.0f);
    Tensor x = embedTokens(m, tokens({1, 2, 3}));
    Tensor y = encoderForward(m, 0, x);
    for (std::size_t r = 0; r < y.rows(); ++r) {
        double mu = 0.0;
        for (std::size_t c = 0; c < y.cols(); ++c)
            mu += y(r, c);
        mu /= static_cast<double>(y.cols());
        EXPECT_NEAR(mu, 0.0, 1e-3);
    }
}

TEST(EncoderForward, AttentionMixesTokens)
{
    // Changing one token must influence other tokens' outputs (through
    // attention) — this distinguishes the encoder from a per-token MLP.
    auto cfg = miniConfig(ModelFamily::DistilBert);
    BertModel m = generateModel(cfg, 23);
    Tensor a = encodeSequence(m, tokens({1, 2, 3, 4}));
    Tensor b = encodeSequence(m, tokens({1, 2, 3, 100}));
    // Token 0's final hidden state differs between the two sequences.
    bool differ = false;
    for (std::size_t c = 0; c < a.cols() && !differ; ++c)
        differ = a(0, c) != b(0, c);
    EXPECT_TRUE(differ);
}

TEST(EncodeSequence, DeterministicAndFinite)
{
    auto cfg = miniConfig(ModelFamily::BertBase);
    BertModel m = generateModel(cfg, 29);
    auto ids = tokens({3, 1, 4, 1, 5, 9, 2, 6});
    Tensor a = encodeSequence(m, ids);
    Tensor b = encodeSequence(m, ids);
    EXPECT_EQ(a.data(), b.data());
    for (float v : a.flat())
        EXPECT_TRUE(std::isfinite(v));
}

TEST(Pool, TanhBounded)
{
    auto cfg = miniConfig(ModelFamily::DistilBert);
    BertModel m = generateModel(cfg, 31);
    Tensor h = encodeSequence(m, tokens({1, 2, 3}));
    Tensor p = pool(m, h);
    EXPECT_EQ(p.rows(), 1u);
    EXPECT_EQ(p.cols(), cfg.hidden);
    for (float v : p.flat()) {
        EXPECT_GE(v, -1.0f);
        EXPECT_LE(v, 1.0f);
    }
}

TEST(HeadLogits, UsesHeadShape)
{
    auto cfg = miniConfig(ModelFamily::DistilBert);
    BertModel m = generateModel(cfg, 37);
    m.resizeHead(3);
    m.headW.fill(0.0f);
    m.headB(1) = 5.0f;
    Tensor h = encodeSequence(m, tokens({1, 2}));
    Tensor logits = headLogits(m, pool(m, h));
    ASSERT_EQ(logits.size(), 3u);
    EXPECT_EQ(argmax(logits.flat()), 1u);
}

TEST(SpanLogitsTest, PerTokenScores)
{
    auto cfg = miniConfig(ModelFamily::DistilBert);
    BertModel m = generateModel(cfg, 41);
    m.resizeHead(2);
    Tensor h = encodeSequence(m, tokens({1, 2, 3, 4, 5}));
    Tensor logits = spanLogits(m, h);
    EXPECT_EQ(logits.rows(), 5u);
    EXPECT_EQ(logits.cols(), 2u);
    m.resizeHead(3);
    EXPECT_THROW(spanLogits(m, h), FatalError);
}

TEST(MultiHeadAttentionTest, SingleHeadMatchesManualComputation)
{
    // 2 tokens, hidden 2, one head: scores = QK^T / sqrt(2), softmax,
    // ctx = scores * V — checked against hand-computed values.
    Tensor q(2, 2, {1.0f, 0.0f, 0.0f, 1.0f});
    Tensor k(2, 2, {1.0f, 0.0f, 0.0f, 1.0f});
    Tensor v(2, 2, {1.0f, 2.0f, 3.0f, 4.0f});
    Tensor ctx = multiHeadAttention(q, k, v, 1);

    float s = 1.0f / std::sqrt(2.0f);
    // Row 0 scores: [s, 0] -> softmax weights [e^s, 1] normalized.
    float w00 = std::exp(s) / (std::exp(s) + 1.0f);
    float w01 = 1.0f - w00;
    EXPECT_NEAR(ctx(0, 0), w00 * 1.0f + w01 * 3.0f, 1e-5);
    EXPECT_NEAR(ctx(0, 1), w00 * 2.0f + w01 * 4.0f, 1e-5);
    // Row 1 is symmetric: weights [w01, w00].
    EXPECT_NEAR(ctx(1, 0), w01 * 1.0f + w00 * 3.0f, 1e-5);
    EXPECT_NEAR(ctx(1, 1), w01 * 2.0f + w00 * 4.0f, 1e-5);
}

TEST(MultiHeadAttentionTest, HeadsAreIndependent)
{
    // With 2 heads over hidden 4, changing K in head 1's columns must
    // not affect head 0's output columns.
    Tensor q(3, 4), k(3, 4), v(3, 4);
    Rng rng(47);
    rng.fillGaussian(q.data(), 0.0, 1.0);
    rng.fillGaussian(k.data(), 0.0, 1.0);
    rng.fillGaussian(v.data(), 0.0, 1.0);
    Tensor base = multiHeadAttention(q, k, v, 2);
    Tensor k2 = k;
    k2(0, 2) += 5.0f; // head 1 (columns 2..3)
    Tensor changed = multiHeadAttention(q, k2, v, 2);
    for (std::size_t r = 0; r < 3; ++r) {
        EXPECT_EQ(base(r, 0), changed(r, 0));
        EXPECT_EQ(base(r, 1), changed(r, 1));
    }
    bool head1_differs = false;
    for (std::size_t r = 0; r < 3 && !head1_differs; ++r)
        head1_differs = base(r, 2) != changed(r, 2)
                        || base(r, 3) != changed(r, 3);
    EXPECT_TRUE(head1_differs);
}

TEST(EncodeSequence, HotChannelsCarryLargeActivations)
{
    // The residual stream's hot channels (gamma-amplified) must show
    // visibly larger magnitude than cold ones — the structural premise
    // of the accuracy experiments.
    auto cfg = miniConfig(ModelFamily::BertBase);
    BertModel m = generateModel(cfg, 43);
    auto mask = hotChannelMask(cfg, 43);
    Tensor h = encodeSequence(m, tokens({3, 7, 11, 19, 23, 31}));
    double hot_energy = 0.0, cold_energy = 0.0;
    std::size_t hot_n = 0, cold_n = 0;
    for (std::size_t r = 0; r < h.rows(); ++r) {
        for (std::size_t c = 0; c < h.cols(); ++c) {
            double v = h(r, c);
            if (mask[c]) {
                hot_energy += v * v;
                ++hot_n;
            } else {
                cold_energy += v * v;
                ++cold_n;
            }
        }
    }
    double hot_ms = hot_energy / static_cast<double>(hot_n);
    double cold_ms = cold_energy / static_cast<double>(cold_n);
    EXPECT_GT(hot_ms, 4.0 * cold_ms);
}

} // namespace
} // namespace gobo
