/**
 * @file
 * Kernel-free references for the quantized FC engine, shared by the
 * tests that hold QuantizedLinear and QuantizedBertModel to exact
 * equality: the canonical centroidFma order of kernels/kernels.hh as
 * plain loops over indexes unpacked by the bitstream reference, and a
 * whole-model classify built from it.
 */

#ifndef GOBO_TESTS_QEXEC_REFERENCE_HH
#define GOBO_TESTS_QEXEC_REFERENCE_HH

#include <cmath>
#include <cstdint>
#include <vector>

#include "core/quantizer.hh"
#include "kernels/kernels.hh"
#include "model/model.hh"
#include "nn/encoder.hh"
#include "tensor/ops.hh"
#include "util/bitstream.hh"

namespace gobo {

/**
 * The canonical quantized-FC order of kernels.hh for one output, as
 * plain loops: 16 fmaf partials over the columns i = j (mod 16), the
 * +8/+4/+2/+1 tree, the bias, then the outlier fmafs in order.
 */
inline float
canonicalOutput(const std::uint8_t *idx, std::size_t in,
                const float *centroids, const float *x, float bias,
                const std::vector<OutlierTerm> &terms)
{
    float p[16] = {};
    for (std::size_t i = 0; i < in; ++i)
        p[i % 16] = std::fmaf(centroids[idx[i]], x[i], p[i % 16]);
    float q[8], r[4], t[2];
    for (std::size_t j = 0; j < 8; ++j)
        q[j] = p[j] + p[j + 8];
    for (std::size_t j = 0; j < 4; ++j)
        r[j] = q[j] + q[j + 4];
    for (std::size_t j = 0; j < 2; ++j)
        t[j] = r[j] + r[j + 2];
    float acc = (t[0] + t[1]) + bias;
    for (const OutlierTerm &term : terms)
        acc = std::fmaf(term.correction, x[term.column], acc);
    return acc;
}

/**
 * A kernel-free QuantizedLinear forward built from the public
 * QuantizedTensor fields: indexes from the bitstream reference,
 * outlier corrections in position order, canonicalOutput per (s, o).
 * QuantizedLinear::forward on any tier and backend must reproduce
 * this bit-for-bit.
 */
inline Tensor
scalarReference(const QuantizedTensor &qt, const Tensor &bias,
                const Tensor &x)
{
    std::size_t out = qt.rows, in = qt.cols;
    auto idx32 = unpackIndexes(qt.packedIndexes, qt.bits,
                               qt.elementCount());
    std::vector<std::uint8_t> idx(idx32.begin(), idx32.end());

    std::vector<std::vector<OutlierTerm>> row_terms(out);
    for (std::size_t o = 0; o < qt.outlierPositions.size(); ++o) {
        std::uint32_t pos = qt.outlierPositions[o];
        row_terms[pos / in].push_back(
            {static_cast<std::uint32_t>(pos % in),
             qt.outlierValues[o] - qt.centroids[idx[pos]]});
    }

    Tensor y(x.rows(), out);
    for (std::size_t s = 0; s < x.rows(); ++s)
        for (std::size_t o = 0; o < out; ++o)
            y(s, o) = canonicalOutput(idx.data() + o * in, in,
                                      qt.centroids.data(),
                                      x.row(s).data(), bias(o),
                                      row_terms[o]);
    return y;
}

/**
 * QuantizedBertModel::classify rebuilt from public pieces, with every
 * FC layer run through scalarReference instead of the kernels, on the
 * generic tier's dense ops. The quantized golden logits are derived
 * from this, not from the engine under test.
 */
inline Tensor
referenceQuantizedLogits(const BertModel &model,
                         const ModelQuantOptions &opt,
                         const std::vector<std::int32_t> &tokens)
{
    ExecContext ctx = ExecContext::serial();
    ctx.kernels = &genericKernels();
    const ModelConfig &cfg = model.config();
    auto fc = [&](const Tensor &x, const Tensor &w, const Tensor &b,
                  FcKind kind, std::size_t e) {
        GoboConfig c = opt.base;
        c.bits = opt.effectiveBits(kind, e);
        return scalarReference(quantizeTensor(w, c), b, x);
    };

    Tensor word = model.wordEmbedding;
    if (opt.embeddingBits > 0) {
        GoboConfig c = opt.base;
        c.bits = opt.embeddingBits;
        word = quantizeTensor(model.wordEmbedding, c).dequantize();
    }
    Tensor x(tokens.size(), cfg.hidden);
    for (std::size_t s = 0; s < tokens.size(); ++s)
        for (std::size_t c = 0; c < cfg.hidden; ++c)
            x(s, c) = word(static_cast<std::size_t>(tokens[s]), c)
                      + model.positionEmbedding(s, c);
    layerNormInplace(ctx, x, model.embLnGamma.flat(),
                     model.embLnBeta.flat());

    for (std::size_t e = 0; e < model.encoders.size(); ++e) {
        const EncoderWeights &enc = model.encoders[e];
        Tensor q = fc(x, enc.queryW, enc.queryB, FcKind::Query, e);
        Tensor k = fc(x, enc.keyW, enc.keyB, FcKind::Key, e);
        Tensor v = fc(x, enc.valueW, enc.valueB, FcKind::Value, e);
        Tensor attn = multiHeadAttention(ctx, q, k, v, cfg.numHeads);
        Tensor a = add(x, fc(attn, enc.attnOutW, enc.attnOutB,
                             FcKind::AttnOutput, e));
        layerNormInplace(ctx, a, enc.attnLnGamma.flat(),
                         enc.attnLnBeta.flat());
        Tensor inter =
            fc(a, enc.interW, enc.interB, FcKind::Intermediate, e);
        geluInplace(ctx, inter);
        x = add(a, fc(inter, enc.outW, enc.outB, FcKind::Output, e));
        layerNormInplace(ctx, x, enc.outLnGamma.flat(),
                         enc.outLnBeta.flat());
    }

    Tensor first(1, cfg.hidden);
    for (std::size_t c = 0; c < cfg.hidden; ++c)
        first(0, c) = x(0, c);
    Tensor pooled = fc(first, model.poolerW, model.poolerB,
                       FcKind::Pooler, cfg.numLayers);
    tanhInplace(ctx, pooled);
    return linear(ctx, pooled, model.headW, model.headB);
}

} // namespace gobo

#endif // GOBO_TESTS_QEXEC_REFERENCE_HH
