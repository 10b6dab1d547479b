#include "core/qexec.hh"

#include <algorithm>
#include <cmath>

#include "exec/scratch.hh"
#include "kernels/kernels.hh"
#include "model/footprint.hh"
#include "nn/encoder.hh"
#include "obs/observer.hh"
#include "obs/probe.hh"
#include "tensor/ops.hh"
#include "util/logging.hh"

namespace gobo {

QuantizedLinear::QuantizedLinear(QuantizedTensor w, Tensor b,
                                 std::string name)
    : weights(std::move(w)), bias(std::move(b)), label(std::move(name))
{
    weights.check();
    fatalIf(bias.size() != weights.rows, "QuantizedLinear bias size ",
            bias.size(), " != out features ", weights.rows);

    // Group outlier corrections by row, in ascending column order
    // (positions are sorted). The index slot under an outlier still
    // contributes its centroid through the lookup FMAs, so the
    // correction is the difference, not the raw value.
    outlierRowStart.assign(weights.rows + 1, 0);
    outliers.reserve(weights.outlierPositions.size());
    for (std::size_t o = 0; o < weights.outlierPositions.size(); ++o) {
        std::uint32_t pos = weights.outlierPositions[o];
        std::uint32_t row = pos / static_cast<std::uint32_t>(weights.cols);
        std::uint32_t col = pos % static_cast<std::uint32_t>(weights.cols);
        float correction = weights.outlierValues[o]
                           - weights.centroids[weights.indexAt(pos)];
        outliers.push_back({col, correction});
        ++outlierRowStart[row + 1];
    }
    for (std::size_t r = 0; r < weights.rows; ++r)
        outlierRowStart[r + 1] += outlierRowStart[r];
}

Tensor
QuantizedLinear::forward(const ExecContext &ctx, const Tensor &x) const
{
    fatalIf(x.rank() != 2 || x.cols() != weights.cols,
            "QuantizedLinear input shape mismatch: got ", x.rows(), "x",
            x.cols(), ", want cols ", weights.cols);

    std::size_t seq = x.rows(), in = weights.cols, out = weights.rows;
    Tensor y(seq, out);

    // Observability: one span per forward plus flat counters, all
    // recorded outside the kernel loops (the totals are closed-form).
    ScopedSpan span(ctx.obs, label);
    if (Observer *obs = ctx.obs) {
        obs->metrics.add(obs->qexecForwards);
        obs->metrics.add(obs->qexecBytesStreamed, residentBytes());
        obs->metrics.add(obs->qexecOutlierCorrections,
                         seq * outliers.size());
        if (8 % weights.bits == 0)
            obs->metrics.add(obs->qexecDecodeLut);
        else if (weights.bits == 3)
            obs->metrics.add(obs->qexecDecodeGroup24);
        else
            obs->metrics.add(obs->qexecDecodeScalar);
        obs->metrics.add(obs->qexecRowsDecoded, out);

        // Per-layer mirrors of the traffic counters, keyed by the span
        // label — the measured inputs of memsim's per-layer energy
        // attribution (obs/audit.hh).
        const Observer::QexecLayerIds &lids = obs->layerIds(label);
        obs->metrics.add(lids.forwards);
        obs->metrics.add(lids.bytesStreamed, residentBytes());
        obs->metrics.add(lids.outlierCorrections,
                         seq * outliers.size());
        obs->metrics.add(lids.rowsDecoded, out);
    }

    // Grid of output-row blocks x blocks of kFcRows-row activation
    // groups; rows split first (one decode per block), activations only
    // when rows cannot feed every task. Each task carries at least the
    // context's parallel grain of flops. Every y(s, o) is one
    // centroidFma output in the canonical order (kernels/kernels.hh),
    // so no grid, thread count, backend or tier moves a bit.
    std::size_t groups = (seq + kFcRows - 1) / kFcRows;
    std::size_t flops = 2 * seq * in * out;
    std::size_t grain = ctx.grainFlops != 0
                            ? ctx.grainFlops
                            : ExecContext::kMinParallelFlops;
    std::size_t target = 1;
    if (ctx.isParallel())
        target = std::clamp<std::size_t>(flops / grain, 1,
                                         ctx.threads * 4);
    std::size_t rblocks = std::min(out, target);
    std::size_t gblocks = 1;
    if (rblocks < target && groups > 1)
        gblocks = std::min(groups, (target + rblocks - 1) / rblocks);
    std::size_t n_tasks = rblocks * gblocks;
    std::size_t rblock = (out + rblocks - 1) / rblocks;
    std::size_t gblock = (groups + gblocks - 1) / gblocks;

    const KernelSet &kn = resolveKernels(ctx.kernels);
    ctx.parallelFor(n_tasks, flops / n_tasks + 1, [&](std::size_t task) {
        std::size_t rb = task / gblocks, gb = task % gblocks;
        std::size_t o0 = rb * rblock;
        std::size_t o1 = std::min(o0 + rblock, out);
        std::size_t s0 = gb * gblock * kFcRows;
        std::size_t s1 = std::min(s0 + gblock * kFcRows, seq);
        if (o0 >= o1 || s0 >= s1)
            return;
        std::uint8_t *rows = execScratch().decodeBuffer(o1 - o0, in);
        for (std::size_t o = o0; o < o1; ++o)
            kn.decodePackedRow(weights.packedIndexes.data(),
                               weights.packedIndexes.size(),
                               o * in * weights.bits, weights.bits, in,
                               rows + (o - o0) * in);
        // Activation rows outer: kFcRows rows of x stay in L1 while
        // the block's index rows stream past them.
        for (std::size_t s = s0; s < s1; s += kFcRows) {
            std::size_t n = std::min(kFcRows, s1 - s);
            const float *xs = x.row(s).data();
            float *ys = y.row(s).data();
            for (std::size_t o = o0; o < o1; ++o) {
                std::uint32_t t0 = outlierRowStart[o];
                kn.centroidFma(rows + (o - o0) * in, in,
                               weights.centroids.data(),
                               weights.centroids.size(), xs, in, n,
                               bias(o), outliers.data() + t0,
                               outlierRowStart[o + 1] - t0, ys + o,
                               out);
            }
        }
    });
    return y;
}

Tensor
QuantizedLinear::forward(const Tensor &x) const
{
    return forward(ExecContext::serial(), x);
}

OpCounts
QuantizedLinear::opCounts(std::size_t seq) const
{
    OpCounts ops;
    std::size_t per_out = weights.cols // bucket accumulation
                          + weights.centroids.size(); // table sums
    ops.additions = seq * (weights.rows * per_out + outliers.size());
    ops.multiplications = seq * (weights.rows * weights.centroids.size()
                                 + outliers.size());
    return ops;
}

OpCounts
QuantizedLinear::denseOpCounts(std::size_t seq) const
{
    OpCounts ops;
    ops.additions = seq * weights.rows * weights.cols;
    ops.multiplications = seq * weights.rows * weights.cols;
    return ops;
}

std::size_t
QuantizedLinear::residentBytes() const
{
    return packedResidentBytes(weights.elementCount(), weights.bits,
                               weights.centroids.size(), outliers.size());
}

namespace {

QuantizedLinear
makeLayer(const Tensor &w, const Tensor &b, FcKind kind,
          std::size_t encoder, const ModelQuantOptions &options)
{
    GoboConfig cfg = options.base;
    cfg.bits = options.effectiveBits(kind, encoder);
    std::string label =
        kind == FcKind::Pooler
            ? fcKindName(kind)
            : "enc[" + std::to_string(encoder) + "]." + fcKindName(kind);
    return {quantizeTensor(w, cfg), b, std::move(label)};
}

} // namespace

QuantizedBertModel::QuantizedBertModel(const BertModel &model,
                                       const ModelQuantOptions &options)
    : cfg(model.config()),
      wordEmbedding(model.wordEmbedding),
      positionEmbedding(model.positionEmbedding),
      embLnGamma(model.embLnGamma),
      embLnBeta(model.embLnBeta),
      pooler(makeLayer(model.poolerW, model.poolerB, FcKind::Pooler,
                       model.config().numLayers, options)),
      headW(model.headW),
      headB(model.headB)
{
    if (options.embeddingBits > 0) {
        GoboConfig ecfg = options.base;
        ecfg.bits = options.embeddingBits;
        wordEmbedding = quantizeTensor(model.wordEmbedding, ecfg)
                            .dequantize();
    }
    encoders.reserve(model.encoders.size());
    for (std::size_t e = 0; e < model.encoders.size(); ++e) {
        const auto &enc = model.encoders[e];
        encoders.push_back(EncoderLayers{
            makeLayer(enc.queryW, enc.queryB, FcKind::Query, e, options),
            makeLayer(enc.keyW, enc.keyB, FcKind::Key, e, options),
            makeLayer(enc.valueW, enc.valueB, FcKind::Value, e, options),
            makeLayer(enc.attnOutW, enc.attnOutB, FcKind::AttnOutput, e,
                      options),
            makeLayer(enc.interW, enc.interB, FcKind::Intermediate, e,
                      options),
            makeLayer(enc.outW, enc.outB, FcKind::Output, e, options),
            enc.attnLnGamma, enc.attnLnBeta, enc.outLnGamma,
            enc.outLnBeta});
    }
}

Tensor
QuantizedBertModel::encode(const ExecContext &ctx,
                           std::span<const std::int32_t> token_ids) const
{
    fatalIf(token_ids.empty(), "encode on empty sequence");
    fatalIf(token_ids.size() > cfg.maxPosition, "sequence length ",
            token_ids.size(), " exceeds maxPosition ", cfg.maxPosition);

    Tensor x(token_ids.size(), cfg.hidden);
    {
        ScopedSpan span(ctx.obs, "embed");
        for (std::size_t s = 0; s < token_ids.size(); ++s) {
            auto id = token_ids[s];
            fatalIf(id < 0
                        || static_cast<std::size_t>(id) >= cfg.vocabSize,
                    "token id ", id, " out of vocab ", cfg.vocabSize);
            auto word = wordEmbedding.row(static_cast<std::size_t>(id));
            auto posv = positionEmbedding.row(s);
            auto dst = x.row(s);
            for (std::size_t c = 0; c < dst.size(); ++c)
                dst[c] = word[c] + posv[c];
        }
        layerNormInplace(ctx, x, embLnGamma.flat(), embLnBeta.flat());
    }
    probeActivation(ctx.obs, "embed", x);

    for (std::size_t e = 0; e < encoders.size(); ++e) {
        const auto &enc = encoders[e];
        ScopedSpan layer_span(ctx.obs, "layer", e);
        Tensor a;
        {
            ScopedSpan span(ctx.obs, "attention");
            Tensor q = enc.query.forward(ctx, x);
            Tensor k = enc.key.forward(ctx, x);
            Tensor v = enc.value.forward(ctx, x);
            Tensor attn_ctx =
                multiHeadAttention(ctx, q, k, v, cfg.numHeads);
            Tensor attn_out = enc.attnOut.forward(ctx, attn_ctx);
            a = add(x, attn_out);
        }
        {
            ScopedSpan span(ctx.obs, "layernorm");
            layerNormInplace(ctx, a, enc.attnLnGamma.flat(),
                             enc.attnLnBeta.flat());
        }

        Tensor y;
        {
            ScopedSpan span(ctx.obs, "ffn");
            Tensor inter = enc.inter.forward(ctx, a);
            geluInplace(ctx, inter);
            Tensor out = enc.out.forward(ctx, inter);
            y = add(a, out);
        }
        {
            ScopedSpan span(ctx.obs, "layernorm");
            layerNormInplace(ctx, y, enc.outLnGamma.flat(),
                             enc.outLnBeta.flat());
        }
        x = std::move(y);
        if (probeAttached(ctx.obs))
            probeActivation(ctx.obs,
                            "layer[" + std::to_string(e) + "]", x);
    }
    return x;
}

Tensor
QuantizedBertModel::encode(std::span<const std::int32_t> token_ids) const
{
    return encode(ExecContext::serial(), token_ids);
}

Tensor
QuantizedBertModel::classify(const ExecContext &ctx,
                             std::span<const std::int32_t> token_ids) const
{
    Tensor hidden = encode(ctx, token_ids);
    Tensor first(1, hidden.cols());
    auto src = hidden.row(0);
    std::copy(src.begin(), src.end(), first.row(0).begin());
    Tensor pooled = pooler.forward(ctx, first);
    tanhInplace(ctx, pooled);
    Tensor logits2d = linear(ctx, pooled, headW, headB);
    Tensor logits(logits2d.cols());
    auto row = logits2d.row(0);
    std::copy(row.begin(), row.end(), logits.flat().begin());
    return logits;
}

Tensor
QuantizedBertModel::classify(std::span<const std::int32_t> token_ids) const
{
    return classify(ExecContext::serial(), token_ids);
}

OpCounts
QuantizedBertModel::opCounts(std::size_t seq) const
{
    OpCounts total;
    for (const auto &enc : encoders) {
        total += enc.query.opCounts(seq);
        total += enc.key.opCounts(seq);
        total += enc.value.opCounts(seq);
        total += enc.attnOut.opCounts(seq);
        total += enc.inter.opCounts(seq);
        total += enc.out.opCounts(seq);
    }
    total += pooler.opCounts(1);
    return total;
}

OpCounts
QuantizedBertModel::denseOpCounts(std::size_t seq) const
{
    OpCounts total;
    for (const auto &enc : encoders) {
        total += enc.query.denseOpCounts(seq);
        total += enc.key.denseOpCounts(seq);
        total += enc.value.denseOpCounts(seq);
        total += enc.attnOut.denseOpCounts(seq);
        total += enc.inter.denseOpCounts(seq);
        total += enc.out.denseOpCounts(seq);
    }
    total += pooler.denseOpCounts(1);
    return total;
}

std::size_t
QuantizedBertModel::compressedWeightBytes() const
{
    std::size_t bytes = 0;
    for (const auto &enc : encoders) {
        bytes += enc.query.compressed().payloadBytes();
        bytes += enc.key.compressed().payloadBytes();
        bytes += enc.value.compressed().payloadBytes();
        bytes += enc.attnOut.compressed().payloadBytes();
        bytes += enc.inter.compressed().payloadBytes();
        bytes += enc.out.compressed().payloadBytes();
    }
    bytes += pooler.compressed().payloadBytes();
    return bytes;
}

void
QuantizedBertModel::forEachLayer(
    const std::function<void(const QuantizedLinear &)> &fn) const
{
    for (const auto &enc : encoders) {
        fn(enc.query);
        fn(enc.key);
        fn(enc.value);
        fn(enc.attnOut);
        fn(enc.inter);
        fn(enc.out);
    }
    fn(pooler);
}

std::size_t
QuantizedBertModel::residentWeightBytes() const
{
    std::size_t bytes = 0;
    for (const auto &enc : encoders) {
        bytes += enc.query.residentBytes();
        bytes += enc.key.residentBytes();
        bytes += enc.value.residentBytes();
        bytes += enc.attnOut.residentBytes();
        bytes += enc.inter.residentBytes();
        bytes += enc.out.residentBytes();
    }
    bytes += pooler.residentBytes();
    return bytes;
}

} // namespace gobo
