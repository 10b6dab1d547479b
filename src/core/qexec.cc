#include "core/qexec.hh"

#include <algorithm>

#include "exec/scratch.hh"
#include "kernels/kernels.hh"
#include "model/footprint.hh"
#include "obs/observer.hh"
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

    // Observability: flat counters recorded outside the kernel loops
    // (the totals are closed-form). Every non-empty activation block
    // decodes all `out` rows once.
    if (Observer *obs = ctx.obs) {
        std::size_t blocks = gblock ? (groups + gblock - 1) / gblock : 0;
        std::size_t rows_decoded = out * blocks;
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
        obs->metrics.add(obs->qexecRowsDecoded, rows_decoded);

        // Per-layer mirrors of the traffic counters, keyed by the span
        // label — the measured inputs of memsim's per-layer energy
        // attribution (obs/audit.hh).
        const Observer::QexecLayerIds &lids = obs->layerIds(label);
        obs->metrics.add(lids.forwards);
        obs->metrics.add(lids.bytesStreamed, residentBytes());
        obs->metrics.add(lids.outlierCorrections,
                         seq * outliers.size());
        obs->metrics.add(lids.rowsDecoded, rows_decoded);
    }

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

QuantizedBertModel::QuantizedBertModel(const BertModel &model,
                                       const ModelQuantOptions &options,
                                       ModelQuantReport *report)
    : params(model.withoutFcLayers())
{
    if (options.embeddingBits > 0) {
        GoboConfig ecfg = options.base;
        ecfg.bits = options.embeddingBits;
        embedding = quantizeTensor(model.wordEmbedding, ecfg);
        params.wordEmbedding = embedding->dequantize();
    }
    if (report) {
        std::size_t fp32 = model.wordEmbedding.size() * sizeof(float);
        report->embeddingOriginalBytes = fp32;
        report->embeddingPayloadBytes =
            embedding ? embedding->payloadBytes() : fp32;
    }
    auto refs = model.fcLayers();
    layers.reserve(refs.size());
    for (const auto &ref : refs) {
        GoboConfig cfg = options.base;
        cfg.bits = options.effectiveBits(ref.kind, ref.encoder);
        LayerQuantStats stats;
        QuantizedTensor q = quantizeTensor(*ref.weight, cfg, &stats);
        // Only when asked: entries made between layers add 3.3 MiB peak RSS.
        if (report)
            report->addLayer(
                accountLayer(ref.name, ref.kind, ref.encoder, q, stats));
        layers.emplace_back(std::move(q), *ref.bias,
                            fcLayerLabel(ref.kind, ref.encoder));
    }
}

QuantizedBertModel::QuantizedBertModel(
    BertModel fp32, std::vector<QuantizedLinear> fc,
    std::optional<QuantizedTensor> stored_embedding)
    : params(std::move(fp32)), layers(std::move(fc)),
      embedding(std::move(stored_embedding))
{
    fatalIf(layers.size() != params.config().numFcLayers(),
            "QuantizedBertModel FC layer count mismatch");
}

BertModel
QuantizedBertModel::dequantize() const
{
    BertModel model = params;
    auto refs = model.fcLayers();
    for (std::size_t i = 0; i < refs.size(); ++i) {
        *refs[i].weight = layers[i].compressed().dequantize();
        *refs[i].bias = layers[i].fp32Bias();
    }
    return model;
}

const QuantizedLinear &
QuantizedBertModel::layer(FcKind kind, std::size_t encoder) const
{
    // fcLayers() order: six per encoder in FcKind order, pooler last.
    if (kind == FcKind::Pooler)
        return layers.back();
    return layers[6 * encoder + static_cast<std::size_t>(kind)];
}

Engine
QuantizedBertModel::engine() const
{
    return {params, [this](const ExecContext &ctx, FcKind kind,
                           std::size_t encoder, const Tensor &x) {
                return layer(kind, encoder).forward(ctx, x);
            }};
}

OpCounts
QuantizedBertModel::opCounts(std::size_t seq) const
{
    // The pooler runs on the first token only.
    OpCounts total;
    for (const auto &l : layers)
        total += l.opCounts(&l == &layers.back() ? 1 : seq);
    return total;
}

OpCounts
QuantizedBertModel::denseOpCounts(std::size_t seq) const
{
    OpCounts total;
    for (const auto &l : layers)
        total += l.denseOpCounts(&l == &layers.back() ? 1 : seq);
    return total;
}

std::size_t
QuantizedBertModel::compressedWeightBytes() const
{
    std::size_t bytes = 0;
    for (const auto &l : layers)
        bytes += l.compressed().payloadBytes();
    return bytes;
}

void
QuantizedBertModel::forEachLayer(
    const std::function<void(const QuantizedLinear &)> &fn) const
{
    for (const auto &l : layers)
        fn(l);
}

std::size_t
QuantizedBertModel::residentWeightBytes() const
{
    std::size_t bytes = 0;
    for (const auto &l : layers)
        bytes += l.residentBytes();
    return bytes;
}

} // namespace gobo
