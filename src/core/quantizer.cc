#include "core/quantizer.hh"

#include "core/outliers.hh"
#include "exec/threadpool.hh"
#include "model/generate.hh"
#include "util/bitstream.hh"
#include "util/logging.hh"

namespace gobo {

QuantizedTensor
quantizeTensor(const Tensor &weights, const GoboConfig &config,
               LayerQuantStats *stats)
{
    fatalIf(weights.size() < 2, "quantizeTensor needs at least 2 weights");
    fatalIf(config.bits == 0 || config.bits > 8,
            "quantizeTensor bits out of range: ", config.bits);

    auto flat = weights.flat();

    QuantizedTensor q;
    q.bits = config.bits;
    q.rows = weights.rows();
    q.cols = weights.cols();

    LayerQuantStats local;
    local.weightCount = flat.size();

    ClusterResult cluster;
    if (config.detectOutliers) {
        OutlierSplit split = splitOutliers(flat, config.outlierThreshold);
        local.mean = split.fit.mean();
        local.sigma = split.fit.sigma();
        local.outlierCount = split.outlierValues.size();
        local.outlierFraction = split.outlierFraction();
        fatalIf(split.gValues.empty(),
                "outlier threshold classified every weight as outlier");
        cluster = clusterWeights(split.gValues, config.bits, config.method,
                                 config.maxIterations);
        q.outlierPositions = std::move(split.outlierPositions);
        q.outlierValues = std::move(split.outlierValues);
    } else {
        GaussianFit fit = GaussianFit::fit(flat);
        local.mean = fit.mean();
        local.sigma = fit.sigma();
        cluster = clusterWeights(flat, config.bits, config.method,
                                 config.maxIterations);
    }

    local.iterations = cluster.iterations;
    local.finalL1 = cluster.finalL1;
    local.finalL2 = cluster.finalL2;

    q.centroids = std::move(cluster.centroids);
    // Every position gets an index (outlier slots carry the nearest
    // centroid and are overridden at decode); this keeps the stream a
    // fixed-rate B bits per weight, which is also what the paper's
    // compression arithmetic assumes.
    auto indexes = assignNearest(flat, q.centroids);
    q.packedIndexes = packIndexes(indexes, q.bits);
    q.check();

    if (stats)
        *stats = local;
    return q;
}

unsigned
ModelQuantOptions::effectiveBits(FcKind kind, std::size_t encoder) const
{
    if (bitsFor) {
        unsigned b = bitsFor(kind, encoder);
        fatalIf(b == 0 || b > 8, "bitsFor returned invalid width ", b);
        return b;
    }
    return base.bits;
}

double
ModelQuantReport::weightCompressionRatio() const
{
    if (weightPayloadBytes == 0)
        return 1.0;
    return static_cast<double>(weightOriginalBytes)
           / static_cast<double>(weightPayloadBytes);
}

double
ModelQuantReport::embeddingCompressionRatio() const
{
    if (embeddingPayloadBytes == 0)
        return 1.0;
    return static_cast<double>(embeddingOriginalBytes)
           / static_cast<double>(embeddingPayloadBytes);
}

double
ModelQuantReport::totalCompressionRatio() const
{
    std::size_t orig = weightOriginalBytes + embeddingOriginalBytes;
    std::size_t comp = weightPayloadBytes + embeddingPayloadBytes;
    if (comp == 0)
        return 1.0;
    return static_cast<double>(orig) / static_cast<double>(comp);
}

double
ModelQuantReport::overallOutlierFraction() const
{
    std::size_t total = 0, outliers = 0;
    for (const auto &entry : layers) {
        total += entry.elements;
        outliers += entry.stats.outlierCount;
    }
    if (total == 0)
        return 0.0;
    return static_cast<double>(outliers) / static_cast<double>(total);
}

void
ModelQuantReport::addLayer(LayerReportEntry entry)
{
    weightOriginalBytes += entry.elements * sizeof(float);
    weightPayloadBytes += entry.payloadBytes;
    layers.push_back(std::move(entry));
}

LayerReportEntry
accountLayer(const std::string &name, FcKind kind, std::size_t encoder,
             const QuantizedTensor &q, const LayerQuantStats &stats)
{
    LayerReportEntry entry;
    entry.name = name;
    entry.kind = kind;
    entry.encoder = encoder;
    entry.elements = q.elementCount();
    entry.bits = q.bits;
    entry.payloadBytes = q.payloadBytes();
    entry.stats = stats;
    return entry;
}

ModelQuantReport
quantizeModelInPlace(BertModel &model, const ModelQuantOptions &options)
{
    ModelQuantReport report;

    auto layers = model.fcLayers();
    std::vector<LayerReportEntry> entries(layers.size());
    ThreadPool &pool = ThreadPool::shared();
    pool.run(layers.size(), options.threads, [&](std::size_t i) {
        auto &layer = layers[i];
        GoboConfig cfg = options.base;
        cfg.bits = options.effectiveBits(layer.kind, layer.encoder);
        LayerQuantStats stats;
        QuantizedTensor q = quantizeTensor(*layer.weight, cfg, &stats);
        entries[i] = accountLayer(layer.name, layer.kind, layer.encoder,
                                  q, stats);
        *layer.weight = q.dequantize();
    });
    for (auto &entry : entries)
        report.addLayer(std::move(entry));

    report.embeddingOriginalBytes = model.wordEmbedding.size()
                                    * sizeof(float);
    if (options.embeddingBits > 0) {
        GoboConfig cfg = options.base;
        cfg.bits = options.embeddingBits;
        QuantizedTensor q = quantizeTensor(model.wordEmbedding, cfg);
        report.embeddingPayloadBytes = q.payloadBytes();
        model.wordEmbedding = q.dequantize();
    } else {
        report.embeddingPayloadBytes = report.embeddingOriginalBytes;
    }
    return report;
}

ModelQuantReport
quantizeConfigStreaming(const ModelConfig &config, std::uint64_t seed,
                        const ModelQuantOptions &options)
{
    ModelQuantReport report;

    auto specs = fcLayerSpecs(config);
    std::vector<LayerReportEntry> entries(specs.size());
    ThreadPool &pool = ThreadPool::shared();
    pool.run(specs.size(), options.threads, [&](std::size_t i) {
        const auto &spec = specs[i];
        Tensor w = generateFcWeight(config, spec, seed);
        GoboConfig cfg = options.base;
        cfg.bits = options.effectiveBits(spec.kind, spec.encoder);
        LayerQuantStats stats;
        QuantizedTensor q = quantizeTensor(w, cfg, &stats);
        entries[i] = accountLayer(spec.name, spec.kind, spec.encoder, q,
                                  stats);
    });
    for (auto &entry : entries)
        report.addLayer(std::move(entry));

    report.embeddingOriginalBytes = config.wordEmbeddingParams()
                                    * sizeof(float);
    if (options.embeddingBits > 0) {
        Tensor emb = generateWordEmbedding(config, seed);
        GoboConfig cfg = options.base;
        cfg.bits = options.embeddingBits;
        QuantizedTensor q = quantizeTensor(emb, cfg);
        report.embeddingPayloadBytes = q.payloadBytes();
    } else {
        report.embeddingPayloadBytes = report.embeddingOriginalBytes;
    }
    return report;
}

std::function<unsigned(FcKind, std::size_t)>
mixedPolicy(std::size_t sensitive_encoders, unsigned low_bits,
            unsigned high_bits)
{
    return [=](FcKind kind, std::size_t encoder) {
        bool sensitive = (kind == FcKind::Value
                          || kind == FcKind::Intermediate)
                         && encoder < sensitive_encoders;
        return sensitive ? high_bits : low_bits;
    };
}

} // namespace gobo
