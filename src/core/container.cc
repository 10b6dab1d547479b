#include "core/container.hh"

#include <fstream>
#include <istream>
#include <ostream>

#include "model/generate.hh"
#include "model/serialize.hh"
#include "util/binio.hh"
#include "util/logging.hh"

namespace gobo {

namespace {

constexpr std::uint32_t containerMagic = 0x474f4243; // "GOBC"
constexpr std::uint32_t containerVersion = 1;

/**
 * The FP32 tensors stored after the FC weights, in file order: per
 * encoder the query, key, value and attention-output biases, the
 * attention layer norm, the intermediate and output biases and the
 * output layer norm; then the pooler bias and the task head. `bias[i]`
 * is FC layer i's bias in fcLayers() order.
 */
template <typename T, typename Model>
std::vector<T *>
fp32Remainder(Model &params, const std::vector<T *> &bias)
{
    std::vector<T *> out;
    for (std::size_t e = 0; e < params.encoders.size(); ++e) {
        auto &enc = params.encoders[e];
        T *const *b = bias.data() + 6 * e;
        out.insert(out.end(), {b[0], b[1], b[2], b[3], &enc.attnLnGamma,
                               &enc.attnLnBeta, b[4], b[5],
                               &enc.outLnGamma, &enc.outLnBeta});
    }
    out.insert(out.end(), {bias.back(), &params.headW, &params.headB});
    return out;
}

} // namespace

ModelQuantReport
saveCompressedModel(std::ostream &os, const BertModel &model,
                    const ModelQuantOptions &options)
{
    ModelQuantReport report;
    saveCompressedModel(os, QuantizedBertModel(model, options, &report));
    return report;
}

void
saveCompressedModel(std::ostream &os, const QuantizedBertModel &model)
{
    const BertModel &p = model.fp32Params();
    const auto &embedding = model.quantizedEmbedding();

    writePod(os, containerMagic);
    writePod(os, containerVersion);
    writeModelHeader(os, p.config(), p.headW.rows());
    writePod<std::uint32_t>(os, embedding ? embedding->bits : 0);

    // Word embedding: quantized when stored so, raw otherwise.
    if (embedding)
        embedding->save(os);
    else
        writeTensor(os, p.wordEmbedding);
    writeTensor(os, p.positionEmbedding);
    writeTensor(os, p.embLnGamma);
    writeTensor(os, p.embLnBeta);

    // FC weights in enumeration order, each as a quantized tensor.
    std::vector<const Tensor *> bias;
    model.forEachLayer([&](const QuantizedLinear &l) {
        l.compressed().save(os);
        bias.push_back(&l.fp32Bias());
    });
    for (const Tensor *t : fp32Remainder(p, bias))
        writeTensor(os, *t);
}

ModelQuantReport
saveCompressedModel(const std::string &path, const BertModel &model,
                    const ModelQuantOptions &options)
{
    std::ofstream os(path, std::ios::binary);
    fatalIf(!os, "cannot open ", path, " for writing");
    auto report = saveCompressedModel(os, model, options);
    fatalIf(!os, "write to ", path, " failed");
    return report;
}

QuantizedBertModel
loadCompressedModel(std::istream &is)
{
    fatalIf(readPod<std::uint32_t>(is) != containerMagic,
            "bad compressed-model magic");
    auto version = readPod<std::uint32_t>(is);
    fatalIf(version != containerVersion,
            "unsupported compressed-model version ", version);

    std::size_t head_rows = 0;
    ModelConfig cfg = readModelHeader(is, head_rows);
    auto emb_bits = readPod<std::uint32_t>(is);

    BertModel params = BertModel::unallocated(cfg);
    std::optional<QuantizedTensor> embedding;
    if (emb_bits > 0) {
        embedding = QuantizedTensor::load(is);
        params.wordEmbedding = embedding->dequantize();
    } else {
        params.wordEmbedding = readTensor(is);
    }
    fatalIf(params.wordEmbedding.rows() != cfg.vocabSize
                || params.wordEmbedding.cols() != cfg.hidden,
            "compressed model shape mismatch for word embedding");
    params.positionEmbedding = readTensor(is);
    params.embLnGamma = readTensor(is);
    params.embLnBeta = readTensor(is);

    auto specs = fcLayerSpecs(cfg);
    std::vector<QuantizedTensor> weights;
    weights.reserve(specs.size());
    for (const auto &spec : specs) {
        weights.push_back(QuantizedTensor::load(is));
        fatalIf(weights.back().rows != spec.rows
                    || weights.back().cols != spec.cols,
                "compressed model shape mismatch for ", spec.name);
    }
    std::vector<Tensor> biases(specs.size());
    std::vector<Tensor *> bias;
    for (Tensor &b : biases)
        bias.push_back(&b);
    for (Tensor *t : fp32Remainder(params, bias))
        *t = readTensor(is);
    fatalIf(params.headW.rows() != head_rows
                || params.headW.cols() != cfg.hidden,
            "compressed model shape mismatch for head");

    for (std::size_t i = 0; i < specs.size(); ++i)
        fatalIf(biases[i].rank() != 1 || biases[i].size() != specs[i].rows,
                "compressed model bias length mismatch for ",
                specs[i].name);

    std::vector<QuantizedLinear> layers;
    layers.reserve(specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i)
        layers.emplace_back(std::move(weights[i]), std::move(biases[i]),
                            fcLayerLabel(specs[i].kind, specs[i].encoder));
    return QuantizedBertModel(std::move(params), std::move(layers),
                              std::move(embedding));
}

QuantizedBertModel
loadCompressedModel(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    fatalIf(!is, "cannot open ", path, " for reading");
    return loadCompressedModel(is);
}

} // namespace gobo
