/**
 * @file
 * Tests for the GOBC compressed-model container: a container loads as
 * the QuantizedBertModel it stores, without quantizing again.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>

#include "core/container.hh"
#include "core/qexec.hh"
#include "model/generate.hh"
#include "model/serialize.hh"
#include "nn/encoder.hh"
#include "task/task.hh"
#include "tensor/ops.hh"
#include "util/logging.hh"
#include "util/rng.hh"

#include "temp_path.hh"

namespace gobo {
namespace {

ModelQuantOptions
gobo3b4bEmbedding()
{
    ModelQuantOptions opt;
    opt.base.bits = 3;
    opt.embeddingBits = 4;
    return opt;
}

TEST(Container, RoundtripConfigAndFp32Parts)
{
    auto cfg = miniConfig(ModelFamily::DistilBert);
    BertModel m = generateModel(cfg, 301);
    m.resizeHead(3);
    m.headW(2, 5) = 0.625f;

    std::stringstream ss;
    saveCompressedModel(ss, m, gobo3b4bEmbedding());
    BertModel back = loadCompressedModel(ss).dequantize();

    EXPECT_EQ(back.config().name, cfg.name);
    EXPECT_EQ(back.config().numLayers, cfg.numLayers);
    EXPECT_EQ(back.headW.rows(), 3u);
    // FP32-resident parts are bit-exact.
    EXPECT_EQ(back.headW(2, 5), 0.625f);
    EXPECT_EQ(back.positionEmbedding.data(), m.positionEmbedding.data());
    EXPECT_EQ(back.encoders[1].attnLnGamma.data(),
              m.encoders[1].attnLnGamma.data());
    EXPECT_EQ(back.encoders[4].interB.data(), m.encoders[4].interB.data());
    EXPECT_EQ(back.poolerB.data(), m.poolerB.data());
}

TEST(Container, DecodedWeightsMatchInPlaceQuantization)
{
    // Saving + loading the container must produce exactly the model
    // quantizeModelInPlace produces: same codec, same decode.
    auto cfg = miniConfig(ModelFamily::DistilBert);
    BertModel m = generateModel(cfg, 303);
    auto opt = gobo3b4bEmbedding();

    std::stringstream ss;
    saveCompressedModel(ss, m, opt);
    BertModel from_container = loadCompressedModel(ss).dequantize();

    BertModel in_place = m;
    quantizeModelInPlace(in_place, opt);

    auto a = from_container.fcLayers();
    auto b = in_place.fcLayers();
    for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(a[i].weight->data(), b[i].weight->data())
            << a[i].name;
    EXPECT_EQ(from_container.wordEmbedding.data(),
              in_place.wordEmbedding.data());
}

TEST(Container, SourceModelUntouched)
{
    auto cfg = miniConfig(ModelFamily::DistilBert);
    BertModel m = generateModel(cfg, 305);
    BertModel before = m;
    std::stringstream ss;
    saveCompressedModel(ss, m, gobo3b4bEmbedding());
    EXPECT_EQ(m.encoders[0].queryW.data(),
              before.encoders[0].queryW.data());
    EXPECT_EQ(m.wordEmbedding.data(), before.wordEmbedding.data());
}

TEST(Container, FileSizeMatchesReportedCompression)
{
    auto cfg = miniConfig(ModelFamily::DistilBert);
    BertModel m = generateModel(cfg, 307);

    auto fp32_path = uniqueTempPath("fp32.bin");
    auto comp_path = uniqueTempPath("comp.bin");
    saveModel(fp32_path, m);
    auto report = saveCompressedModel(comp_path, m, gobo3b4bEmbedding());

    auto fp32_size = std::filesystem::file_size(fp32_path);
    auto comp_size = std::filesystem::file_size(comp_path);
    double measured = static_cast<double>(fp32_size)
                      / static_cast<double>(comp_size);
    // The container also carries FP32 biases/norms both sides, so the
    // on-disk ratio sits below the weights+embeddings ratio but must
    // be in its neighbourhood.
    EXPECT_GT(measured, report.totalCompressionRatio() * 0.5);
    EXPECT_GT(measured, 4.0);
    EXPECT_LE(measured, report.totalCompressionRatio() * 1.05);

    std::filesystem::remove(fp32_path);
    std::filesystem::remove(comp_path);
}

TEST(Container, MixedPrecisionPersists)
{
    auto cfg = miniConfig(ModelFamily::RoBerta);
    BertModel m = generateModel(cfg, 309);
    ModelQuantOptions opt;
    opt.base.bits = 3;
    opt.bitsFor = mixedPolicy(6, 3, 4);

    std::stringstream ss;
    auto report = saveCompressedModel(ss, m, opt);
    bool saw4 = false, saw3 = false;
    for (const auto &entry : report.layers) {
        saw4 |= entry.bits == 4;
        saw3 |= entry.bits == 3;
    }
    EXPECT_TRUE(saw4);
    EXPECT_TRUE(saw3);
    BertModel back = loadCompressedModel(ss).dequantize();
    EXPECT_EQ(back.config().numLayers, cfg.numLayers);
}

TEST(Container, LoadedModelRunsInference)
{
    auto cfg = miniConfig(ModelFamily::DistilBert);
    BertModel m = generateModel(cfg, 311);
    std::vector<std::int32_t> ids{1, 2, 3, 4};
    Tensor before = encodeSequence(m, ids);

    std::stringstream ss;
    saveCompressedModel(ss, m, gobo3b4bEmbedding());
    BertModel back = loadCompressedModel(ss).dequantize();
    Tensor after = encodeSequence(back, ids);
    EXPECT_LT(relativeError(before, after), 0.6);
}

TEST(Container, RejectsCorruptInput)
{
    std::stringstream bad;
    bad.write("XXXXYYYY", 8);
    EXPECT_THROW(loadCompressedModel(bad), FatalError);

    auto cfg = miniConfig(ModelFamily::DistilBert);
    BertModel m = generateModel(cfg, 313);
    std::stringstream ss;
    saveCompressedModel(ss, m, gobo3b4bEmbedding());
    std::string full = ss.str();
    std::stringstream trunc(full.substr(0, full.size() / 3));
    EXPECT_THROW(loadCompressedModel(trunc), FatalError);
}

/** A generated mini model with a seeded non-zero 3-output head. */
BertModel
headedModel(ModelFamily family, std::uint64_t seed)
{
    BertModel m = generateModel(miniConfig(family), seed);
    m.resizeHead(3);
    Rng rng(seed + 1);
    rng.fillGaussian(m.headW.data(), 0.0, 0.5);
    rng.fillGaussian(m.headB.data(), 0.0, 0.5);
    return m;
}

std::vector<const QuantizedTensor *>
storedLayers(const QuantizedBertModel &q)
{
    std::vector<const QuantizedTensor *> out;
    q.forEachLayer(
        [&](const QuantizedLinear &l) { out.push_back(&l.compressed()); });
    return out;
}

void
expectSameTensor(const QuantizedTensor &a, const QuantizedTensor &b,
                 const std::string &what)
{
    EXPECT_EQ(a.bits, b.bits) << what;
    EXPECT_EQ(a.rows, b.rows) << what;
    EXPECT_EQ(a.cols, b.cols) << what;
    EXPECT_EQ(a.packedIndexes, b.packedIndexes) << what;
    EXPECT_EQ(a.centroids, b.centroids) << what;
    EXPECT_EQ(a.outlierPositions, b.outlierPositions) << what;
    EXPECT_EQ(a.outlierValues, b.outlierValues) << what;
}

/**
 * Save `model` per `opt` and load it back: the loaded model must be
 * QuantizedBertModel(model, opt) exactly — every layer at its stored
 * width, the same packed bytes, tables and outliers, and the same
 * logits — and saving it again must reproduce the file.
 */
void
expectStoredFormRuns(const BertModel &model, const ModelQuantOptions &opt)
{
    std::stringstream ss;
    saveCompressedModel(ss, model, opt);
    QuantizedBertModel loaded = loadCompressedModel(ss);
    QuantizedBertModel direct(model, opt);

    auto refs = model.fcLayers();
    auto a = storedLayers(loaded), b = storedLayers(direct);
    ASSERT_EQ(a.size(), refs.size());
    ASSERT_EQ(b.size(), refs.size());
    for (std::size_t i = 0; i < refs.size(); ++i) {
        EXPECT_EQ(a[i]->bits, opt.effectiveBits(refs[i].kind,
                                                 refs[i].encoder))
            << refs[i].name;
        expectSameTensor(*a[i], *b[i], refs[i].name);
    }
    ASSERT_EQ(loaded.quantizedEmbedding().has_value(),
              opt.embeddingBits > 0);
    if (opt.embeddingBits > 0)
        expectSameTensor(*loaded.quantizedEmbedding(),
                         *direct.quantizedEmbedding(), "embedding");
    EXPECT_EQ(loaded.residentWeightBytes(), direct.residentWeightBytes());

    std::vector<std::int32_t> ids{1, 5, 9, 2, 7, 3, 11, 4};
    ExecContext ctx = ExecContext::serial();
    Tensor got = classify(ctx, loaded.engine(), ids);
    Tensor want = classify(ctx, direct.engine(), ids);
    EXPECT_EQ(got.data(), want.data());
    EXPECT_NE(want(0), 0.0f);

    std::stringstream again;
    saveCompressedModel(again, loaded);
    EXPECT_EQ(again.str(), ss.str());
}

TEST(ContainerRoundTrip, FourBitLayersRunAtStoredWidth)
{
    ModelQuantOptions opt;
    opt.base.bits = 4;
    expectStoredFormRuns(headedModel(ModelFamily::BertBase, 321), opt);
}

TEST(ContainerRoundTrip, MixedPrecisionRobertaKeepsPerLayerWidths)
{
    ModelQuantOptions opt;
    opt.base.bits = 3;
    opt.bitsFor = mixedPolicy(6, 3, 4);
    expectStoredFormRuns(headedModel(ModelFamily::RoBerta, 323), opt);
}

TEST(ContainerRoundTrip, ThreeBitWithFourBitEmbedding)
{
    expectStoredFormRuns(headedModel(ModelFamily::DistilBert, 325),
                         gobo3b4bEmbedding());
}

TEST(Container, WrongFcShapeIsFatal)
{
    // A container whose encoder-0 query weights are stored [h, h/2]
    // instead of [h, h] must be refused before any layer is built.
    BertModel m = generateModel(miniConfig(ModelFamily::DistilBert), 327);
    QuantizedBertModel good(m, ModelQuantOptions{});
    std::size_t h = m.config().hidden;
    Tensor narrow(h, h / 2);
    Rng rng(329);
    rng.fillGaussian(narrow.data(), 0.0, 0.05);

    std::vector<QuantizedLinear> layers;
    good.forEachLayer([&](const QuantizedLinear &l) {
        if (layers.empty())
            layers.emplace_back(quantizeTensor(narrow, GoboConfig{}),
                                l.fp32Bias(), l.spanLabel());
        else
            layers.push_back(l);
    });
    QuantizedBertModel bad(good.fp32Params(), std::move(layers),
                           std::nullopt);
    std::stringstream ss;
    saveCompressedModel(ss, bad);
    EXPECT_THROW(loadCompressedModel(ss), FatalError);
}

TEST(Container, MissingFileIsFatal)
{
    EXPECT_THROW(loadCompressedModel("/nonexistent/gobo.gobc"),
                 FatalError);
}

} // namespace
} // namespace gobo
