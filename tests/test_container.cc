/**
 * @file
 * Tests for the GOBC compressed-model container.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>

#include "core/container.hh"
#include "model/generate.hh"
#include "model/serialize.hh"
#include "nn/encoder.hh"
#include "task/task.hh"
#include "tensor/ops.hh"
#include "util/logging.hh"

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
    BertModel back = loadCompressedModel(ss);

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
    BertModel from_container = loadCompressedModel(ss);

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
    BertModel back = loadCompressedModel(ss);
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
    BertModel back = loadCompressedModel(ss);
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

TEST(Container, MissingFileIsFatal)
{
    EXPECT_THROW(loadCompressedModel("/nonexistent/gobo.gobc"),
                 FatalError);
}

} // namespace
} // namespace gobo
