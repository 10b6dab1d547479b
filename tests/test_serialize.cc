/**
 * @file
 * Tests for model/tensor binary serialization.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <sstream>

#include "model/generate.hh"
#include "model/serialize.hh"
#include "util/logging.hh"

#include "temp_path.hh"

namespace gobo {
namespace {

TEST(TensorIo, Rank1Roundtrip)
{
    Tensor t(5);
    for (std::size_t i = 0; i < 5; ++i)
        t(i) = static_cast<float>(i) * 1.5f;
    std::stringstream ss;
    writeTensor(ss, t);
    Tensor back = readTensor(ss);
    EXPECT_EQ(back.rank(), 1u);
    EXPECT_EQ(back.data(), t.data());
}

TEST(TensorIo, Rank2Roundtrip)
{
    Tensor t(3, 4);
    t(2, 3) = -7.25f;
    std::stringstream ss;
    writeTensor(ss, t);
    Tensor back = readTensor(ss);
    EXPECT_EQ(back.rows(), 3u);
    EXPECT_EQ(back.cols(), 4u);
    EXPECT_EQ(back(2, 3), -7.25f);
}

TEST(TensorIo, TruncatedStreamIsFatal)
{
    Tensor t(4, 4);
    std::stringstream ss;
    writeTensor(ss, t);
    std::string full = ss.str();
    std::stringstream trunc(full.substr(0, full.size() / 2));
    EXPECT_THROW(readTensor(trunc), FatalError);
}

TEST(ModelIo, StreamRoundtrip)
{
    auto cfg = miniConfig(ModelFamily::DistilBert);
    BertModel m = generateModel(cfg, 3);
    m.resizeHead(3);
    m.headW(1, 2) = 0.125f;

    std::stringstream ss;
    saveModel(ss, m);
    BertModel back = loadModel(ss);

    EXPECT_EQ(back.config().name, cfg.name);
    EXPECT_EQ(back.config().numLayers, cfg.numLayers);
    EXPECT_EQ(back.config().hidden, cfg.hidden);
    EXPECT_EQ(back.headW.rows(), 3u);
    EXPECT_EQ(back.headW(1, 2), 0.125f);
    EXPECT_EQ(back.wordEmbedding.data(), m.wordEmbedding.data());
    EXPECT_EQ(back.encoders[2].valueW.data(), m.encoders[2].valueW.data());
    EXPECT_EQ(back.encoders[5].outLnBeta.data(),
              m.encoders[5].outLnBeta.data());
    EXPECT_EQ(back.poolerW.data(), m.poolerW.data());
}

TEST(ModelIo, FileRoundtrip)
{
    auto cfg = miniConfig(ModelFamily::DistilBert);
    BertModel m = generateModel(cfg, 5);
    auto path = uniqueTempPath("test_model.bin");
    saveModel(path, m);
    BertModel back = loadModel(path);
    EXPECT_EQ(back.wordEmbedding.data(), m.wordEmbedding.data());
    std::filesystem::remove(path);
}

TEST(ModelIo, MissingFileIsFatal)
{
    EXPECT_THROW(loadModel("/nonexistent/path/model.bin"), FatalError);
}

TEST(ModelIo, BadMagicIsFatal)
{
    std::stringstream ss;
    ss.write("JUNKJUNKJUNKJUNK", 16);
    EXPECT_THROW(loadModel(ss), FatalError);
}

TEST(ModelIo, TruncatedModelIsFatal)
{
    auto cfg = miniConfig(ModelFamily::DistilBert);
    BertModel m = generateModel(cfg, 7);
    std::stringstream ss;
    saveModel(ss, m);
    std::string full = ss.str();
    std::stringstream trunc(full.substr(0, full.size() * 3 / 4));
    EXPECT_THROW(loadModel(trunc), FatalError);
}

} // namespace
} // namespace gobo
