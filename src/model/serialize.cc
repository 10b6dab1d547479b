#include "model/serialize.hh"

#include <cstdint>
#include <fstream>
#include <istream>
#include <ostream>

#include "util/binio.hh"
#include "util/logging.hh"

namespace gobo {

namespace {

constexpr std::uint32_t modelMagic = 0x474f424d; // "GOBM"
constexpr std::uint32_t modelVersion = 1;

/**
 * Largest plausible tensor dimension / element count in a model file.
 * The biggest real tensor in scope (BERT-Large word embedding) is
 * ~31M elements; 2^31 leaves two orders of magnitude headroom while a
 * corrupt u64 header would otherwise request a multi-TB allocation
 * and die on bad_alloc instead of a clean fatal.
 */
constexpr std::uint64_t dimCeiling = std::uint64_t{1} << 31;

std::uint64_t
readDim(std::istream &is, const char *what)
{
    auto v = readPod<std::uint64_t>(is);
    fatalIf(v > dimCeiling, "model stream corrupt: ", what, " ", v,
            " exceeds plausible ceiling ", dimCeiling);
    return v;
}

template <typename Model, typename Fn>
void
forEachTensor(Model &m, Fn fn)
{
    fn(m.wordEmbedding);
    fn(m.positionEmbedding);
    fn(m.embLnGamma);
    fn(m.embLnBeta);
    for (auto &enc : m.encoders) {
        fn(enc.queryW); fn(enc.queryB);
        fn(enc.keyW); fn(enc.keyB);
        fn(enc.valueW); fn(enc.valueB);
        fn(enc.attnOutW); fn(enc.attnOutB);
        fn(enc.attnLnGamma); fn(enc.attnLnBeta);
        fn(enc.interW); fn(enc.interB);
        fn(enc.outW); fn(enc.outB);
        fn(enc.outLnGamma); fn(enc.outLnBeta);
    }
    fn(m.poolerW); fn(m.poolerB);
    fn(m.headW); fn(m.headB);
}

} // namespace

void
writeTensor(std::ostream &os, const Tensor &t)
{
    writePod<std::uint32_t>(os, static_cast<std::uint32_t>(t.rank()));
    for (std::size_t d = 0; d < t.rank(); ++d)
        writePod<std::uint64_t>(os, t.dim(d));
    auto flat = t.flat();
    os.write(reinterpret_cast<const char *>(flat.data()),
             static_cast<std::streamsize>(flat.size() * sizeof(float)));
}

Tensor
readTensor(std::istream &is)
{
    auto rank = readPod<std::uint32_t>(is);
    fatalIf(rank > 2, "tensor rank ", rank, " unsupported");
    Tensor t;
    if (rank == 1) {
        t = Tensor(static_cast<std::size_t>(readDim(is, "tensor length")));
    } else if (rank == 2) {
        std::size_t r = static_cast<std::size_t>(readDim(is, "tensor rows"));
        std::size_t c = static_cast<std::size_t>(readDim(is, "tensor cols"));
        fatalIf(r != 0 && c > dimCeiling / r,
                "model stream corrupt: tensor ", r, "x", c,
                " exceeds plausible ceiling ", dimCeiling);
        t = Tensor(r, c);
    }
    auto flat = t.flat();
    is.read(reinterpret_cast<char *>(flat.data()),
            static_cast<std::streamsize>(flat.size() * sizeof(float)));
    fatalIf(!is && flat.size() > 0, "model stream truncated reading tensor");
    return t;
}

void
writeModelHeader(std::ostream &os, const ModelConfig &c,
                 std::size_t head_outputs)
{
    writePod<std::uint32_t>(os, static_cast<std::uint32_t>(c.family));
    for (std::size_t dim : {c.numLayers, c.hidden, c.intermediate,
                            c.numHeads, c.vocabSize, c.maxPosition})
        writePod<std::uint64_t>(os, dim);
    writeString(os, c.name);
    writePod<std::uint64_t>(os, head_outputs);
}

ModelConfig
readModelHeader(std::istream &is, std::size_t &head_outputs)
{
    // The config dims size the tensors a loader allocates, so they go
    // through the same ceiling as raw tensor headers.
    ModelConfig c;
    c.family = static_cast<ModelFamily>(readPod<std::uint32_t>(is));
    for (std::size_t *dim : {&c.numLayers, &c.hidden, &c.intermediate,
                             &c.numHeads, &c.vocabSize, &c.maxPosition})
        *dim = static_cast<std::size_t>(readDim(is, "config dimension"));
    c.name = readString(is);
    head_outputs = static_cast<std::size_t>(readDim(is, "head outputs"));
    c.check();
    return c;
}

void
saveModel(std::ostream &os, const BertModel &model)
{
    writePod(os, modelMagic);
    writePod(os, modelVersion);
    writeModelHeader(os, model.config(), model.headW.rows());
    forEachTensor(model, [&](const Tensor &t) { writeTensor(os, t); });
}

void
saveModel(const std::string &path, const BertModel &model)
{
    std::ofstream os(path, std::ios::binary);
    fatalIf(!os, "cannot open ", path, " for writing");
    saveModel(os, model);
    fatalIf(!os, "write to ", path, " failed");
}

BertModel
loadModel(std::istream &is)
{
    fatalIf(readPod<std::uint32_t>(is) != modelMagic, "bad model magic");
    auto version = readPod<std::uint32_t>(is);
    fatalIf(version != modelVersion, "unsupported model version ",
            version);

    std::size_t head_outputs = 0;
    BertModel m(readModelHeader(is, head_outputs));
    m.resizeHead(head_outputs);
    forEachTensor(m, [&](Tensor &t) {
        Tensor loaded = readTensor(is);
        fatalIf(loaded.rank() != t.rank() || loaded.size() != t.size(),
                "tensor shape mismatch while loading model");
        t = std::move(loaded);
    });
    return m;
}

BertModel
loadModel(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    fatalIf(!is, "cannot open ", path, " for reading");
    return loadModel(is);
}

} // namespace gobo
