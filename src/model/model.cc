#include "model/model.hh"

#include "util/logging.hh"

namespace gobo {

BertModel::BertModel(ModelConfig config) : cfg(std::move(config))
{
    cfg.check();
    std::size_t h = cfg.hidden;
    std::size_t inter = cfg.intermediate;

    wordEmbedding = Tensor(cfg.vocabSize, h);
    positionEmbedding = Tensor(cfg.maxPosition, h);
    embLnGamma = Tensor(h);
    embLnBeta = Tensor(h);
    embLnGamma.fill(1.0f);

    encoders.resize(cfg.numLayers);
    for (auto &enc : encoders) {
        enc.queryW = Tensor(h, h);
        enc.queryB = Tensor(h);
        enc.keyW = Tensor(h, h);
        enc.keyB = Tensor(h);
        enc.valueW = Tensor(h, h);
        enc.valueB = Tensor(h);
        enc.attnOutW = Tensor(h, h);
        enc.attnOutB = Tensor(h);
        enc.attnLnGamma = Tensor(h);
        enc.attnLnBeta = Tensor(h);
        enc.attnLnGamma.fill(1.0f);
        enc.interW = Tensor(inter, h);
        enc.interB = Tensor(inter);
        enc.outW = Tensor(h, inter);
        enc.outB = Tensor(h);
        enc.outLnGamma = Tensor(h);
        enc.outLnBeta = Tensor(h);
        enc.outLnGamma.fill(1.0f);
    }

    poolerW = Tensor(h, h);
    poolerB = Tensor(h);
    headW = Tensor(1, h);
    headB = Tensor(1);
}

namespace {

template <typename Ref, typename Model>
std::vector<Ref>
enumerateFcLayers(Model &m)
{
    std::vector<Ref> out;
    out.reserve(m.config().numFcLayers());
    for (std::size_t e = 0; e < m.encoders.size(); ++e) {
        auto &enc = m.encoders[e];
        auto add = [&](const char *name, FcKind kind, auto &w, auto &b) {
            out.push_back({"encoder" + std::to_string(e) + "." + name,
                           kind, e, &w, &b});
        };
        add("query", FcKind::Query, enc.queryW, enc.queryB);
        add("key", FcKind::Key, enc.keyW, enc.keyB);
        add("value", FcKind::Value, enc.valueW, enc.valueB);
        add("attn_output", FcKind::AttnOutput, enc.attnOutW, enc.attnOutB);
        add("intermediate", FcKind::Intermediate, enc.interW, enc.interB);
        add("output", FcKind::Output, enc.outW, enc.outB);
    }
    out.push_back({"pooler", FcKind::Pooler, m.encoders.size(),
                   &m.poolerW, &m.poolerB});
    return out;
}

} // namespace

std::vector<FcLayerRef>
BertModel::fcLayers()
{
    return enumerateFcLayers<FcLayerRef>(*this);
}

std::vector<ConstFcLayerRef>
BertModel::fcLayers() const
{
    return enumerateFcLayers<ConstFcLayerRef>(*this);
}

std::pair<const Tensor &, const Tensor &>
BertModel::fcLayer(FcKind kind, std::size_t encoder) const
{
    if (kind == FcKind::Pooler)
        return {poolerW, poolerB};
    const EncoderWeights &w = encoders[encoder];
    switch (kind) {
      case FcKind::Query: return {w.queryW, w.queryB};
      case FcKind::Key: return {w.keyW, w.keyB};
      case FcKind::Value: return {w.valueW, w.valueB};
      case FcKind::AttnOutput: return {w.attnOutW, w.attnOutB};
      case FcKind::Intermediate: return {w.interW, w.interB};
      case FcKind::Output: return {w.outW, w.outB};
      case FcKind::Pooler: break;
    }
    panic("unknown FcKind");
}

BertModel
BertModel::withoutFcLayers() const
{
    BertModel m = unallocated(cfg);
    m.wordEmbedding = wordEmbedding;
    m.positionEmbedding = positionEmbedding;
    m.embLnGamma = embLnGamma;
    m.embLnBeta = embLnBeta;
    for (std::size_t e = 0; e < encoders.size(); ++e) {
        m.encoders[e].attnLnGamma = encoders[e].attnLnGamma;
        m.encoders[e].attnLnBeta = encoders[e].attnLnBeta;
        m.encoders[e].outLnGamma = encoders[e].outLnGamma;
        m.encoders[e].outLnBeta = encoders[e].outLnBeta;
    }
    m.headW = headW;
    m.headB = headB;
    return m;
}

BertModel
BertModel::unallocated(ModelConfig config)
{
    BertModel m;
    m.cfg = std::move(config);
    m.encoders.resize(m.cfg.numLayers);
    return m;
}

void
BertModel::resizeHead(std::size_t outputs)
{
    fatalIf(outputs == 0, "head needs at least one output");
    headW = Tensor(outputs, cfg.hidden);
    headB = Tensor(outputs);
}

std::size_t
BertModel::parameterCount() const
{
    std::size_t n = wordEmbedding.size() + positionEmbedding.size()
                    + embLnGamma.size() + embLnBeta.size();
    for (const auto &enc : encoders) {
        n += enc.queryW.size() + enc.queryB.size() + enc.keyW.size()
             + enc.keyB.size() + enc.valueW.size() + enc.valueB.size()
             + enc.attnOutW.size() + enc.attnOutB.size()
             + enc.attnLnGamma.size() + enc.attnLnBeta.size()
             + enc.interW.size() + enc.interB.size() + enc.outW.size()
             + enc.outB.size() + enc.outLnGamma.size()
             + enc.outLnBeta.size();
    }
    n += poolerW.size() + poolerB.size() + headW.size() + headB.size();
    return n;
}

} // namespace gobo
