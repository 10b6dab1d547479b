#include "model/config.hh"

#include "util/logging.hh"

namespace gobo {

std::string
familyName(ModelFamily family)
{
    switch (family) {
      case ModelFamily::BertBase: return "BERT-Base";
      case ModelFamily::BertLarge: return "BERT-Large";
      case ModelFamily::DistilBert: return "DistilBERT";
      case ModelFamily::RoBerta: return "RoBERTa";
      case ModelFamily::RoBertaLarge: return "RoBERTa-Large";
    }
    panic("unknown ModelFamily");
}

std::string
fcKindName(FcKind kind)
{
    switch (kind) {
      case FcKind::Query: return "query";
      case FcKind::Key: return "key";
      case FcKind::Value: return "value";
      case FcKind::AttnOutput: return "attn_output";
      case FcKind::Intermediate: return "intermediate";
      case FcKind::Output: return "output";
      case FcKind::Pooler: return "pooler";
    }
    panic("unknown FcKind");
}

std::string
fcLayerLabel(FcKind kind, std::size_t encoder)
{
    if (kind == FcKind::Pooler)
        return fcKindName(kind);
    return "enc[" + std::to_string(encoder) + "]." + fcKindName(kind);
}

std::size_t
ModelConfig::fcWeightParams() const
{
    // Per encoder: 4 [h,h] attention FCs plus the [i,h] and [h,i] FFN
    // pair; one [h,h] pooler after the last encoder.
    std::size_t per_layer = 4 * hidden * hidden + 2 * hidden * intermediate;
    return numLayers * per_layer + hidden * hidden;
}

void
ModelConfig::check() const
{
    fatalIf(numLayers == 0, name, ": numLayers must be positive");
    fatalIf(hidden == 0 || intermediate == 0, name,
            ": hidden/intermediate must be positive");
    fatalIf(numHeads == 0 || hidden % numHeads != 0, name,
            ": hidden ", hidden, " not divisible by heads ", numHeads);
    fatalIf(vocabSize == 0 || maxPosition == 0, name,
            ": vocabSize/maxPosition must be positive");
}

ModelConfig
fullConfig(ModelFamily family)
{
    ModelConfig c;
    c.family = family;
    c.name = familyName(family);
    switch (family) {
      case ModelFamily::BertBase:
        c.numLayers = 12; c.hidden = 768; c.intermediate = 3072;
        c.numHeads = 12; c.vocabSize = 30522; c.maxPosition = 512;
        break;
      case ModelFamily::BertLarge:
        c.numLayers = 24; c.hidden = 1024; c.intermediate = 4096;
        c.numHeads = 16; c.vocabSize = 30522; c.maxPosition = 512;
        break;
      case ModelFamily::DistilBert:
        c.numLayers = 6; c.hidden = 768; c.intermediate = 3072;
        c.numHeads = 12; c.vocabSize = 30522; c.maxPosition = 512;
        break;
      case ModelFamily::RoBerta:
        c.numLayers = 12; c.hidden = 768; c.intermediate = 3072;
        c.numHeads = 12; c.vocabSize = 50265; c.maxPosition = 514;
        break;
      case ModelFamily::RoBertaLarge:
        c.numLayers = 24; c.hidden = 1024; c.intermediate = 4096;
        c.numHeads = 16; c.vocabSize = 50265; c.maxPosition = 514;
        break;
    }
    c.check();
    return c;
}

ModelConfig
miniConfig(ModelFamily family)
{
    ModelConfig c;
    c.family = family;
    c.name = familyName(family) + "-mini";
    switch (family) {
      case ModelFamily::BertBase:
        c.numLayers = 12; c.hidden = 64; c.intermediate = 256;
        c.numHeads = 4; c.vocabSize = 512; c.maxPosition = 64;
        break;
      case ModelFamily::BertLarge:
        c.numLayers = 24; c.hidden = 96; c.intermediate = 384;
        c.numHeads = 6; c.vocabSize = 512; c.maxPosition = 64;
        break;
      case ModelFamily::DistilBert:
        c.numLayers = 6; c.hidden = 64; c.intermediate = 256;
        c.numHeads = 4; c.vocabSize = 512; c.maxPosition = 64;
        break;
      case ModelFamily::RoBerta:
        c.numLayers = 12; c.hidden = 64; c.intermediate = 256;
        c.numHeads = 4; c.vocabSize = 768; c.maxPosition = 64;
        break;
      case ModelFamily::RoBertaLarge:
        c.numLayers = 24; c.hidden = 96; c.intermediate = 384;
        c.numHeads = 6; c.vocabSize = 768; c.maxPosition = 64;
        break;
    }
    c.check();
    return c;
}

std::vector<ModelFamily>
allFamilies()
{
    return {ModelFamily::BertBase, ModelFamily::BertLarge,
            ModelFamily::DistilBert, ModelFamily::RoBerta,
            ModelFamily::RoBertaLarge};
}

} // namespace gobo
