/**
 * @file
 * Model configurations for the BERT family (paper Table I) and the
 * reduced-dimension "mini" variants used for inference-accuracy
 * experiments.
 *
 * Full-size configurations carry the exact dimensions of the released
 * checkpoints so that footprint and compression-ratio experiments
 * (Tables II, III, VII) account bytes exactly. Mini configurations keep
 * the layer counts and component structure but shrink the hidden sizes
 * so the accuracy sweeps (Tables III-VI, Fig. 4) run in minutes.
 */

#ifndef GOBO_MODEL_CONFIG_HH
#define GOBO_MODEL_CONFIG_HH

#include <cstddef>
#include <string>
#include <vector>

namespace gobo {

/** The five models the paper evaluates. */
enum class ModelFamily
{
    BertBase,
    BertLarge,
    DistilBert,
    RoBerta,
    RoBertaLarge,
};

/** Printable name of a family ("BERT-Base", ...). */
std::string familyName(ModelFamily family);

/** Kinds of FC weight matrices inside a transformer encoder. */
enum class FcKind
{
    Query,        ///< Attention query projection [h, h].
    Key,          ///< Attention key projection [h, h].
    Value,        ///< Attention value projection [h, h].
    AttnOutput,   ///< Attention output projection [h, h].
    Intermediate, ///< FFN up-projection [i, h].
    Output,       ///< FFN down-projection [h, i].
    Pooler,       ///< Final pooler [h, h].
};

/** Printable name of an FC kind ("query", "intermediate", ...). */
std::string fcKindName(FcKind kind);

/**
 * Name of one FC layer in trace spans and per-layer counters:
 * "enc[<encoder>].<kind>", or "pooler".
 */
std::string fcLayerLabel(FcKind kind, std::size_t encoder);

/** Architecture hyper-parameters of one model. */
struct ModelConfig
{
    std::string name;          ///< Human-readable name.
    ModelFamily family = ModelFamily::BertBase;
    std::size_t numLayers = 0;     ///< Encoder (BERT layer) count.
    std::size_t hidden = 0;        ///< Hidden state width.
    std::size_t intermediate = 0;  ///< FFN inner width.
    std::size_t numHeads = 0;      ///< Attention heads.
    std::size_t vocabSize = 0;     ///< Word-embedding rows.
    std::size_t maxPosition = 0;   ///< Position-embedding rows.

    /** Head size; hidden must divide evenly by numHeads. */
    std::size_t headDim() const { return hidden / numHeads; }

    /** Number of FC weight matrices (6 per encoder + pooler). */
    std::size_t numFcLayers() const { return numLayers * 6 + 1; }

    /**
     * Parameters in all FC weight matrices (weights only, matching the
     * paper's Table II accounting which excludes biases and layer-norm).
     */
    std::size_t fcWeightParams() const;

    /**
     * Parameters in the word-embedding table (the paper's Table II/VII
     * "Embedding Tables" row counts the word table only; the reported
     * MB figures are MiB of vocab x hidden FP32 values).
     */
    std::size_t wordEmbeddingParams() const { return vocabSize * hidden; }

    /** Validate internal consistency; fatal on error. */
    void check() const;
};

/** Full-size configuration with the released checkpoint dimensions. */
ModelConfig fullConfig(ModelFamily family);

/**
 * Reduced-dimension configuration for accuracy experiments. Layer count
 * and component structure match the family; hidden sizes are scaled so
 * a forward pass is cheap. Deterministic per family.
 */
ModelConfig miniConfig(ModelFamily family);

/** All five families, in the paper's presentation order. */
std::vector<ModelFamily> allFamilies();

} // namespace gobo

#endif // GOBO_MODEL_CONFIG_HH
