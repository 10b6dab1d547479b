/**
 * @file
 * Parameter store for a BERT-family model.
 *
 * Holds every tensor of the encoder stack in the layout the inference
 * engine consumes, and exposes the flat list of FC weight matrices that
 * the quantizer operates on (the paper quantizes FC weights and the
 * word-embedding table; biases and layer-norm parameters stay FP32 and
 * are excluded from the paper's size accounting).
 */

#ifndef GOBO_MODEL_MODEL_HH
#define GOBO_MODEL_MODEL_HH

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "model/config.hh"
#include "tensor/tensor.hh"

namespace gobo {

/** Parameters of one encoder (BERT layer). */
struct EncoderWeights
{
    // Attention component: four FCs plus the post-attention layer norm.
    Tensor queryW, queryB;   ///< [h, h], [h]
    Tensor keyW, keyB;       ///< [h, h], [h]
    Tensor valueW, valueB;   ///< [h, h], [h]
    Tensor attnOutW, attnOutB; ///< [h, h], [h]
    Tensor attnLnGamma, attnLnBeta; ///< [h], [h]

    // Intermediate component: the FFN up-projection.
    Tensor interW, interB;   ///< [i, h], [i]

    // Output component: down-projection plus the output layer norm.
    Tensor outW, outB;       ///< [h, i], [h]
    Tensor outLnGamma, outLnBeta; ///< [h], [h]
};

/**
 * Reference to one FC layer inside a model, carrying the metadata the
 * quantization policies and the per-layer census need.
 */
struct FcLayerRef
{
    std::string name;       ///< e.g. "encoder3.value".
    FcKind kind;            ///< Component kind.
    std::size_t encoder;    ///< Encoder index; numLayers for the pooler.
    Tensor *weight;         ///< The [out, in] weight matrix.
    Tensor *bias;           ///< The [out] bias.
};

/** Const view counterpart of FcLayerRef. */
struct ConstFcLayerRef
{
    std::string name;
    FcKind kind;
    std::size_t encoder;
    const Tensor *weight;
    const Tensor *bias;
};

/**
 * A complete model: embeddings, encoder stack, pooler, and a task head.
 * The head shape depends on the task (3 classes for MNLI-like, 1 output
 * for STS-B-like, 2 outputs per token for SQuAD-like).
 */
class BertModel
{
  public:
    /** Allocate all tensors (zero-filled) for the given configuration. */
    explicit BertModel(ModelConfig config);

    const ModelConfig &config() const { return cfg; }

    Tensor wordEmbedding;   ///< [vocab, h]
    Tensor positionEmbedding; ///< [maxPosition, h]
    Tensor embLnGamma, embLnBeta; ///< [h], [h]

    std::vector<EncoderWeights> encoders;

    Tensor poolerW, poolerB; ///< [h, h], [h]

    Tensor headW, headB;     ///< [outputs, h], [outputs]

    /**
     * Enumerate all FC weight matrices in the paper's layer order:
     * encoder 0 (query, key, value, attn_output, intermediate, output),
     * encoder 1, ..., pooler. This is the x-axis of Fig. 3.
     */
    std::vector<FcLayerRef> fcLayers();
    std::vector<ConstFcLayerRef> fcLayers() const;

    /** Weight [out, in] and bias [out] of FC layer `kind` of `encoder`
     * (numLayers for the pooler). */
    std::pair<const Tensor &, const Tensor &>
    fcLayer(FcKind kind, std::size_t encoder) const;

    /**
     * A copy of the FP32 parameters around the FC layers — embeddings,
     * layer norms and the task head — with every FC weight and bias
     * left empty: what an engine that runs the FC layers from another
     * representation keeps of the model (core/qexec.hh).
     */
    BertModel withoutFcLayers() const;

    /** A model of `config` with every tensor empty, for loaders. */
    static BertModel unallocated(ModelConfig config);

    /** Resize the task head to `outputs` rows. */
    void resizeHead(std::size_t outputs);

    /** Total FP32 parameter count held by this object. */
    std::size_t parameterCount() const;

  private:
    BertModel() = default; ///< Nothing allocated; see unallocated.

    ModelConfig cfg;
};

} // namespace gobo

#endif // GOBO_MODEL_MODEL_HH
