/**
 * @file
 * Forward-only transformer encoder — the one encoder every engine runs.
 *
 * Implements Fig. 1a of the paper: per encoder, an Attention component
 * (query/key/value projections, scaled dot-product multi-head
 * attention, output projection, residual + layer norm), an Intermediate
 * component (FFN up-projection with GELU) and an Output component
 * (down-projection, residual + layer norm); an embedding front end and
 * the Pooler after the last encoder. GOBO changes only the FC layers,
 * so every FC layer goes through one seam (FcForward) and everything
 * else is the same FP32 code for the dense and the packed engine.
 *
 * Each stage takes an ExecContext: projections and norms dispatch
 * row-blocked to the backend, and multi-head attention parallelizes
 * over heads (each head owns a disjoint column slice of the context
 * tensor and its own score buffer). The context-free overloads run
 * serially; both backends are bit-identical (see DESIGN.md §7).
 */

#ifndef GOBO_NN_ENCODER_HH
#define GOBO_NN_ENCODER_HH

#include <cstdint>
#include <functional>
#include <span>

#include "exec/context.hh"
#include "model/model.hh"
#include "tensor/tensor.hh"

namespace gobo {

/**
 * The FC-layer seam: y = x * W^T + b for FC layer `kind` of encoder
 * `encoder` (numLayers for the pooler), x of shape [rows, in].
 */
using FcForward = std::function<Tensor(const ExecContext &ctx, FcKind kind,
                                       std::size_t encoder,
                                       const Tensor &x)>;

/**
 * A model as the encoder runs it: the FP32 parameters around the FC
 * layers (embeddings, layer norms, task head) read from `params`, and
 * every FC layer computed by `fc`. A BertModel converts implicitly,
 * with linear() over its own FC weights as the seam; the packed engine
 * pairs a model without FC layers with QuantizedLinear::forward
 * (core/qexec.hh). Holds references: it must not outlive the model.
 */
struct Engine
{
    Engine(const BertModel &model);
    Engine(const BertModel &params, FcForward fc);

    const BertModel &params;
    FcForward fc;
};

/**
 * Embedding front end: word embedding + position embedding, then the
 * embedding layer norm. Token ids must be < vocabSize and the sequence
 * no longer than maxPosition.
 */
Tensor embedTokens(const ExecContext &ctx, const BertModel &model,
                   std::span<const std::int32_t> token_ids);
Tensor embedTokens(const BertModel &model,
                   std::span<const std::int32_t> token_ids);

/**
 * Multi-head scaled dot-product attention over pre-projected Q, K, V
 * ([seq, h] each); heads are contiguous column slices of width
 * h / num_heads.
 */
Tensor multiHeadAttention(const ExecContext &ctx, const Tensor &q,
                          const Tensor &k, const Tensor &v,
                          std::size_t num_heads);
Tensor multiHeadAttention(const Tensor &q, const Tensor &k,
                          const Tensor &v, std::size_t num_heads);

/**
 * Encoder layer `e`: multi-head self-attention and FFN with residuals
 * and layer norms, as in Fig. 1a. Each FC layer runs through the
 * engine's seam inside a trace span named fcLayerLabel(kind, e).
 */
Tensor encoderForward(const ExecContext &ctx, const Engine &engine,
                      std::size_t e, const Tensor &hidden);
Tensor encoderForward(const Engine &engine, std::size_t e,
                      const Tensor &hidden);

/** Run the embedding front end and the whole encoder stack. */
Tensor encodeSequence(const ExecContext &ctx, const Engine &engine,
                      std::span<const std::int32_t> token_ids);
Tensor encodeSequence(const Engine &engine,
                      std::span<const std::int32_t> token_ids);

/** The BERT pooler: first token through a Linear + tanh. Returns [1,h]. */
Tensor pool(const ExecContext &ctx, const Engine &engine,
            const Tensor &hidden);
Tensor pool(const Engine &engine, const Tensor &hidden);

/** Task-head logits over the pooled vector. Returns [outputs]. */
Tensor headLogits(const ExecContext &ctx, const BertModel &model,
                  const Tensor &pooled);
Tensor headLogits(const BertModel &model, const Tensor &pooled);

/** Classification logits for one sequence: encode, pool, task head. */
Tensor classify(const ExecContext &ctx, const Engine &engine,
                std::span<const std::int32_t> token_ids);

/**
 * Span-extraction logits (SQuAD-like head): per-token start and end
 * scores. headW must be [2, hidden]; returns [seq, 2].
 */
Tensor spanLogits(const ExecContext &ctx, const BertModel &model,
                  const Tensor &hidden);
Tensor spanLogits(const BertModel &model, const Tensor &hidden);

} // namespace gobo

#endif // GOBO_NN_ENCODER_HH
