/**
 * @file
 * Direct execution from the GOBO format.
 *
 * Because 99.9% of a layer's weights take one of only 2^B values, a
 * weight is fully described by its B-bit index into a small centroid
 * table, plus a sparse list of outlier corrections:
 *
 *   y_o = bias_o + sum_i c[idx_oi] x_i  +  sum_outliers (w - c[idx]) x_i
 *
 * The paper's accelerator turns this into a bucket datapath: per
 * output, add the activations into 2^B buckets steered by the
 * indexes, then do 2^B multiplies by the table. opCounts() and the
 * memsim model (obs/audit.hh) keep that datapath as the analytic
 * model of the hardware. The software engine here instead treats the
 * index decoder as a lookup in front of an ordinary MAC: the weight
 * row stays in B-bit (or byte) form, each weight is looked up in
 * registers right before its fused multiply-add, and the centroid
 * table never leaves a vector register for B <= 4
 * (KernelSet::centroidFma). The index stream stays packed in memory;
 * each task decodes its block of rows into a per-thread buffer
 * (exec/scratch.hh) right before the kernel streams over it. That
 * streams B/32 of the fp32 weight bytes at FMA speed, which is where
 * the latency claim comes from.
 */

#ifndef GOBO_CORE_QEXEC_HH
#define GOBO_CORE_QEXEC_HH

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "core/quantizer.hh"
#include "exec/context.hh"
#include "kernels/kernels.hh"
#include "model/model.hh"
#include "nn/encoder.hh"
#include "tensor/tensor.hh"

namespace gobo {

/** Operation counts for one forward pass. */
struct OpCounts
{
    std::size_t additions = 0;
    std::size_t multiplications = 0;

    OpCounts &
    operator+=(const OpCounts &o)
    {
        additions += o.additions;
        multiplications += o.multiplications;
        return *this;
    }
};

/**
 * An FC layer executed directly from its compressed representation:
 * y = x * W^T + bias with W held as (indexes, centroid table,
 * outliers) — never decoded to FP32.
 *
 * Only the B-bit index stream is resident. Rows are decoded to one
 * byte per index through the executing tier's
 * KernelSet::decodePackedRow — the generic decoder uses a per-byte LUT
 * (B dividing 8), a per-3-byte-group extraction (B = 3), or a scalar
 * two-byte window (B = 5..7); the avx512 tier expands 64 indexes at a
 * time in-register for B <= 6. Decode is integer-exact, so every tier
 * produces identical bytes and feeds the identical centroidFma
 * arithmetic — outputs are bit-identical across tiers.
 */
class QuantizedLinear
{
  public:
    /**
     * Take ownership of the compressed weights and FP32 bias. `label`
     * names this layer's qexec.layer.<label>.* counters and has no
     * effect on compute (fcLayerLabel() when built by
     * QuantizedBertModel).
     */
    QuantizedLinear(QuantizedTensor weights, Tensor bias,
                    std::string label = "qlinear");

    /**
     * Forward pass: y = x * W^T + bias for x of shape [seq, in]. The
     * layer's weight rows are split into blocks over a flop-gated
     * 2-D grid (output-row blocks x groups of kFcRows activation
     * rows) on the context's backend. A task decodes its block's
     * index rows into the worker's decode buffer (exec/scratch.hh)
     * and runs the executing tier's KernelSet::centroidFma on up to
     * kFcRows rows of x at a time, read in place (no transpose). Every
     * y(s, o) is one centroidFma output in the canonical order of
     * kernels/kernels.hh (16 fmaf partials, a fixed +8/+4/+2/+1 tree,
     * bias, outlier fmafs), so backends, kernel tiers, thread counts
     * and grid shapes are all bit-identical. The hot path never
     * allocates after warm-up (besides the returned tensor).
     *
     * With an observer on the context, each call records qexec.*
     * counters: rows decoded (once per activation block that decodes
     * them), weight bytes streamed, outlier corrections applied, and
     * which decode path ran (decode.lut / decode.group24 /
     * decode.scalar).
     * Instrumentation happens outside the kernel loops and never
     * touches float math.
     */
    Tensor forward(const ExecContext &ctx, const Tensor &x) const;
    Tensor forward(const Tensor &x) const;

    /**
     * Operations the accelerator's bucket datapath performs for a
     * forward at this sequence length: `in` bucket additions plus k
     * table terms per output, k table multiplies per output, and one
     * correction MAC per outlier. An analytic model (audit, memsim),
     * not a count of what forward() executes.
     */
    OpCounts opCounts(std::size_t seq) const;

    /** Operations the FP32 dense equivalent performs. */
    OpCounts denseOpCounts(std::size_t seq) const;

    /** Output features. */
    std::size_t outFeatures() const { return weights.rows; }

    /** Input features. */
    std::size_t inFeatures() const { return weights.cols; }

    /** The compressed weights (for storage accounting). */
    const QuantizedTensor &compressed() const { return weights; }

    /** The FP32 bias [out]. */
    const Tensor &fp32Bias() const { return bias; }

    /** This layer's name in trace spans and counters. */
    const std::string &spanLabel() const { return label; }

    /**
     * Bytes of weight state the forward pass actually streams: the
     * packed index stream plus the centroid table and outlier pairs
     * (bias excluded, matching the paper's FC-weights accounting).
     */
    std::size_t residentBytes() const;

  private:
    QuantizedTensor weights;
    Tensor bias;
    std::string label;
    /**
     * One (column, correction) pair per outlier, grouped by row in
     * ascending column order, in the kernel layer's layout
     * (kernels/kernels.hh) so a row's slice goes straight to
     * centroidFma.
     */
    std::vector<OutlierTerm> outliers;
    std::vector<std::uint32_t> outlierRowStart; ///< rows+1 offsets.
};

/**
 * A whole model executing its FC layers from the compressed format.
 * Embeddings, biases, layer norms and the head stay FP32 (as in the
 * paper) and the forward pass is the shared encoder of nn/encoder.hh:
 * engine() hands it this model's FP32 parameters with every FC layer
 * run by QuantizedLinear::forward.
 */
class QuantizedBertModel
{
  public:
    /**
     * Quantize `model` per `options` (`model` is not modified), filling
     * `report`, when given, as quantizeModelInPlace does. Copies the
     * FP32 parameters, then quantizes one layer at a time on this
     * thread, ignoring options.threads: on the pool, perfbench set-up
     * fell from 8.3 to 2.4 s but peak RSS rose from 442 to 518-600 MiB
     * (about 24 B per weight of each layer in flight).
     */
    QuantizedBertModel(const BertModel &model,
                       const ModelQuantOptions &options,
                       ModelQuantReport *report = nullptr);

    /**
     * Assemble a model from stored parts, quantizing nothing (the GOBC
     * loader): `params` as withoutFcLayers() leaves them, the FC
     * `layers` in fcLayers() order, and the quantized `embedding` whose
     * decode is params.wordEmbedding, if any.
     */
    QuantizedBertModel(BertModel params,
                       std::vector<QuantizedLinear> layers,
                       std::optional<QuantizedTensor> embedding);

    /** The FP32 model this one decodes to (`gobo decompress`). */
    BertModel dequantize() const;

    /**
     * This model as the shared encoder runs it (encodeSequence,
     * classify, ...). Refers to this object: it must not outlive it.
     */
    Engine engine() const;

    /** Total operations for one sequence. */
    OpCounts opCounts(std::size_t seq) const;

    /** Dense-FP32 operations for the same sequence. */
    OpCounts denseOpCounts(std::size_t seq) const;

    /** Compressed bytes of all FC weights. */
    std::size_t compressedWeightBytes() const;

    /** Sum of QuantizedLinear::residentBytes over all FC layers. */
    std::size_t residentWeightBytes() const;

    /**
     * Visit every FC layer in BertModel::fcLayers() order — encoder 0
     * (query, key, value, attn_output, intermediate, output), encoder
     * 1, ..., pooler — so audits can zip the quantized layers with the
     * FP32 originals.
     */
    void forEachLayer(
        const std::function<void(const QuantizedLinear &)> &fn) const;

    const ModelConfig &config() const { return params.config(); }

    /** FP32 parameters around the FC layers; its FC tensors are empty. */
    const BertModel &fp32Params() const { return params; }

    /** The stored word embedding, when it is quantized. */
    const std::optional<QuantizedTensor> &
    quantizedEmbedding() const
    {
        return embedding;
    }

  private:
    const QuantizedLinear &layer(FcKind kind, std::size_t encoder) const;

    BertModel params;
    /** The 6 * numLayers + 1 FC layers in fcLayers() order. */
    std::vector<QuantizedLinear> layers;
    /** Set when embeddingBits > 0, so a save never quantizes again. */
    std::optional<QuantizedTensor> embedding;
};

} // namespace gobo

#endif // GOBO_CORE_QEXEC_HH
