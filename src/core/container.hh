/**
 * @file
 * The GOBO compressed-model container ("GOBC").
 *
 * This is the deployable artifact of the whole pipeline and the stored
 * form of a QuantizedBertModel (core/qexec.hh): every FC weight matrix
 * in the GOBO format (packed B-bit indexes, FP32 centroid table, FP32
 * outliers), the word embedding optionally quantized the same way, and
 * everything the paper leaves FP32 — biases, layer norms, position
 * embeddings, the task head — stored raw. Loading builds each
 * QuantizedLinear straight from its stored tensor and calls no
 * quantizer, so every layer runs at the width it was stored with.
 * QuantizedBertModel::dequantize() yields the plain FP32 model, which
 * is what makes GOBO "plug-in compatible with any execution engine".
 *
 * The file size is the honest end-to-end measurement behind the
 * compression-ratio claims: compare it against the FP32 model written
 * by saveModel().
 */

#ifndef GOBO_CORE_CONTAINER_HH
#define GOBO_CORE_CONTAINER_HH

#include <iosfwd>
#include <string>

#include "core/qexec.hh"

namespace gobo {

/**
 * Quantize `model` per `options` (QuantizedBertModel's constructor)
 * and write the result. The model itself is not modified. Returns the
 * same accounting quantizeModelInPlace produces.
 */
ModelQuantReport saveCompressedModel(std::ostream &os,
                                     const BertModel &model,
                                     const ModelQuantOptions &options);

/** File variant. Fatal if the file cannot be opened or written. */
ModelQuantReport saveCompressedModel(const std::string &path,
                                     const BertModel &model,
                                     const ModelQuantOptions &options);

/** Write `model` as a container. */
void saveCompressedModel(std::ostream &os, const QuantizedBertModel &model);

/**
 * Load a container as the model it stores. Fatal on malformed input,
 * including a stored tensor whose shape disagrees with the stored
 * config.
 */
QuantizedBertModel loadCompressedModel(std::istream &is);

/** File variant. Fatal if the file cannot be opened. */
QuantizedBertModel loadCompressedModel(const std::string &path);

} // namespace gobo

#endif // GOBO_CORE_CONTAINER_HH
