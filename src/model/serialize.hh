/**
 * @file
 * Binary serialization of FP32 models.
 *
 * A simple versioned container ("GOBM") holding the configuration and
 * every tensor of a BertModel. Used by the examples and integration
 * tests to demonstrate the generate -> save -> load -> quantize ->
 * infer pipeline, and as the uncompressed-size reference for on-disk
 * compression-ratio measurements.
 */

#ifndef GOBO_MODEL_SERIALIZE_HH
#define GOBO_MODEL_SERIALIZE_HH

#include <iosfwd>
#include <string>

#include "model/model.hh"
#include "tensor/tensor.hh"

namespace gobo {

/** Write one tensor (rank, dims, raw FP32 payload). */
void writeTensor(std::ostream &os, const Tensor &t);

/** Read one tensor written by writeTensor. Fatal on malformed input. */
Tensor readTensor(std::istream &is);

/**
 * The header GOBM and GOBC share after magic and version: the config,
 * then the head's output count. Reading is fatal on implausible dims.
 */
void writeModelHeader(std::ostream &os, const ModelConfig &config,
                      std::size_t head_outputs);
ModelConfig readModelHeader(std::istream &is, std::size_t &head_outputs);

/** Serialize a whole model to a stream. */
void saveModel(std::ostream &os, const BertModel &model);

/** Serialize a whole model to a file. Fatal if the file cannot open. */
void saveModel(const std::string &path, const BertModel &model);

/** Load a model written by saveModel. Fatal on malformed input. */
BertModel loadModel(std::istream &is);

/** Load a model from a file. Fatal if the file cannot open. */
BertModel loadModel(const std::string &path);

} // namespace gobo

#endif // GOBO_MODEL_SERIALIZE_HH
