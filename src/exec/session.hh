/**
 * @file
 * InferenceSession — the serving entry point over the execution stack.
 *
 * A session owns a model (FP32 BertModel or compressed-domain
 * QuantizedBertModel) together with the ExecContext it runs under, and
 * exposes single-sequence and batched forward passes. Batched calls
 * parallelize *across* sequences on the context's pool, and each
 * per-sequence forward keeps its own intra-sequence parallelism: the
 * pool composes the two levels by sharing nested submissions onto the
 * worker deques, so when sequence lengths are skewed the threads that
 * finish short sequences steal tile tasks from the long ones instead
 * of idling. Composition only moves work between threads, so batch
 * results stay bit-identical to one-at-a-time calls (and to the
 * serial backend) — the determinism contract DESIGN.md §12 documents.
 * The CLI `infer` command, the examples, and bench/micro_forward all
 * drive inference through this class instead of ad-hoc encoder calls.
 */

#ifndef GOBO_EXEC_SESSION_HH
#define GOBO_EXEC_SESSION_HH

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/qexec.hh"
#include "exec/context.hh"
#include "model/model.hh"
#include "nn/encoder.hh"
#include "tensor/tensor.hh"

namespace gobo {

/** A batch of token sequences. */
using TokenBatch = std::vector<std::vector<std::int32_t>>;

/**
 * Total tokens across a batch — the sum of per-sequence lengths, NOT
 * batch.size() * batch[0].size(): mixed-length batches are the norm
 * under serving load, and throughput computed from the first
 * sequence's length is simply wrong there. Every tokens/sec report
 * over a TokenBatch goes through this.
 */
inline std::size_t
batchTokens(const TokenBatch &batch)
{
    std::size_t tokens = 0;
    for (const auto &seq : batch)
        tokens += seq.size();
    return tokens;
}

/** A model + execution context bound together for repeated inference. */
class InferenceSession
{
  public:
    /** Serve an FP32 model under `ctx`. */
    InferenceSession(BertModel model, ExecContext ctx = {});

    /** Serve a compressed-domain model under `ctx`. */
    InferenceSession(QuantizedBertModel model, ExecContext ctx = {});

    /** True when executing from the compressed format. */
    bool compressed() const { return quantized.has_value(); }

    /**
     * Bytes of FC-weight state the forward pass streams: FP32 weights
     * for the dense engine, the packed index stream plus
     * centroid/outlier state for the compressed one.
     */
    std::size_t residentWeightBytes() const;

    const ExecContext &context() const { return ctx; }

    /** Rebind the execution context (e.g. to switch backends). */
    void setContext(ExecContext c) { ctx = c; }

    /**
     * The FP32 model, for callers that need weight access (task
     * harness, span head). Fatal on a compressed session.
     */
    const BertModel &model() const;

    const ModelConfig &config() const;

    /** Hidden states [seq, hidden] for one sequence. */
    Tensor encodeSequence(std::span<const std::int32_t> tokens) const;

    /** Classification-head logits [outputs] for one sequence. */
    Tensor headLogits(std::span<const std::int32_t> tokens) const;

    /**
     * Span-extraction logits [seq, 2] for one sequence (FP32 engine
     * only — the compressed engine keeps the span head FP32-free).
     */
    Tensor spanLogits(std::span<const std::int32_t> tokens) const;

    /** encodeSequence over a batch, parallel across sequences. */
    std::vector<Tensor> encodeBatch(const TokenBatch &batch) const;

    /** headLogits over a batch, parallel across sequences. */
    std::vector<Tensor> headLogitsBatch(const TokenBatch &batch) const;

    /**
     * headLogitsBatch with request correlation: `requestIds[i]` is
     * stamped onto lane i's "sequence" trace span as a "request" arg,
     * so a serve tile's per-lane spans link back to the requests they
     * served. Ids are observability-only — the math and scheduling
     * are identical to the overload above. Must match batch.size().
     */
    std::vector<Tensor>
    headLogitsBatch(const TokenBatch &batch,
                    std::span<const std::uint64_t> requestIds) const;

  private:
    /** The FP32 model or the compressed model's engine: the one place
     * a forward pass branches on the engine. */
    Engine engine() const;

    /**
     * Context for the per-sequence forward inside a batched call. The
     * session's own context rides through unchanged: intra-sequence
     * loops become nested pool submissions that compose with the
     * batch-level loop by work-stealing, rather than the historical
     * all-or-nothing serial degrade once batch_size >= threads.
     */
    ExecContext innerContext() const;

    ExecContext ctx;
    std::optional<BertModel> fp32;
    std::optional<QuantizedBertModel> quantized;
};

} // namespace gobo

#endif // GOBO_EXEC_SESSION_HH
