#include "exec/session.hh"

#include "kernels/kernels.hh"
#include "nn/encoder.hh"
#include "obs/observer.hh"
#include "obs/probe.hh"
#include "util/logging.hh"

namespace gobo {

namespace {

/**
 * Bump exec.kernel.<tier> for the tier this context resolves to, so
 * every metrics dump names the SIMD tier that produced its numbers
 * (bench JSON refuses cross-tier diffs on this field).
 */
void
recordKernelTier(const ExecContext &ctx)
{
    if (ctx.obs)
        ctx.obs->metrics.add(
            ctx.obs->kernelTierId(resolveKernels(ctx.kernels).name));
}

/**
 * RAII sequence accounting: tokens + sequence count on entry, latency
 * histogram on exit. A null observer costs one branch at each end.
 */
class SequenceProbe
{
  public:
    SequenceProbe(Observer *obs, std::size_t tokens) : obs(obs)
    {
        if (obs) {
            obs->metrics.add(obs->sessionSequences);
            obs->metrics.add(obs->sessionTokens, tokens);
            beginUs = obs->tracer.nowUs();
        }
    }

    SequenceProbe(const SequenceProbe &) = delete;
    SequenceProbe &operator=(const SequenceProbe &) = delete;

    ~SequenceProbe()
    {
        if (obs)
            obs->metrics.observe(obs->sequenceLatencyUs,
                                 obs->tracer.nowUs() - beginUs);
    }

  private:
    Observer *obs;
    double beginUs = 0.0;
};

/** Batch-level counterpart: batch counter + batch-latency histogram
 * wrapped around a span covering the whole batched call. */
class BatchProbe
{
  public:
    BatchProbe(Observer *obs, const char *name)
        : obs(obs), span(obs, name)
    {
        if (obs) {
            obs->metrics.add(obs->sessionBatches);
            beginUs = obs->tracer.nowUs();
        }
    }

    BatchProbe(const BatchProbe &) = delete;
    BatchProbe &operator=(const BatchProbe &) = delete;

    ~BatchProbe()
    {
        if (obs)
            obs->metrics.observe(obs->batchLatencyUs,
                                 obs->tracer.nowUs() - beginUs);
    }

  private:
    Observer *obs;
    ScopedSpan span;
    double beginUs = 0.0;
};

} // namespace

InferenceSession::InferenceSession(BertModel model, ExecContext c)
    : ctx(c), fp32(std::move(model))
{
}

InferenceSession::InferenceSession(QuantizedBertModel model,
                                   ExecContext c)
    : ctx(c), quantized(std::move(model))
{
}

const BertModel &
InferenceSession::model() const
{
    fatalIf(!fp32, "InferenceSession::model() on a compressed session");
    return *fp32;
}

std::size_t
InferenceSession::residentWeightBytes() const
{
    if (quantized)
        return quantized->residentWeightBytes();
    return fp32->config().fcWeightParams() * sizeof(float);
}

const ModelConfig &
InferenceSession::config() const
{
    return fp32 ? fp32->config() : quantized->config();
}

Engine
InferenceSession::engine() const
{
    return fp32 ? Engine(*fp32) : quantized->engine();
}

Tensor
InferenceSession::encodeSequence(
    std::span<const std::int32_t> tokens) const
{
    SequenceProbe probe(ctx.obs, tokens.size());
    ScopedSpan span(ctx.obs, "session.encode");
    recordKernelTier(ctx);
    return gobo::encodeSequence(ctx, engine(), tokens);
}

Tensor
InferenceSession::headLogits(std::span<const std::int32_t> tokens) const
{
    SequenceProbe probe(ctx.obs, tokens.size());
    ScopedSpan span(ctx.obs, "session.headLogits");
    recordKernelTier(ctx);
    Tensor logits = classify(ctx, engine(), tokens);
    // Both engines emit at the same point, so a Capture run on the
    // FP32 session pairs with a Compare run on the quantized one.
    probeActivation(ctx.obs, "logits", logits);
    return logits;
}

Tensor
InferenceSession::spanLogits(std::span<const std::int32_t> tokens) const
{
    fatalIf(!fp32, "spanLogits needs the FP32 engine");
    recordKernelTier(ctx);
    Tensor hidden = gobo::encodeSequence(ctx, *fp32, tokens);
    return gobo::spanLogits(ctx, *fp32, hidden);
}

ExecContext
InferenceSession::innerContext() const
{
    // Batch-level and intra-sequence parallelism compose: a
    // per-sequence loop submitted from inside a batch slot lands on
    // the submitting worker's own deque, where threads that finished
    // their (possibly shorter) sequences steal it. The historical
    // serial degrade once batch_size >= threads left threads idle for
    // the whole tail of a skewed batch; with stealing, handing the
    // unchanged context down is both the simple and the fast choice.
    // Either composition is bit-identical — scheduling never touches
    // reduction order — so this is purely a scheduling decision. The
    // observer and kernel tier ride along with the context.
    return ctx;
}

std::vector<Tensor>
InferenceSession::encodeBatch(const TokenBatch &batch) const
{
    BatchProbe probe(ctx.obs, "session.encodeBatch");
    recordKernelTier(ctx);
    std::vector<Tensor> out(batch.size());
    ExecContext inner = innerContext();
    ctx.parallelFor(batch.size(), [&](std::size_t i) {
        SequenceProbe seq_probe(inner.obs, batch[i].size());
        ScopedSpan span(inner.obs, "sequence", i);
        out[i] = gobo::encodeSequence(inner, engine(), batch[i]);
    });
    return out;
}

std::vector<Tensor>
InferenceSession::headLogitsBatch(const TokenBatch &batch) const
{
    return headLogitsBatch(batch, {});
}

std::vector<Tensor>
InferenceSession::headLogitsBatch(
    const TokenBatch &batch,
    std::span<const std::uint64_t> requestIds) const
{
    fatalIf(!requestIds.empty() && requestIds.size() != batch.size(),
            "headLogitsBatch: ", requestIds.size(), " request ids for ",
            batch.size(), " sequences");
    BatchProbe probe(ctx.obs, "session.headLogitsBatch");
    recordKernelTier(ctx);
    std::vector<Tensor> out(batch.size());
    ExecContext inner = innerContext();
    ctx.parallelFor(batch.size(), [&](std::size_t i) {
        SequenceProbe seq_probe(inner.obs, batch[i].size());
        ScopedSpan span(inner.obs, "sequence", i);
        if (!requestIds.empty())
            span.arg("request", requestIds[i]);
        out[i] = classify(inner, engine(), batch[i]);
    });
    return out;
}

} // namespace gobo
