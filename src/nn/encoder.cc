#include "nn/encoder.hh"

#include <cmath>

#include "kernels/kernels.hh"
#include "obs/observer.hh"
#include "obs/probe.hh"
#include "tensor/ops.hh"
#include "util/logging.hh"

namespace gobo {

namespace {

/**
 * FC layer (kind, e) through the engine's seam, inside its trace span:
 * the one place FC spans are emitted, so every engine traces the same
 * tree. The label is built only when an observer is attached.
 */
Tensor
runFc(const ExecContext &ctx, const Engine &engine, FcKind kind,
      std::size_t e, const Tensor &x)
{
    ScopedSpan span(ctx.obs,
                    ctx.obs ? fcLayerLabel(kind, e) : std::string());
    return engine.fc(ctx, kind, e, x);
}

} // namespace

Engine::Engine(const BertModel &model)
    : params(model),
      fc([&model](const ExecContext &ctx, FcKind kind, std::size_t e,
                  const Tensor &x) {
          auto [w, b] = model.fcLayer(kind, e);
          return linear(ctx, x, w, b);
      })
{
}

Engine::Engine(const BertModel &p, FcForward f)
    : params(p), fc(std::move(f))
{
}

Tensor
embedTokens(const ExecContext &ctx, const BertModel &model,
            std::span<const std::int32_t> token_ids)
{
    const auto &cfg = model.config();
    fatalIf(token_ids.empty(), "embedTokens on empty sequence");
    fatalIf(token_ids.size() > cfg.maxPosition, "sequence length ",
            token_ids.size(), " exceeds maxPosition ", cfg.maxPosition);

    Tensor x(token_ids.size(), cfg.hidden);
    for (std::size_t s = 0; s < token_ids.size(); ++s) {
        auto id = token_ids[s];
        fatalIf(id < 0 || static_cast<std::size_t>(id) >= cfg.vocabSize,
                "token id ", id, " out of vocab ", cfg.vocabSize);
        auto word = model.wordEmbedding.row(static_cast<std::size_t>(id));
        auto posv = model.positionEmbedding.row(s);
        auto dst = x.row(s);
        for (std::size_t c = 0; c < dst.size(); ++c)
            dst[c] = word[c] + posv[c];
    }
    layerNormInplace(ctx, x, model.embLnGamma.flat(),
                     model.embLnBeta.flat());
    return x;
}

Tensor
embedTokens(const BertModel &model, std::span<const std::int32_t> token_ids)
{
    return embedTokens(ExecContext::serial(), model, token_ids);
}

Tensor
multiHeadAttention(const ExecContext &ectx, const Tensor &q,
                   const Tensor &k, const Tensor &v,
                   std::size_t num_heads)
{
    std::size_t seq = q.rows(), h = q.cols();
    panicIf(h % num_heads != 0, "hidden not divisible by heads");
    std::size_t dh = h / num_heads;
    float scale = 1.0f / std::sqrt(static_cast<float>(dh));

    const KernelSet &kn = resolveKernels(ectx.kernels);
    Tensor ctx(seq, h);
    // Heads are independent: each owns the column slice
    // [head*dh, (head+1)*dh) of ctx and scores only itself, so
    // dispatching heads to the backend is race-free and order
    // preserving per element. The score dot, the row softmax and the
    // value accumulation (an axpy per attended token) all go through
    // the caller's kernel tier so one forward never mixes tiers.
    // Cost hint: per head, seq^2 score dots + softmax + value axpys,
    // ~4*seq*seq*dh flops — tiny attention blocks stay inline.
    ectx.parallelFor(num_heads, 4 * seq * seq * dh,
                     [&](std::size_t head) {
        Tensor scores(seq, seq);
        std::size_t off = head * dh;
        for (std::size_t i = 0; i < seq; ++i) {
            const float *qi = q.row(i).data() + off;
            float *srow = scores.row(i).data();
            for (std::size_t j = 0; j < seq; ++j) {
                const float *kj = k.row(j).data() + off;
                srow[j] = kn.dot(0.0f, qi, kj, dh) * scale;
            }
        }
        for (std::size_t i = 0; i < seq; ++i)
            kn.softmaxRow(scores.row(i).data(), seq);
        for (std::size_t i = 0; i < seq; ++i) {
            const float *srow = scores.row(i).data();
            float *crow = ctx.row(i).data() + off;
            for (std::size_t j = 0; j < seq; ++j)
                kn.axpy(srow[j], v.row(j).data() + off, crow, dh);
        }
    });
    return ctx;
}

Tensor
multiHeadAttention(const Tensor &q, const Tensor &k, const Tensor &v,
                   std::size_t num_heads)
{
    return multiHeadAttention(ExecContext::serial(), q, k, v, num_heads);
}

Tensor
encoderForward(const ExecContext &ectx, const Engine &engine,
               std::size_t e, const Tensor &hidden)
{
    // Spans bracket whole components; they never reorder or touch the
    // arithmetic, so traced and untraced runs are bit-identical.
    const EncoderWeights &enc = engine.params.encoders[e];
    auto fc = [&](FcKind kind, const Tensor &x) {
        return runFc(ectx, engine, kind, e, x);
    };
    Tensor x;
    {
        ScopedSpan span(ectx.obs, "attention");
        Tensor q = fc(FcKind::Query, hidden);
        Tensor k = fc(FcKind::Key, hidden);
        Tensor v = fc(FcKind::Value, hidden);
        Tensor ctx = multiHeadAttention(ectx, q, k, v,
                                        engine.params.config().numHeads);
        Tensor attn_out = fc(FcKind::AttnOutput, ctx);
        x = add(hidden, attn_out);
    }
    {
        ScopedSpan span(ectx.obs, "layernorm");
        layerNormInplace(ectx, x, enc.attnLnGamma.flat(),
                         enc.attnLnBeta.flat());
    }

    Tensor y;
    {
        ScopedSpan span(ectx.obs, "ffn");
        // Intermediate component.
        Tensor inter = fc(FcKind::Intermediate, x);
        geluInplace(ectx, inter);
        // Output component.
        Tensor out = fc(FcKind::Output, inter);
        y = add(x, out);
    }
    {
        ScopedSpan span(ectx.obs, "layernorm");
        layerNormInplace(ectx, y, enc.outLnGamma.flat(),
                         enc.outLnBeta.flat());
    }
    return y;
}

Tensor
encoderForward(const Engine &engine, std::size_t e, const Tensor &hidden)
{
    return encoderForward(ExecContext::serial(), engine, e, hidden);
}

Tensor
encodeSequence(const ExecContext &ctx, const Engine &engine,
               std::span<const std::int32_t> token_ids)
{
    Tensor x;
    {
        ScopedSpan span(ctx.obs, "embed");
        x = embedTokens(ctx, engine.params, token_ids);
    }
    probeActivation(ctx.obs, "embed", x);
    for (std::size_t e = 0; e < engine.params.encoders.size(); ++e) {
        {
            ScopedSpan span(ctx.obs, "layer", e);
            x = encoderForward(ctx, engine, e, x);
        }
        if (probeAttached(ctx.obs))
            probeActivation(ctx.obs,
                            "layer[" + std::to_string(e) + "]", x);
    }
    return x;
}

Tensor
encodeSequence(const Engine &engine,
               std::span<const std::int32_t> token_ids)
{
    return encodeSequence(ExecContext::serial(), engine, token_ids);
}

Tensor
pool(const ExecContext &ctx, const Engine &engine, const Tensor &hidden)
{
    fatalIf(hidden.rows() == 0, "pool on empty hidden state");
    Tensor first(1, hidden.cols());
    auto src = hidden.row(0);
    auto dst = first.row(0);
    std::copy(src.begin(), src.end(), dst.begin());
    Tensor pooled = runFc(ctx, engine, FcKind::Pooler,
                          engine.params.encoders.size(), first);
    tanhInplace(ctx, pooled);
    return pooled;
}

Tensor
pool(const Engine &engine, const Tensor &hidden)
{
    return pool(ExecContext::serial(), engine, hidden);
}

Tensor
headLogits(const ExecContext &ctx, const BertModel &model,
           const Tensor &pooled)
{
    Tensor logits2d = linear(ctx, pooled, model.headW, model.headB);
    Tensor logits(logits2d.cols());
    auto src = logits2d.row(0);
    std::copy(src.begin(), src.end(), logits.flat().begin());
    return logits;
}

Tensor
headLogits(const BertModel &model, const Tensor &pooled)
{
    return headLogits(ExecContext::serial(), model, pooled);
}

Tensor
classify(const ExecContext &ctx, const Engine &engine,
         std::span<const std::int32_t> token_ids)
{
    Tensor hidden = encodeSequence(ctx, engine, token_ids);
    return headLogits(ctx, engine.params, pool(ctx, engine, hidden));
}

Tensor
spanLogits(const ExecContext &ctx, const BertModel &model,
           const Tensor &hidden)
{
    fatalIf(model.headW.rows() != 2,
            "span head needs a [2, hidden] headW, got ",
            model.headW.rows(), " rows");
    return linear(ctx, hidden, model.headW, model.headB);
}

Tensor
spanLogits(const BertModel &model, const Tensor &hidden)
{
    return spanLogits(ExecContext::serial(), model, hidden);
}

} // namespace gobo
