/**
 * @file
 * Tests for the SIMD kernel layer (kernels/kernels.hh).
 *
 * Pins down the tier contract of DESIGN.md §11:
 *   - the generic tier's fp32 engine is bit-identical to the
 *     pre-kernel-layer scalar code (golden logits), and its quantized
 *     engine reproduces golden logits re-derived from a kernel-free
 *     reference of the canonical quantized-FC order;
 *   - centroidFma is bit-identical across tiers and to that reference,
 *     per kernel call and through QuantizedLinear::forward, for
 *     B = 1..8, row lengths around the 16-lane step, 1..33 activation
 *     rows, serial and parallel;
 *   - packed-row decode (KernelSet::decodePackedRow) is integer-exact
 *     on every tier, for every B, unaligned bit offsets, and lengths
 *     around the 64-index bulk-group boundary;
 *   - the dense/row SIMD kernels match generic to tolerance, on every
 *     masked-tail length, and every kernel propagates NaN/Inf.
 * AVX2 cases skip on hosts without AVX2+FMA; AVX-512 cases skip (with
 * a message) on hosts without F+BW+DQ+VL or when the build lacks the
 * tier.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <utility>
#include <vector>

#include "core/qexec.hh"
#include "core/quantizer.hh"
#include "exec/session.hh"
#include "kernels/kernels.hh"
#include "model/generate.hh"
#include "nn/encoder.hh"
#include "qexec_reference.hh"
#include "tensor/ops.hh"
#include "util/bitstream.hh"
#include "util/rng.hh"

namespace gobo {
namespace {

constexpr float kNan = std::numeric_limits<float>::quiet_NaN();
constexpr float kInf = std::numeric_limits<float>::infinity();

#define SKIP_WITHOUT_AVX2()                                              \
    const KernelSet *avx2 = avx2Kernels();                               \
    if (!avx2)                                                           \
    GTEST_SKIP() << "AVX2+FMA tier unavailable on this host"

#define SKIP_WITHOUT_AVX512()                                            \
    const KernelSet *avx512 = avx512Kernels();                           \
    if (!avx512)                                                         \
    GTEST_SKIP() << "AVX-512 F+BW+DQ+VL tier unavailable on this host "  \
                    "(CPU or build lacks it); cross-tier identity "      \
                    "still covered by generic/avx2"

/** Every tier the host can run; generic is always first. */
std::vector<const KernelSet *>
allTiers()
{
    std::vector<const KernelSet *> tiers = {&genericKernels()};
    if (const KernelSet *a = avx2Kernels())
        tiers.push_back(a);
    if (const KernelSet *a = avx512Kernels())
        tiers.push_back(a);
    return tiers;
}

/** The SIMD tiers only (everything after generic). */
std::vector<const KernelSet *>
simdTiers()
{
    auto tiers = allTiers();
    tiers.erase(tiers.begin());
    return tiers;
}

Tensor
randomTensor(std::size_t r, std::size_t c, std::uint64_t seed)
{
    std::mt19937_64 eng(seed);
    std::normal_distribution<float> n(0.0f, 1.0f);
    Tensor t(r, c);
    for (auto &v : t.flat())
        v = n(eng);
    return t;
}

std::vector<float>
randomVec(std::size_t n, std::uint64_t seed, float stddev = 1.0f)
{
    std::mt19937_64 eng(seed);
    std::normal_distribution<float> d(0.0f, stddev);
    std::vector<float> v(n);
    for (auto &x : v)
        x = d(eng);
    return v;
}

/** The tail-heavy length set every dense/row fuzz sweeps. */
const std::vector<std::size_t> kFuzzLengths = {
    1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17,
    31, 32, 33, 1007};

/** Serial context pinned to one tier. */
ExecContext
tierCtx(const KernelSet &kn)
{
    ExecContext ctx = ExecContext::serial();
    ctx.kernels = &kn;
    return ctx;
}

/** The micro_forward / golden-capture model: mini BERT-base, seed 42,
 * 3-class head, and its fixed 13-token input. */
struct GoldenSetup
{
    BertModel model;
    std::vector<std::int32_t> tokens;
};

GoldenSetup
goldenSetup()
{
    auto cfg = miniConfig(ModelFamily::BertBase);
    GoldenSetup g{generateModel(cfg, 42), {}};
    Rng rng(42 * 31 + 5);
    g.model.resizeHead(3);
    rng.fillGaussian(g.model.headW.data(), 0.0, 0.5);
    rng.fillGaussian(g.model.headB.data(), 0.0, 0.5);
    for (std::size_t t = 0; t < 13; ++t)
        g.tokens.push_back(static_cast<std::int32_t>(rng.integer(
            0, static_cast<int>(cfg.vocabSize) - 1)));
    return g;
}

TEST(Dispatch, GenericTierIsCompleteAndNamed)
{
    const KernelSet &g = genericKernels();
    EXPECT_STREQ(g.name, "generic");
    EXPECT_FALSE(g.reassociates);
    EXPECT_NE(g.dot, nullptr);
    EXPECT_NE(g.axpy, nullptr);
    EXPECT_NE(g.softmaxRow, nullptr);
    EXPECT_NE(g.layerNormRow, nullptr);
    EXPECT_NE(g.geluRow, nullptr);
    EXPECT_NE(g.tanhRow, nullptr);
    EXPECT_NE(g.centroidFma, nullptr);
}

TEST(Dispatch, Avx2TierMatchesCpuid)
{
    const KernelSet *a = avx2Kernels();
    EXPECT_EQ(a != nullptr, cpuSupportsAvx2());
    if (a) {
        EXPECT_STREQ(a->name, "avx2");
        EXPECT_TRUE(a->reassociates);
        EXPECT_EQ(a->seqTile, kSeqTile);
    }
}

TEST(Dispatch, Avx512TierMatchesCpuidAndWidensTile)
{
    const KernelSet *a = avx512Kernels();
    if (a) {
        EXPECT_TRUE(cpuSupportsAvx512());
        EXPECT_STREQ(a->name, "avx512");
        EXPECT_TRUE(a->reassociates);
        EXPECT_EQ(a->seqTile, 16u);
        EXPECT_LE(a->seqTile, kMaxSeqTile);
        EXPECT_NE(a->decodePackedRow, nullptr);
    }
    // avx512Kernels() may be null on a supporting CPU when the *build*
    // lacks the tier, so only the one-way implication holds.
    if (!cpuSupportsAvx512())
        EXPECT_EQ(a, nullptr);
}

TEST(Dispatch, EveryTierCarriesTileWidthAndDecode)
{
    for (const KernelSet *t : allTiers()) {
        SCOPED_TRACE(t->name);
        EXPECT_GE(t->seqTile, 1u);
        EXPECT_LE(t->seqTile, kMaxSeqTile);
        EXPECT_NE(t->decodePackedRow, nullptr);
    }
}

TEST(Dispatch, NamedLookupAndActiveOverride)
{
    EXPECT_EQ(&kernelsByName("generic"), &genericKernels());
    const KernelSet &native = kernelsByName("native");
    EXPECT_NE(native.name, nullptr);

    const KernelSet &before = activeKernels();
    setActiveKernels(genericKernels());
    EXPECT_STREQ(activeKernels().name, "generic");
    EXPECT_EQ(&resolveKernels(nullptr), &genericKernels());
    setActiveKernels(before);
    const KernelSet *avx2 = avx2Kernels();
    if (avx2)
        EXPECT_EQ(&resolveKernels(avx2), avx2);
}

// ---------------------------------------------------------------------
// Golden bit-identity: the generic tier reproduces the exact logits the
// repo produced before the kernel layer existed (hex floats captured
// from the pre-refactor build). This is the GOBO_KERNEL=generic
// acceptance contract, asserted rather than benched.

TEST(GoldenGeneric, Fp32SerialLogitsMatchPreKernelBuild)
{
    GoldenSetup g = goldenSetup();
    InferenceSession session(std::move(g.model),
                             tierCtx(genericKernels()));
    Tensor logits = session.headLogits(g.tokens);
    ASSERT_EQ(logits.size(), 3u);
    EXPECT_EQ(logits(0), 0x1.f5eec6p-4f);
    EXPECT_EQ(logits(1), -0x1.cedf88p+0f);
    EXPECT_EQ(logits(2), 0x1.680f08p+0f);
}

TEST(GoldenGeneric, QuantizedPackedLogitsMatchPreKernelBuild)
{
    // The canonical-order engine's logits, derived from
    // referenceQuantizedLogits (no kernel on the FC path). The engine
    // on the generic tier and the reference must both hit them.
    const float golden[3] = {0x1.6a7ea8p-1f, -0x1.a3e546p+0f,
                             0x1.343e22p+1f};
    GoldenSetup g = goldenSetup();
    ModelQuantOptions qopt;
    qopt.base.bits = 3;
    qopt.base.method = CentroidMethod::Gobo;
    qopt.embeddingBits = 4;
    Tensor ref = referenceQuantizedLogits(g.model, qopt, g.tokens);
    InferenceSession session(QuantizedBertModel(g.model, qopt),
                             tierCtx(genericKernels()));
    Tensor logits = session.headLogits(g.tokens);
    ASSERT_EQ(ref.size(), 3u);
    ASSERT_EQ(logits.size(), 3u);
    for (std::size_t i = 0; i < 3; ++i) {
        EXPECT_EQ(ref.flat()[i], golden[i]) << i;
        EXPECT_EQ(logits(i), golden[i]) << i;
    }
}

// ---------------------------------------------------------------------
// Compressed-domain forward: exact against the kernel-free reference
// for every tier and backend.

TEST(QexecTile, ForwardMatchesScalarReferenceEverywhere)
{
    // B = 1..8 x row lengths around the 16-column step x 1..33
    // activation rows (1 = the pooler path; 8/16 bracket the 8-row
    // kernel call and the avx512 tile stamp) x serial and 4 threads,
    // on every tier. Non-zero weights, activations and
    // biases throughout; grainFlops = 1 forces the parallel grid to
    // split even these small layers.
    const std::size_t out = 6;
    std::size_t outliers_seen = 0;
    for (unsigned bits = 1; bits <= 8; ++bits) {
        for (std::size_t in : {std::size_t{1}, std::size_t{15},
                               std::size_t{17}, std::size_t{768},
                               std::size_t{773}}) {
            GoboConfig cfg;
            cfg.bits = bits;
            QuantizedTensor qt =
                quantizeTensor(randomTensor(out, in, 50 * bits + in), cfg);
            outliers_seen += qt.outlierPositions.size();
            Tensor bias(out);
            auto bv = randomVec(out, 60 * bits + in);
            std::copy(bv.begin(), bv.end(), bias.flat().begin());
            const QuantizedLinear layer(qt, bias);
            Tensor x = randomTensor(33, in, 70 * bits + in);
            Tensor ref = scalarReference(qt, bias, x);
            for (std::size_t seq = 1; seq <= 33; ++seq) {
                Tensor xs(seq, in);
                std::copy(x.flat().begin(),
                          x.flat().begin() + seq * in,
                          xs.flat().begin());
                for (const KernelSet *tier : allTiers()) {
                    ExecContext par = ExecContext::parallel(4);
                    par.kernels = tier;
                    par.grainFlops = 1;
                    for (const ExecContext &ctx :
                         {tierCtx(*tier), par}) {
                        Tensor y = layer.forward(ctx, xs);
                        ASSERT_EQ(y.rows(), seq);
                        ASSERT_EQ(y.cols(), out);
                        for (std::size_t i = 0; i < y.size(); ++i)
                            ASSERT_EQ(y.flat()[i], ref.flat()[i])
                                << tier->name << " bits=" << bits
                                << " in=" << in << " seq=" << seq
                                << " threads=" << ctx.threads
                                << " i=" << i;
                    }
                }
            }
        }
    }
    EXPECT_GT(outliers_seen, 0u) << "the sweep must cover step 4";
}

TEST(QexecTile, NanInfActivationsPropagateOnEveryTier)
{
    // A NaN activation poisons every output of its row; an Inf one
    // makes them non-finite; other rows stay finite and exact. Same
    // on every tier, serial and parallel.
    const std::size_t in = 40, out = 12, seq = 11;
    GoboConfig cfg;
    cfg.bits = 3;
    QuantizedTensor qt = quantizeTensor(randomTensor(out, in, 5), cfg);
    Tensor bias(out);
    Tensor x = randomTensor(seq, in, 6);
    x(2, 17) = kNan;
    x(9, 33) = kInf;
    Tensor ref = scalarReference(qt, bias, x);
    for (const KernelSet *tier : allTiers()) {
        ExecContext par = ExecContext::parallel(4);
        par.kernels = tier;
        par.grainFlops = 1;
        for (const ExecContext &ctx : {tierCtx(*tier), par}) {
            QuantizedLinear layer(qt, bias);
            Tensor y = layer.forward(ctx, x);
            for (std::size_t s = 0; s < seq; ++s)
                for (std::size_t o = 0; o < out; ++o) {
                    SCOPED_TRACE(testing::Message()
                                 << tier->name << " s=" << s
                                 << " o=" << o);
                    if (s == 2)
                        EXPECT_TRUE(std::isnan(y(s, o)));
                    else if (s == 9)
                        EXPECT_FALSE(std::isfinite(y(s, o)));
                    else
                        EXPECT_EQ(y(s, o), ref(s, o));
                    EXPECT_EQ(std::isnan(y(s, o)),
                              std::isnan(ref(s, o)));
                }
        }
    }
}

TEST(QexecTile, WholeModelBitIdenticalAcrossTiers)
{
    if (simdTiers().empty())
        GTEST_SKIP() << "no SIMD tier available on this host";
    GoldenSetup g = goldenSetup();
    ModelQuantOptions qopt;
    qopt.base.bits = 3;
    QuantizedBertModel qmodel(g.model, qopt);

    // A whole forward is FC layers + attention/norm glue; only compare
    // the FC outputs tier-to-tier, which means going through one layer
    // directly: encodeSequence/classify mix in dense row ops that
    // legitimately differ at tolerance. Drive the first FC via
    // identical inputs.
    Tensor x = randomTensor(13, qmodel.config().hidden, 4242);
    std::vector<const QuantizedLinear *> layers;
    qmodel.forEachLayer([&](const QuantizedLinear &l) {
        layers.push_back(&l);
    });
    ASSERT_FALSE(layers.empty());
    const QuantizedLinear &first = *layers.front();
    Tensor a = first.forward(tierCtx(genericKernels()), x);
    for (const KernelSet *simd : simdTiers()) {
        Tensor b = first.forward(tierCtx(*simd), x);
        for (std::size_t i = 0; i < a.size(); ++i)
            EXPECT_EQ(a.flat()[i], b.flat()[i])
                << simd->name << " i=" << i;
    }
}

// ---------------------------------------------------------------------
// centroidFma called directly: every tier against the plain-loop
// canonical order, for every B, row lengths around the 16-column step,
// 1..kFcRows rows, strided x/y, and outlier densities from none to
// half the row.

TEST(CentroidFma, MatchesCanonicalReference)
{
    std::mt19937_64 eng(19);
    for (const KernelSet *tier : allTiers()) {
        const KernelSet &kn = *tier;
        SCOPED_TRACE(kn.name);
        for (unsigned bits = 1; bits <= 8; ++bits) {
            std::size_t k = std::size_t{1} << bits;
            auto centroids = randomVec(k, eng());
            for (std::size_t in : {std::size_t{1}, std::size_t{13},
                                   std::size_t{16}, std::size_t{64},
                                   std::size_t{257}}) {
                std::vector<std::uint8_t> irow(in);
                for (auto &v : irow)
                    v = static_cast<std::uint8_t>(eng() % k);
                const std::size_t ldx = in + 3, ldy = 5;
                auto x = randomVec(kFcRows * ldx, eng());
                for (std::size_t n_out :
                     {std::size_t{0}, std::size_t{1}, in / 2}) {
                    std::vector<OutlierTerm> terms;
                    for (std::size_t t = 0; t < n_out; ++t)
                        terms.push_back(
                            {static_cast<std::uint32_t>(t * in / n_out),
                             static_cast<float>(
                                 static_cast<double>(eng() % 1000)
                                     / 250.0
                                 - 2.0)});
                    for (std::size_t rows = 1; rows <= kFcRows; ++rows) {
                        std::vector<float> y(kFcRows * ldy, -7.0f);
                        kn.centroidFma(irow.data(), in,
                                       centroids.data(), k, x.data(),
                                       ldx, rows, 0.25f, terms.data(),
                                       terms.size(), y.data(), ldy);
                        for (std::size_t r = 0; r < kFcRows; ++r)
                            ASSERT_EQ(y[r * ldy],
                                      r < rows ? canonicalOutput(
                                                     irow.data(), in,
                                                     centroids.data(),
                                                     x.data() + r * ldx,
                                                     0.25f, terms)
                                               : -7.0f)
                                << "bits=" << bits << " in=" << in
                                << " n_out=" << n_out
                                << " rows=" << rows << " r=" << r;
                    }
                }
            }
        }
    }
}

TEST(CentroidFma, ExactAcrossTiers)
{
    // Every SIMD tier against generic on full-scale rows (768 and 773
    // columns) and short centroid tables (k not a power of two), all
    // kFcRows rows at once.
    if (simdTiers().empty())
        GTEST_SKIP() << "no SIMD tier available on this host";
    const KernelSet &gen = genericKernels();
    std::mt19937_64 eng(7);
    for (std::size_t k : {std::size_t{2}, std::size_t{5},
                          std::size_t{8}, std::size_t{12},
                          std::size_t{16}, std::size_t{27},
                          std::size_t{32}, std::size_t{64},
                          std::size_t{200}, std::size_t{256}}) {
        auto centroids = randomVec(k, eng());
        for (std::size_t in : {std::size_t{768}, std::size_t{773}}) {
            std::vector<std::uint8_t> irow(in);
            for (auto &v : irow)
                v = static_cast<std::uint8_t>(eng() % k);
            auto x = randomVec(kFcRows * in, eng());
            std::vector<OutlierTerm> terms = {{3, 0.5f}, {700, -1.25f}};
            std::vector<float> yg(kFcRows);
            gen.centroidFma(irow.data(), in, centroids.data(), k,
                            x.data(), in, kFcRows, -0.5f, terms.data(),
                            terms.size(), yg.data(), 1);
            for (const KernelSet *simd : simdTiers()) {
                std::vector<float> ya(kFcRows);
                simd->centroidFma(irow.data(), in, centroids.data(), k,
                                  x.data(), in, kFcRows, -0.5f,
                                  terms.data(), terms.size(), ya.data(),
                                  1);
                for (std::size_t r = 0; r < kFcRows; ++r)
                    ASSERT_EQ(yg[r], ya[r])
                        << simd->name << " k=" << k << " in=" << in
                        << " r=" << r;
            }
        }
    }
}

// ---------------------------------------------------------------------
// Packed-row decode: integer-exact on every tier, for every B,
// unaligned bit offsets, and lengths bracketing the 64-index bulk
// group of the avx512 VBMI path. Short buffers (no slack past the
// last packed byte) exercise the bulk loop's load guard.

TEST(DecodeRow, MatchesBitstreamReferenceEveryTier)
{
    std::mt19937_64 eng(99);
    auto tiers = allTiers();
    for (std::uint32_t b = 2; b <= 8; ++b) {
        for (std::size_t n :
             {std::size_t{1}, std::size_t{7}, std::size_t{63},
              std::size_t{64}, std::size_t{65}, std::size_t{127},
              std::size_t{129}, std::size_t{300}}) {
            for (std::size_t off : {std::size_t{0}, std::size_t{1},
                                    std::size_t{3}, std::size_t{8},
                                    std::size_t{21}}) {
                // Exactly the bytes the stream needs — the bulk paths
                // must not read past byteLen.
                std::size_t total_bits = off + n * b;
                std::vector<std::uint8_t> bytes((total_bits + 7) / 8);
                for (auto &v : bytes)
                    v = static_cast<std::uint8_t>(eng());

                std::vector<std::uint8_t> ref(n);
                std::uint32_t mask = (1u << b) - 1u;
                for (std::size_t i = 0; i < n; ++i) {
                    std::size_t bit = off + i * b;
                    std::uint32_t window = bytes[bit / 8];
                    if (bit % 8 + b > 8)
                        window |= static_cast<std::uint32_t>(
                                      bytes[bit / 8 + 1])
                                  << 8;
                    ref[i] = static_cast<std::uint8_t>(
                        (window >> (bit % 8)) & mask);
                }

                for (const KernelSet *tier : tiers) {
                    std::vector<std::uint8_t> out(n, 0xAA);
                    tier->decodePackedRow(bytes.data(), bytes.size(),
                                          off, b, n, out.data());
                    for (std::size_t i = 0; i < n; ++i)
                        ASSERT_EQ(out[i], ref[i])
                            << tier->name << " b=" << b << " n=" << n
                            << " off=" << off << " i=" << i;
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Dense/row kernels: AVX2 matches generic to tolerance on every tail
// length (the vector kernels switch to scalar tails mid-row).

TEST(DenseKernels, DotToleranceFuzzWithTails)
{
    if (simdTiers().empty())
        GTEST_SKIP() << "no SIMD tier available on this host";
    const KernelSet &gen = genericKernels();
    for (std::size_t n : kFuzzLengths) {
        auto a = randomVec(n, 10 + n);
        auto b = randomVec(n, 20 + n);
        double ref = 0.5;
        double sum_abs = 1.0;
        for (std::size_t i = 0; i < n; ++i) {
            double p = static_cast<double>(a[i]) * b[i];
            ref += p;
            sum_abs += std::abs(p);
        }
        double tol = 1e-5 * sum_abs;
        EXPECT_NEAR(gen.dot(0.5f, a.data(), b.data(), n), ref, tol)
            << n;
        for (const KernelSet *simd : simdTiers())
            EXPECT_NEAR(simd->dot(0.5f, a.data(), b.data(), n), ref,
                        tol)
                << simd->name << " n=" << n;
    }
}

TEST(DenseKernels, AxpyToleranceFuzzWithTails)
{
    if (simdTiers().empty())
        GTEST_SKIP() << "no SIMD tier available on this host";
    const KernelSet &gen = genericKernels();
    for (std::size_t n : kFuzzLengths) {
        auto x = randomVec(n, 30 + n);
        auto y0 = randomVec(n, 40 + n);
        auto yg = y0;
        gen.axpy(0.75f, x.data(), yg.data(), n);
        for (const KernelSet *simd : simdTiers()) {
            auto ya = y0;
            simd->axpy(0.75f, x.data(), ya.data(), n);
            for (std::size_t i = 0; i < n; ++i)
                EXPECT_NEAR(yg[i], ya[i],
                            1e-6 * (1.0 + std::abs(yg[i])))
                    << simd->name << " n=" << n << " i=" << i;
        }
    }
}

TEST(RowKernels, ToleranceFuzzWithTails)
{
    if (simdTiers().empty())
        GTEST_SKIP() << "no SIMD tier available on this host";
    const KernelSet &gen = genericKernels();
    for (const KernelSet *simd : simdTiers()) {
        SCOPED_TRACE(simd->name);
        for (std::size_t n : kFuzzLengths) {
            auto gamma = randomVec(n, 50 + n);
            auto beta = randomVec(n, 60 + n);

            auto sg = randomVec(n, 70 + n, 2.0f);
            auto sa = sg;
            gen.softmaxRow(sg.data(), n);
            simd->softmaxRow(sa.data(), n);
            double sum = 0.0;
            for (std::size_t i = 0; i < n; ++i) {
                EXPECT_NEAR(sg[i], sa[i], 1e-5) << "softmax n=" << n;
                sum += sa[i];
            }
            EXPECT_NEAR(sum, 1.0, 1e-4) << n;

            auto lg = randomVec(n, 80 + n, 2.0f);
            auto la = lg;
            gen.layerNormRow(lg.data(), n, gamma.data(), beta.data(),
                             1e-5f);
            simd->layerNormRow(la.data(), n, gamma.data(), beta.data(),
                               1e-5f);
            for (std::size_t i = 0; i < n; ++i)
                EXPECT_NEAR(lg[i], la[i],
                            1e-4 * (1.0 + std::abs(lg[i])))
                    << "layernorm n=" << n << " i=" << i;

            auto gg = randomVec(n, 90 + n, 2.0f);
            auto ga = gg;
            gen.geluRow(gg.data(), n);
            simd->geluRow(ga.data(), n);
            for (std::size_t i = 0; i < n; ++i)
                EXPECT_NEAR(gg[i], ga[i],
                            1e-5 * (1.0 + std::abs(gg[i])))
                    << "gelu n=" << n << " i=" << i;

            auto tg = randomVec(n, 100 + n, 3.0f);
            auto ta = tg;
            gen.tanhRow(tg.data(), n);
            simd->tanhRow(ta.data(), n);
            for (std::size_t i = 0; i < n; ++i)
                EXPECT_NEAR(tg[i], ta[i], 1e-5) << "tanh n=" << n;
        }
    }
}

TEST(RowKernels, DenseForwardCloseAcrossTiers)
{
    // End-to-end tolerance: whole FP32 logits generic vs each SIMD
    // tier agree to a few decimal places (reassociation only, no
    // algorithm change).
    if (simdTiers().empty())
        GTEST_SKIP() << "no SIMD tier available on this host";
    GoldenSetup g = goldenSetup();
    InferenceSession sg(g.model, tierCtx(genericKernels()));
    Tensor lg = sg.headLogits(g.tokens);
    for (const KernelSet *simd : simdTiers()) {
        InferenceSession sa(g.model, tierCtx(*simd));
        Tensor la = sa.headLogits(g.tokens);
        ASSERT_EQ(lg.size(), la.size());
        for (std::size_t i = 0; i < lg.size(); ++i)
            EXPECT_NEAR(lg(i), la(i), 1e-3 * (1.0 + std::abs(lg(i))))
                << simd->name << " i=" << i;
    }
}

// ---------------------------------------------------------------------
// NaN/Inf propagation: vector min/max/blend tricks must not launder
// non-finite values on either tier.

TEST(NanInf, PropagatesThroughEveryKernel)
{
    for (const KernelSet *tier : allTiers()) {
        const KernelSet &kn = *tier;
        SCOPED_TRACE(kn.name);

        for (std::size_t n : {std::size_t{9}, std::size_t{33}}) {
            // dot: NaN anywhere poisons the sum; 0 * Inf is NaN (the
            // kernel must not skip zero products).
            auto a = randomVec(n, n);
            auto b = randomVec(n, n + 1);
            auto an = a;
            an[n / 2] = kNan;
            EXPECT_TRUE(std::isnan(kn.dot(0.0f, an.data(), b.data(), n)));
            auto bz = b;
            auto ai = a;
            ai[n - 1] = kInf;
            bz[n - 1] = 0.0f;
            EXPECT_TRUE(std::isnan(kn.dot(0.0f, ai.data(), bz.data(), n)));

            // axpy with a = 0 against Inf input: 0 * Inf = NaN lands.
            auto y = randomVec(n, n + 2);
            kn.axpy(0.0f, ai.data(), y.data(), n);
            EXPECT_TRUE(std::isnan(y[n - 1]));
            for (std::size_t i = 0; i + 1 < n; ++i)
                EXPECT_FALSE(std::isnan(y[i])) << i;

            // softmax: NaN poisons the whole row; so does +Inf — the
            // max-subtraction yields Inf - Inf = NaN at the Inf slot
            // and the NaN spreads through the normalising sum. That is
            // the historical scalar behaviour and both tiers keep it.
            auto sn = randomVec(n, n + 3);
            sn[1] = kNan;
            kn.softmaxRow(sn.data(), n);
            for (std::size_t i = 0; i < n; ++i)
                EXPECT_TRUE(std::isnan(sn[i])) << i;
            auto si = randomVec(n, n + 4);
            si[2] = kInf;
            kn.softmaxRow(si.data(), n);
            for (std::size_t i = 0; i < n; ++i)
                EXPECT_TRUE(std::isnan(si[i])) << i;

            // layernorm: NaN spreads through the row statistics.
            auto ln = randomVec(n, n + 5);
            ln[0] = kNan;
            auto gamma = randomVec(n, n + 6);
            auto beta = randomVec(n, n + 7);
            kn.layerNormRow(ln.data(), n, gamma.data(), beta.data(),
                            1e-5f);
            for (std::size_t i = 0; i < n; ++i)
                EXPECT_TRUE(std::isnan(ln[i])) << i;

            // gelu: NaN stays NaN; +Inf -> +Inf; -Inf -> NaN
            // (0.5 * -Inf * (1 + tanh(-Inf)) = -Inf * 0).
            float gl[3] = {kNan, kInf, -kInf};
            kn.geluRow(gl, 3);
            EXPECT_TRUE(std::isnan(gl[0]));
            EXPECT_EQ(gl[1], kInf);
            EXPECT_TRUE(std::isnan(gl[2]));

            // tanh: saturates exactly at +-1 for +-Inf, NaN stays.
            float th[3] = {kNan, kInf, -kInf};
            kn.tanhRow(th, 3);
            EXPECT_TRUE(std::isnan(th[0]));
            EXPECT_EQ(th[1], 1.0f);
            EXPECT_EQ(th[2], -1.0f);

            // centroidFma: a NaN activation poisons its own row, an
            // Inf one drives it to +-Inf, neighbours stay finite.
            std::size_t in = n, k = 4;
            std::vector<std::uint8_t> irow(in);
            for (std::size_t i = 0; i < in; ++i)
                irow[i] = static_cast<std::uint8_t>(i % k);
            std::vector<float> centroids = {0.5f, -1.0f, 0.25f, 2.0f};
            std::vector<float> xs(3 * in, 1.0f);
            xs[0 * in + in - 1] = kNan; // row 0, last (tail) column
            xs[1 * in + 1] = kInf;      // row 1, bucket 1
            std::vector<float> fy(3);
            kn.centroidFma(irow.data(), in, centroids.data(), k,
                           xs.data(), in, 3, 0.0f, nullptr, 0, fy.data(),
                           1);
            EXPECT_TRUE(std::isnan(fy[0]));
            EXPECT_EQ(fy[1], -kInf);
            EXPECT_TRUE(std::isfinite(fy[2]));

            // ...and an outlier term on an Inf column reaches the sum.
            OutlierTerm term{1, 2.0f};
            kn.centroidFma(irow.data(), in, centroids.data(), k,
                           xs.data(), in, 3, 0.0f, &term, 1, fy.data(),
                           1);
            EXPECT_TRUE(std::isnan(fy[1])); // -Inf + 2 * Inf
        }
    }
}

} // namespace
} // namespace gobo
