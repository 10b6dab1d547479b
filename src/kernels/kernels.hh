/**
 * @file
 * SIMD kernel layer with runtime CPU dispatch.
 *
 * Every hot inner loop in the repo — the dense dot/axpy kernels under
 * matmul/linear/attention, the row ops (softmax, layernorm, GELU,
 * tanh), the centroid-lookup FMA kernel that executes the GOBO
 * compressed format, and the packed-index row decoder — is reached
 * through a KernelSet of function pointers. Three tiers exist:
 *
 *   generic  scalar loops; the dense/row kernels keep exactly the
 *            pre-SIMD reduction order, and centroidFma spells out the
 *            canonical quantized-FC order with std::fmaf.
 *   avx2     AVX2+FMA vectorized kernels. The dense and row kernels
 *            reassociate float reductions (and fuse multiply-adds), so
 *            they match generic only to tolerance; centroidFma keeps
 *            the canonical order and stays bit-identical.
 *   avx512   AVX-512 F+BW+DQ+VL kernels: 16-wide dense/row kernels
 *            with masked tails, a 16-lane centroidFma that looks the
 *            weights up in registers (vpermps for k <= 16), and —
 *            when the CPU also has VBMI — an in-register packed-row
 *            decoder (vpermb + vpmultishiftqb) for B <= 6.
 *
 * The active tier is chosen once at startup: cpuid picks the best
 * supported tier, and the GOBO_KERNEL environment variable
 * (generic|avx2|avx512|native) overrides it. ExecContext carries an
 * optional per-context override for tests and tools; a null pointer
 * means the process-wide active tier.
 *
 * Determinism contract (DESIGN.md §11): Serial/Parallel backends are
 * bit-identical *within* a tier; across tiers, quantized FC outputs
 * are bit-identical (every tier's centroidFma follows the canonical
 * order below) while dense ops carry tolerance-level differences. Row decode produces exact bytes
 * (a pure function of the packed stream), so every tier's decoder is
 * interchangeable. NaN and Inf propagate through every kernel in
 * every tier.
 */

#ifndef GOBO_KERNELS_KERNELS_HH
#define GOBO_KERNELS_KERNELS_HH

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace gobo {

/** KernelSet::seqTile of the generic and avx2 tiers, and its bound. */
inline constexpr std::size_t kSeqTile = 8;
inline constexpr std::size_t kMaxSeqTile = 16;

/** Most activation rows one centroidFma call takes. */
inline constexpr std::size_t kFcRows = 8;

/**
 * One outlier's contribution to a quantized FC row: the weight sits at
 * `column`, and `correction` is w - centroid[assigned index] (the index
 * under an outlier still feeds its centroid through the lookup FMAs).
 */
struct OutlierTerm
{
    std::uint32_t column;
    float correction;
};

/**
 * One dispatchable kernel tier. All pointers are non-null in every
 * registered tier.
 */
struct KernelSet
{
    /** Tier name: "generic", "avx2", or "avx512". */
    const char *name;
    /**
     * True when the dense/row kernels reassociate float math (SIMD
     * tiers); false when every kernel keeps the exact scalar order.
     * centroidFma is bit-identical across tiers either way.
     */
    bool reassociates;
    /**
     * Sequence-tile width (8 generic/avx2, 16 avx512): the serve batch
     * former's default tileLanes and the bench `seq_tile` stamp. No
     * kernel depends on it.
     */
    std::size_t seqTile;

    /** Fold-left dot product: init + sum_i a[i]*b[i] in index order. */
    float (*dot)(float init, const float *a, const float *b,
                 std::size_t n);
    /** y[j] += a * x[j] for j in [0, n). */
    void (*axpy)(float a, const float *x, float *y, std::size_t n);

    /** In-place numerically-stable softmax over one row. */
    void (*softmaxRow)(float *row, std::size_t n);
    /** In-place layer norm over one row with scale/shift. */
    void (*layerNormRow)(float *row, std::size_t n, const float *gamma,
                         const float *beta, float eps);
    /** In-place tanh-approximation GELU over one row. */
    void (*geluRow)(float *row, std::size_t n);
    /** In-place tanh over one row. */
    void (*tanhRow)(float *row, std::size_t n);

    /**
     * The quantized FC engine: one output row of y = x * W^T + bias
     * against `rows` (1..kFcRows) activation rows, with W's row given
     * as decoded centroid indexes `irow[0..in)` into `centroids[0..k)`.
     * Activation row r starts at x + r * ldx; its output goes to
     * y[r * ldy]. Every tier computes each output in the canonical
     * order, bit for bit:
     *
     *   1. 16 float partials, starting at +0: partial j takes
     *      p = fmaf(centroids[irow[i]], x[i], p) over the columns
     *      i = j (mod 16) in ascending order. Lanes past `in` are
     *      masked out (left untouched), never fed zero padding.
     *   2. A fixed pairwise tree: p[j] += p[j + 8] (j < 8), then +4,
     *      +2, +1.
     *   3. Add `bias`.
     *   4. acc = fmaf(correction, x[column], acc) for each of the
     *      `nterms` outlier terms in order (ascending column).
     *
     * Each output depends only on its own activation row, so how a
     * caller groups rows into calls never changes a bit.
     */
    void (*centroidFma)(const std::uint8_t *irow, std::size_t in,
                        const float *centroids, std::size_t k,
                        const float *x, std::size_t ldx,
                        std::size_t rows, float bias,
                        const OutlierTerm *terms, std::size_t nterms,
                        float *y, std::size_t ldy);

    /**
     * Expand `n` consecutive `bits`-wide indexes, starting `bitOffset`
     * bits into the packed stream `bytes` (of `byteLen` total bytes),
     * into one byte each. Decode is integer-exact, so tiers may
     * restructure it freely — the output bytes are identical across
     * tiers.
     */
    void (*decodePackedRow)(const std::uint8_t *bytes,
                            std::size_t byteLen, std::size_t bitOffset,
                            std::uint32_t bits, std::size_t n,
                            std::uint8_t *out);
};

/** The scalar reference tier (always available). */
const KernelSet &genericKernels();

/**
 * The AVX2+FMA tier, or nullptr when the build or the CPU does not
 * support it.
 */
const KernelSet *avx2Kernels();

/**
 * The AVX-512 tier (F+BW+DQ+VL, with a VBMI fast-path decoder picked
 * at runtime), or nullptr when the build or the CPU does not support
 * it.
 */
const KernelSet *avx512Kernels();

/** True when the running CPU exposes AVX2 and FMA. */
bool cpuSupportsAvx2();

/** True when the running CPU exposes AVX-512 F, BW, DQ, and VL. */
bool cpuSupportsAvx512();

/**
 * The reference scalar row decoder (byte-LUT for B dividing 8, 24-bit
 * groups for B=3, two-byte windows otherwise). Every tier without a
 * native decoder points at this; exposed for tests.
 */
void decodePackedRowGeneric(const std::uint8_t *bytes,
                            std::size_t byteLen, std::size_t bitOffset,
                            std::uint32_t bits, std::size_t n,
                            std::uint8_t *out);

/**
 * The process-wide active tier: the best tier the CPU supports, unless
 * the GOBO_KERNEL environment variable (generic|avx2|avx512|native)
 * says otherwise. Resolved once on first call; fatal when GOBO_KERNEL
 * names an unsupported or unknown tier.
 */
const KernelSet &activeKernels();

/**
 * Override the process-wide active tier (tests and CLI flags). Not
 * thread-safe against concurrent forwards; call before compute starts.
 */
void setActiveKernels(const KernelSet &kernels);

/** Look up a tier by name ("generic", "avx2", "avx512", "native");
 * fatal on an unknown name or a tier the CPU cannot run. The error
 * names the feature set the tier actually needs. */
const KernelSet &kernelsByName(std::string_view name);

/** Resolve an ExecContext-style override: null means the active tier. */
inline const KernelSet &
resolveKernels(const KernelSet *kernels)
{
    return kernels ? *kernels : activeKernels();
}

} // namespace gobo

#endif // GOBO_KERNELS_KERNELS_HH
