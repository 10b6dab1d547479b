/**
 * @file
 * First-order off-chip memory traffic, energy and latency model.
 *
 * The paper's introduction argues that BERT inference is memory-bound:
 * the hidden state is a short vector, so every FC layer streams a large
 * weight matrix from DRAM to do comparatively little compute, and
 * off-chip accesses cost two orders of magnitude more energy and
 * latency than on-chip ones. Under that regime, compressing the
 * streamed footprint by R amplifies bandwidth, performance and energy
 * efficiency by ~R. This module makes that argument quantitative: it
 * counts the bytes one inference streams (weights dominate), the MACs
 * it performs, and derives bandwidth-bound latency and a DRAM/compute
 * energy split under configurable technology parameters.
 */

#ifndef GOBO_MEMSIM_MEMSIM_HH
#define GOBO_MEMSIM_MEMSIM_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "model/config.hh"

namespace gobo {

/** Technology parameters. Defaults approximate DDR4-class systems. */
struct MemParams
{
    double dramPjPerBit = 20.0;    ///< Off-chip access energy, pJ/bit.
    double onChipPjPerBit = 0.2;   ///< On-chip SRAM access, pJ/bit.
    double pjPerMac = 0.6;         ///< FP32 MAC energy, pJ.
    double dramGBps = 25.6;        ///< Off-chip bandwidth, GB/s.
    /**
     * Peak compute, MAC/s. Default models an accelerator-class engine
     * (a few TOPS) — the regime where the paper's premise holds and
     * single-stream inference is bandwidth-bound, not compute-bound.
     */
    double macsPerSecond = 8e12;
};

/** Per-inference traffic and compute for one sequence. */
struct InferenceCost
{
    std::size_t weightBytes = 0;     ///< FC weights streamed off-chip.
    std::size_t embeddingBytes = 0;  ///< Embedding rows fetched.
    std::size_t activationBytes = 0; ///< On-chip activation traffic.
    double macs = 0.0;               ///< Multiply-accumulates.

    std::size_t offChipBytes() const
    {
        return weightBytes + embeddingBytes;
    }
};

/**
 * Traffic/compute for one inference at the given sequence length,
 * with weights and embeddings compressed by the given ratios (1.0 =
 * FP32). Weight matrices are streamed once per inference; embedding
 * fetches touch one row per token.
 */
InferenceCost inferenceCost(const ModelConfig &config,
                            std::size_t sequence_length,
                            double weight_compression = 1.0,
                            double embedding_compression = 1.0);

/** Derived energy/latency figures. */
struct MemReport
{
    double offChipEnergyMicroJ = 0.0;
    double onChipEnergyMicroJ = 0.0;
    double computeEnergyMicroJ = 0.0;
    double totalEnergyMicroJ = 0.0;
    double memoryLatencyMs = 0.0;  ///< Off-chip streaming time.
    double computeLatencyMs = 0.0; ///< Compute-bound time.
    double latencyMs = 0.0;        ///< max(memory, compute).
    bool memoryBound = false;
};

/** Evaluate the model under the technology parameters. */
MemReport estimate(const InferenceCost &cost, const MemParams &params);

/**
 * Traffic one FC layer actually generated, read back from the
 * per-layer qexec.layer.<label>.* counters of an observed run rather
 * than predicted from the model config. `macs` is derived by the
 * caller (forwards × per-forward op count) since the counters record
 * traffic, not arithmetic.
 */
struct MeasuredTraffic
{
    std::string layer;                   ///< Span label, "enc[0].query".
    std::uint64_t forwards = 0;          ///< Forward passes observed.
    std::uint64_t bytesStreamed = 0;     ///< Weight bytes streamed.
    std::uint64_t rowsDecoded = 0;       ///< Index rows decoded.  
    std::uint64_t outlierCorrections = 0;///< Correction MACs applied.
    double macs = 0.0;                   ///< Derived MACs for `forwards`.
};

/** Energy/latency attributed to one layer from measured traffic. */
struct LayerAttribution
{
    std::string layer;
    double offChipEnergyMicroJ = 0.0;
    double computeEnergyMicroJ = 0.0;
    double totalEnergyMicroJ = 0.0;
    double memoryLatencyMs = 0.0;
    double computeLatencyMs = 0.0;
    double latencyMs = 0.0; ///< max(memory, compute) per layer.
    bool memoryBound = false;
};

/**
 * Attribute energy and bandwidth-bound latency to each layer from its
 * measured traffic. Unlike estimate(), the weight bytes here are what
 * the execution engine streamed (the packed index stream plus
 * centroid and outlier state) — the analytical on-chip
 * activation term has no measured counterpart and is deliberately
 * excluded, so totals cover DRAM + compute only.
 */
std::vector<LayerAttribution>
attributeMeasured(const std::vector<MeasuredTraffic> &traffic,
                  const MemParams &params);

} // namespace gobo

#endif // GOBO_MEMSIM_MEMSIM_HH
