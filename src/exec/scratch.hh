/**
 * @file
 * Per-worker decode buffers for the compressed-domain hot path.
 *
 * The quantized FC engine needs one kind of transient storage per
 * task: the block of byte-per-weight index rows it decodes from the
 * packed B-bit stream before running the FMA kernel over them.
 * Allocating that block inside the parallel loop would put malloc on
 * the hot path, so each thread owns one ScratchArena holding a single
 * grow-only buffer (the accessor is thread_local, and the pool's
 * workers are persistent, so in practice arenas are keyed by worker
 * slot). The buffer grows to the largest block the thread has decoded
 * and is reused across tasks, layers and forwards without
 * synchronization; after warm-up the hot path never allocates.
 *
 * Ownership rule: a pointer obtained from the arena is valid until the
 * *same thread* asks the arena for another buffer — tasks must finish
 * with their scratch before returning to the pool, and must not ask
 * for scratch on behalf of another thread. Nothing in the arena is
 * ever shared across threads or kept across tasks, which is also why
 * it cannot affect determinism: scratch holds decoded indexes, a pure
 * function of the weights.
 */

#ifndef GOBO_EXEC_SCRATCH_HH
#define GOBO_EXEC_SCRATCH_HH

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace gobo {

/** Aggregate scratch counters across every live arena (see
 * scratchStats()). */
struct ScratchStats
{
    std::uint64_t arenas = 0;        ///< threads that touched scratch.
    std::uint64_t bytesReserved = 0; ///< sum of buffer capacities.
    std::uint64_t decodeRowMisses = 0; ///< index rows decoded.
    /** Always 0: nothing is cached. Kept only so the frozen
     * perfbench/ harness still compiles. */
    std::uint64_t decodeRowHits = 0;
    /** Always 0: nothing is cached. Kept only so the frozen
     * perfbench/ harness still compiles. */
    std::uint64_t decodeCacheBytes = 0;
};

/** One thread's grow-only decode buffer. Not thread-safe by design;
 * reach it through execScratch() only. */
class ScratchArena
{
  public:
    ScratchArena();
    ~ScratchArena();
    ScratchArena(const ScratchArena &) = delete;
    ScratchArena &operator=(const ScratchArena &) = delete;

    /**
     * A buffer for `rows` decoded index rows of `cols` bytes each,
     * which the caller fills; the rows are counted as decoded. The
     * buffer only grows, and the pointer is invalidated by the next
     * call on this arena.
     */
    std::uint8_t *decodeBuffer(std::size_t rows, std::size_t cols);

  private:
    friend ScratchStats scratchStats();

    std::vector<std::uint8_t> buf;

    // Relaxed atomics: bumped only by the owning thread, read by
    // scratchStats() from anywhere.
    std::atomic<std::uint64_t> rowsDecoded{0};
    std::atomic<std::size_t> reserved{0};
};

/** The calling thread's arena (created on first use, lives until the
 * thread exits). */
ScratchArena &execScratch();

/** Snapshot of every live arena's counters, for telemetry export. */
ScratchStats scratchStats();

/** Always 0: there is no decoded-row cache. Kept only so the frozen
 * perfbench/ harness still compiles. */
std::size_t decodeCacheBudgetBytes();

} // namespace gobo

#endif // GOBO_EXEC_SCRATCH_HH
