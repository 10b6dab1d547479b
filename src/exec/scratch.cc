#include "exec/scratch.hh"

#include <mutex>

namespace gobo {

namespace {

/**
 * Registry of live arenas so scratchStats() can aggregate. Arenas are
 * thread_local and die at thread exit, so membership churns; the
 * mutex only guards the vector, never the hot path (arena methods
 * don't touch it).
 */
std::mutex registry_mutex;
std::vector<const ScratchArena *> registry;

} // namespace

ScratchArena::ScratchArena()
{
    std::lock_guard lock(registry_mutex);
    registry.push_back(this);
}

ScratchArena::~ScratchArena()
{
    std::lock_guard lock(registry_mutex);
    std::erase(registry, this);
}

std::uint8_t *
ScratchArena::decodeBuffer(std::size_t rows, std::size_t cols)
{
    rowsDecoded.fetch_add(rows, std::memory_order_relaxed);
    if (buf.size() < rows * cols) {
        // Exact growth: capacity is the largest block this thread has
        // decoded, never a doubling beyond it.
        buf.assign(rows * cols, 0);
        reserved.store(buf.capacity(), std::memory_order_relaxed);
    }
    return buf.data();
}

ScratchArena &
execScratch()
{
    thread_local ScratchArena arena;
    return arena;
}

ScratchStats
scratchStats()
{
    ScratchStats s;
    std::lock_guard lock(registry_mutex);
    for (const ScratchArena *a : registry) {
        ++s.arenas;
        s.bytesReserved += a->reserved.load(std::memory_order_relaxed);
        s.decodeRowMisses +=
            a->rowsDecoded.load(std::memory_order_relaxed);
    }
    return s;
}

std::size_t
decodeCacheBudgetBytes()
{
    return 0;
}

} // namespace gobo
