/**
 * @file
 * Heap-allocation budget of the host memory system's line ops. A
 * cached read, write or flush on a local channel parks its completion
 * in a reused op slot, so once the system is warm a line op allocates
 * nothing. This binary replaces the global operator new to count
 * allocations, which is why it is a test executable of its own.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <new>

#include "common/random.h"
#include "topo/topology.h"

namespace {

std::size_t g_allocations = 0;

} // namespace

void *
operator new(std::size_t bytes)
{
    ++g_allocations;
    if (void *p = std::malloc(bytes ? bytes : 1))
        return p;
    throw std::bad_alloc();
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace {

using namespace sd;

/**
 * One round of line traffic on a 1x1 system whose 64 KB LLC is a
 * quarter of the footprint, so reads miss, stores evict dirty
 * victims and flushes write back. Ops go out 32 at a time.
 * @return the number of line ops issued.
 */
std::size_t
lineTraffic(topo::Topology &topo)
{
    cache::MemorySystem &memory = topo.memory();
    constexpr Addr kBase = 64ULL << 20;
    constexpr std::uint64_t kLines = 4096;
    Rng rng(42);
    std::uint8_t src[kCacheLineSize] = {};
    std::uint8_t dst[32][kCacheLineSize];
    std::size_t ops = 0;
    unsigned done = 0;
    for (int batch = 0; batch < 256; ++batch) {
        for (unsigned i = 0; i < 32; ++i, ++ops) {
            const Addr line = kBase + rng.below(kLines) * kCacheLineSize;
            const auto cb = [&done](Tick) { ++done; };
            switch (rng.below(3)) {
            case 0:
                memory.readLine(line, dst[i], cb);
                break;
            case 1:
                memory.writeLine(line, src, cb);
                break;
            default:
                memory.flushLine(line, cb);
                break;
            }
        }
        memory.drain();
    }
    EXPECT_EQ(done, ops);
    return ops;
}

TEST(LineOpAllocations, WarmLocalLineOpsAllocateNothing)
{
    topo::TopologySpec spec;
    spec.llc.size_bytes = 64 * 1024;
    topo::Topology topo(spec);
    // Two warm-up rounds size the op slots, the controller's request
    // slab, the event pool, the LLC sets and the backing pages.
    lineTraffic(topo);
    lineTraffic(topo);

    const std::size_t before = g_allocations;
    const std::size_t ops = lineTraffic(topo);
    EXPECT_EQ(g_allocations - before, 0u)
        << "heap allocations across " << ops << " warm line ops";
    EXPECT_GT(topo.memory().llc().stats().writebacks, 0u);
    EXPECT_GT(topo.memory().llc().stats().flush_dirty, 0u);
}

} // namespace
