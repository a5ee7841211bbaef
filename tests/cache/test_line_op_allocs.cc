/**
 * @file
 * Heap-allocation budget of the host memory system's line ops and of
 * a CompCpy. A cached read, write or flush parks its completion in a
 * reused op slot, on a local channel or behind a CXL link, so once the
 * system is warm a line op allocates nothing; a CompCpy's allocations
 * do not grow with its record size. This binary replaces the global
 * operator new to count allocations, which is why it is a test
 * executable of its own.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <new>
#include <vector>

#include "common/random.h"
#include "compcpy/compcpy.h"
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
 * One round of line traffic from @p base on a system whose 64 KB LLC
 * is a quarter of the footprint, so reads miss, stores evict dirty
 * victims and flushes write back. Ops go out 32 at a time.
 * @return the number of line ops issued.
 */
std::size_t
lineTraffic(topo::Topology &topo, Addr base = 64ULL << 20)
{
    cache::MemorySystem &memory = topo.memory();
    constexpr std::uint64_t kLines = 4096;
    Rng rng(42);
    std::uint8_t src[kCacheLineSize] = {};
    std::uint8_t dst[32][kCacheLineSize];
    std::size_t ops = 0;
    unsigned done = 0;
    for (int batch = 0; batch < 256; ++batch) {
        for (unsigned i = 0; i < 32; ++i, ++ops) {
            const Addr line = base + rng.below(kLines) * kCacheLineSize;
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

TEST(LineOpAllocations, WarmFarChannelLineOpsAllocateNothing)
{
    // A far channel's completions ride home over the CXL link; the
    // arrival event must hold the completion inline, not box it.
    topo::TopologySpec spec;
    spec.llc.size_bytes = 64 * 1024;
    spec.cxl_channels = 1;
    topo::Topology topo(spec);
    const Addr far = topo.slotBase(1, 0) + (64ULL << 20);
    lineTraffic(topo, far);
    lineTraffic(topo, far);

    const std::size_t before = g_allocations;
    const std::size_t ops = lineTraffic(topo, far);
    EXPECT_EQ(g_allocations - before, 0u)
        << "heap allocations across " << ops << " warm far line ops";
    EXPECT_GT(topo.cxlLink(1)->stats().transfers, 0u);
}

/** A warm TLS CompCpy of some record size and its heap allocations. */
struct OpAllocations
{
    std::size_t pages = 0; ///< destination pages, tag included
    std::size_t allocations = 0;
};

/** Heap allocations of one warm TLS CompCpy of @p bytes plus its USE. */
OpAllocations
compCpyAllocations(topo::Topology &topo, std::size_t bytes)
{
    topo::Topology::Slot &slot = topo.slot(0);
    compcpy::CompCpyParams params;
    params.size = bytes;
    params.ulp = smartdimm::UlpKind::kTlsEncrypt;
    OpAllocations out;
    out.pages = compcpy::CompCpyEngine::destPages(params);
    const std::size_t dst_bytes = out.pages * kPageSize;
    params.sbuf = slot.driver.alloc(bytes);
    params.dbuf = slot.driver.alloc(dst_bytes);
    std::vector<std::uint8_t> plain(bytes, 0x5a);
    topo.memory().writeSync(params.sbuf, plain.data(), bytes);

    for (int round = 0; round < 4; ++round) { // the last one is warm
        params.message_id = static_cast<std::uint64_t>(round);
        const std::size_t before = g_allocations;
        slot.engine.run(params);
        slot.engine.useSync(params.dbuf, dst_bytes);
        out.allocations = g_allocations - before;
    }
    slot.driver.release(params.sbuf, bytes);
    slot.driver.release(params.dbuf, dst_bytes);
    return out;
}

TEST(LineOpAllocations, CompCpyAllocationsDoNotGrowWithLinesCopied)
{
    // Both records fit one destination page, tag included, so both
    // register the same pages; the 3968 B one copies 58 more lines.
    // The copy loop stages lines in the op's own state and the DSA
    // consumes each fed line in place, so no line allocates.
    topo::Topology topo;
    const OpAllocations small = compCpyAllocations(topo, 256);
    const OpAllocations large = compCpyAllocations(topo, 3968);
    ASSERT_EQ(large.pages, small.pages);
    EXPECT_EQ(large.allocations, small.allocations);
}

TEST(LineOpAllocations, CompCpyAllocationsGrowOnlyWithPagesRegistered)
{
    // A 16 KB record registers four more destination pages than a
    // 1 KB one and copies 240 more lines. Each registered page still
    // costs the device a few allocations of bookkeeping (DSA job and
    // its result page, page-map entries, message page list), so
    // growth is bounded per page, not held at zero. The bound is a
    // ceiling on that bookkeeping, not a fit to it: one allocation per
    // copied line would exceed it several times over.
    constexpr std::size_t kPerPageBookkeeping = 8;
    topo::Topology topo;
    const OpAllocations small = compCpyAllocations(topo, 1024);
    const OpAllocations large = compCpyAllocations(topo, 16 * 1024);
    ASSERT_GT(large.pages, small.pages);
    EXPECT_LE(large.allocations,
              small.allocations +
                  kPerPageBookkeeping * (large.pages - small.pages))
        << "1 KB op: " << small.allocations << " allocations, 16 KB op: "
        << large.allocations;
}

} // namespace
