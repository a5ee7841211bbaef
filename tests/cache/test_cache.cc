/**
 * @file
 * LLC model: hits/misses, LRU, writebacks, CAT way partitioning, DDIO
 * restricted allocation, flush semantics, and the miss-rate probe.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>

#include "cache/cache.h"
#include "common/random.h"
#include "common/types.h"

namespace {

using namespace sd;
using cache::AllocClass;
using cache::Cache;
using cache::CacheConfig;

CacheConfig
smallConfig()
{
    CacheConfig cfg;
    cfg.size_bytes = 64 * 1024; // 64 sets x 16 ways
    cfg.ways = 16;
    cfg.ddio_ways = 2;
    cfg.cpu_ways = 16;
    return cfg;
}

TEST(Cache, MissThenHit)
{
    Cache cache(smallConfig());
    const auto first = cache.access(0x1000, false, AllocClass::kCpu);
    EXPECT_FALSE(first.hit);
    EXPECT_TRUE(first.filled);
    const auto second = cache.access(0x1000, false, AllocClass::kCpu);
    EXPECT_TRUE(second.hit);
    EXPECT_EQ(cache.stats().hits, 1u);
    EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(Cache, SubLineAddressesShareALine)
{
    Cache cache(smallConfig());
    cache.access(0x1000, false, AllocClass::kCpu);
    EXPECT_TRUE(cache.access(0x1030, false, AllocClass::kCpu).hit);
}

TEST(Cache, FullLineStoreSkipsFetch)
{
    Cache cache(smallConfig());
    const auto result =
        cache.access(0x2000, true, AllocClass::kCpu, true);
    EXPECT_FALSE(result.hit);
    EXPECT_FALSE(result.filled) << "ItoM store needs no memory read";
    EXPECT_TRUE(cache.isDirty(0x2000));
}

TEST(Cache, LruEvictionOrder)
{
    auto cfg = smallConfig();
    cfg.size_bytes = 2 * 64; // 1 set, 2 ways
    cfg.ways = 2;
    cfg.ddio_ways = 1;
    cfg.cpu_ways = 2;
    Cache cache(cfg);

    cache.access(0x0, false, AllocClass::kCpu);
    cache.access(0x40, false, AllocClass::kCpu);
    cache.access(0x0, false, AllocClass::kCpu); // touch A
    cache.access(0x80, false, AllocClass::kCpu); // evicts B (0x40)
    EXPECT_TRUE(cache.contains(0x0));
    EXPECT_FALSE(cache.contains(0x40));
}

TEST(Cache, DirtyEvictionYieldsWritebackWithData)
{
    auto cfg = smallConfig();
    cfg.size_bytes = 2 * 64;
    cfg.ways = 2;
    cfg.ddio_ways = 1;
    cfg.cpu_ways = 2;
    Cache cache(cfg);

    cache.access(0x0, true, AllocClass::kCpu, true);
    std::memset(cache.dataPtr(0x0), 0xaa, kCacheLineSize);
    cache.access(0x40, false, AllocClass::kCpu);
    const auto result = cache.access(0x80, false, AllocClass::kCpu);
    ASSERT_TRUE(result.writeback.has_value());
    EXPECT_EQ(*result.writeback, 0x0u);
    EXPECT_EQ(result.writeback_data[0], 0xaa);
    EXPECT_EQ(cache.stats().writebacks, 1u);
}

TEST(Cache, CatRestrictsCpuWays)
{
    auto cfg = smallConfig();
    cfg.size_bytes = 4 * 64; // 1 set x 4 ways
    cfg.ways = 4;
    cfg.ddio_ways = 1;
    cfg.cpu_ways = 4;
    Cache cache(cfg);
    cache.setCpuWays(2); // CAT mask: CPU limited to ways 0-1

    cache.access(0x000, false, AllocClass::kCpu);
    cache.access(0x040, false, AllocClass::kCpu);
    cache.access(0x080, false, AllocClass::kCpu); // must evict within 2
    unsigned resident = cache.contains(0x000) + cache.contains(0x040) +
                        cache.contains(0x080);
    EXPECT_EQ(resident, 2u);
}

TEST(Cache, DdioAllocatesInRestrictedWays)
{
    auto cfg = smallConfig();
    cfg.size_bytes = 4 * 64;
    cfg.ways = 4;
    cfg.ddio_ways = 1; // DMA confined to 1 way
    cfg.cpu_ways = 4;
    Cache cache(cfg);

    // Two DMA lines to the same set: second evicts first (1 way).
    cache.access(0x000, true, AllocClass::kDdio, true);
    cache.access(0x040, true, AllocClass::kDdio, true);
    EXPECT_FALSE(cache.contains(0x000));
    EXPECT_TRUE(cache.contains(0x040));
}

TEST(Cache, DdioEvictionLeaksToDram)
{
    // The Obs. 3 mechanism: DMA bursts under DDIO pressure push dirty
    // DMA lines to DRAM before the CPU consumes them.
    auto cfg = smallConfig();
    cfg.size_bytes = 4 * 64;
    cfg.ways = 4;
    cfg.ddio_ways = 1;
    Cache cache(cfg);

    cache.access(0x000, true, AllocClass::kDdio, true);
    const auto result = cache.access(0x040, true, AllocClass::kDdio, true);
    ASSERT_TRUE(result.writeback.has_value());
    EXPECT_EQ(*result.writeback, 0x000u);
}

TEST(Cache, FlushDirtyReturnsData)
{
    Cache cache(smallConfig());
    cache.access(0x3000, true, AllocClass::kCpu, true);
    std::memset(cache.dataPtr(0x3000), 0x77, kCacheLineSize);
    const auto result = cache.flush(0x3000);
    EXPECT_TRUE(result.present);
    EXPECT_TRUE(result.dirty);
    EXPECT_EQ(result.data[10], 0x77);
    EXPECT_FALSE(cache.contains(0x3000));
}

TEST(Cache, FlushCleanAndAbsent)
{
    Cache cache(smallConfig());
    cache.access(0x4000, false, AllocClass::kCpu);
    const auto clean = cache.flush(0x4000);
    EXPECT_TRUE(clean.present);
    EXPECT_FALSE(clean.dirty);

    const auto absent = cache.flush(0x5000);
    EXPECT_FALSE(absent.present);
    EXPECT_EQ(cache.stats().flushes, 2u);
    EXPECT_EQ(cache.stats().flush_dirty, 0u);
}

TEST(Cache, ProbeMissRateWindows)
{
    Cache cache(smallConfig());
    // Window 1: all misses.
    for (Addr a = 0; a < 32 * 64; a += 64)
        cache.access(a, false, AllocClass::kCpu);
    EXPECT_DOUBLE_EQ(cache.probeMissRate(), 1.0);
    // Window 2: all hits.
    for (Addr a = 0; a < 32 * 64; a += 64)
        cache.access(a, false, AllocClass::kCpu);
    EXPECT_DOUBLE_EQ(cache.probeMissRate(), 0.0);
}

TEST(Cache, ShrinkingCpuWaysRaisesMissRate)
{
    auto cfg = smallConfig();
    cfg.size_bytes = 256 * 1024;
    Cache big(cfg);
    Cache small(cfg);
    small.setCpuWays(2);

    Rng rng(9);
    // Working set ~2x the small partition.
    std::vector<Addr> lines;
    for (int i = 0; i < 1500; ++i)
        lines.push_back(lineAlign(rng.below(96 * 1024)));
    for (int pass = 0; pass < 4; ++pass)
        for (Addr a : lines) {
            big.access(a, false, AllocClass::kCpu);
            small.access(a, false, AllocClass::kCpu);
        }
    EXPECT_GT(small.stats().missRate(), big.stats().missRate());
}

TEST(Cache, DataPtrRoundTrip)
{
    Cache cache(smallConfig());
    cache.access(0x6000, true, AllocClass::kCpu, true);
    std::uint8_t *slot = cache.dataPtr(0x6000);
    ASSERT_NE(slot, nullptr);
    std::memset(slot, 0x42, kCacheLineSize);
    EXPECT_EQ(cache.dataPtr(0x6000)[63], 0x42);
    EXPECT_EQ(cache.dataPtr(0x9999), nullptr);
}

TEST(Cache, SetsAreAllocatedOnFirstFill)
{
    Cache cache{CacheConfig{}}; // the full 32 MB LLC
    EXPECT_EQ(cache.materialisedSets(), 0u);

    // Probes of an empty cache answer "absent" and allocate nothing.
    EXPECT_FALSE(cache.contains(0x4000));
    EXPECT_FALSE(cache.isDirty(0x4000));
    EXPECT_EQ(cache.dataPtr(0x4000), nullptr);
    EXPECT_FALSE(cache.flush(0x4000).present);
    EXPECT_EQ(cache.materialisedSets(), 0u);

    // Set i is line i; each set then takes a second line and hits.
    const std::size_t sets = cache.config().sets();
    const unsigned k = 37;
    for (unsigned i = 0; i < k; ++i) {
        const Addr first = Addr{i} * kCacheLineSize;
        const Addr second = first + sets * kCacheLineSize;
        EXPECT_FALSE(cache.access(first, true, AllocClass::kCpu).hit);
        EXPECT_FALSE(cache.access(second, false, AllocClass::kDdio).hit);
        EXPECT_TRUE(cache.access(first, false, AllocClass::kCpu).hit);
        EXPECT_TRUE(cache.flush(second).present);
    }
    EXPECT_EQ(cache.materialisedSets(), k);

    // A fresh set's line data reads zero until it is written.
    cache.access(0x40000, false, AllocClass::kCpu);
    const std::uint8_t *data = cache.dataPtr(0x40000);
    ASSERT_NE(data, nullptr);
    for (std::size_t b = 0; b < kCacheLineSize; ++b)
        EXPECT_EQ(data[b], 0) << "byte " << b;
    EXPECT_EQ(cache.materialisedSets(), k + 1);
}

/** FNV-1a over everything a caller of the cache can observe. */
class Digest
{
  public:
    void
    add(std::uint64_t value)
    {
        for (int i = 0; i < 8; ++i)
            byte(static_cast<std::uint8_t>(value >> (8 * i)));
    }
    void
    add(const std::uint8_t *data, std::size_t len)
    {
        for (std::size_t i = 0; i < len; ++i)
            byte(data[i]);
    }
    std::uint64_t value() const { return h_; }

  private:
    void
    byte(std::uint8_t b)
    {
        h_ = (h_ ^ b) * 0x100000001b3ULL;
    }
    std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/**
 * A seeded stream of 100k cache operations: CPU and DDIO accesses,
 * full-line stores, flushes and CAT mask changes, over a footprint
 * four times the cache. Stores write a seeded pattern through
 * dataPtr() on most but not all writes, so writebacks also carry
 * bytes a line slot held before its current tag (zeros on a fresh
 * slot). Every observable outcome is folded into a digest.
 */
std::uint64_t
accessStreamDigest(const CacheConfig &cfg)
{
    Cache cache(cfg);
    Rng rng(0xcac4e);
    Digest digest;
    const std::uint64_t lines = 4 * cfg.size_bytes / kCacheLineSize;
    for (int op = 0; op < 100'000; ++op) {
        if (op % 9973 == 0)
            cache.setCpuWays(
                static_cast<unsigned>(rng.range(1, cfg.ways)));
        // A hot eighth of the footprint takes half the traffic.
        const std::uint64_t index =
            rng.chance(0.5) ? rng.below(lines / 8) : rng.below(lines);
        const Addr addr = index * kCacheLineSize + rng.below(kCacheLineSize);
        const std::uint64_t kind = rng.below(100);
        if (kind < 10) {
            const auto flushed = cache.flush(addr);
            digest.add(0xf1u);
            digest.add(flushed.present);
            digest.add(flushed.dirty);
            if (flushed.dirty)
                digest.add(flushed.data.data(), kCacheLineSize);
            continue;
        }
        const bool is_write = kind < 50;
        const AllocClass cls =
            kind % 5 == 0 ? AllocClass::kDdio : AllocClass::kCpu;
        const bool full_line = is_write && kind % 3 == 0;
        const auto result = cache.access(addr, is_write, cls, full_line);
        digest.add(result.hit);
        digest.add(result.filled);
        digest.add(result.writeback.value_or(~Addr{0}));
        if (result.writeback)
            digest.add(result.writeback_data.data(), kCacheLineSize);
        std::uint8_t *slot = cache.dataPtr(addr);
        EXPECT_NE(slot, nullptr) << "line absent right after access";
        if (slot && is_write && kind % 4 != 0)
            rng.fill(slot, kCacheLineSize);
        if (slot && kind % 7 == 0)
            digest.add(slot, kCacheLineSize);
    }
    const auto &stats = cache.stats();
    for (std::uint64_t v : {stats.hits, stats.misses, stats.writebacks,
                            stats.fills, stats.flushes, stats.flush_dirty})
        digest.add(v);
    return digest.value();
}

/**
 * Pins the cache's observable behaviour. The digests were recorded on
 * the flat-array layout that preceded per-set blocks; any change to
 * hits, victim choice, writeback data or flush results moves them.
 */
TEST(Cache, SeededAccessStreamDigest)
{
    CacheConfig pow2;
    pow2.size_bytes = 512 * 1024; // 512 sets x 16 ways
    CacheConfig odd;
    odd.size_bytes = 192 * 12 * kCacheLineSize; // 192 sets x 12 ways
    odd.ways = 12;
    odd.ddio_ways = 3;
    odd.cpu_ways = 12;
    EXPECT_EQ(accessStreamDigest(pow2), 0xac02e5db8659bb6dULL);
    EXPECT_EQ(accessStreamDigest(odd), 0x76ae77dc5efb49acULL);
}

} // namespace
