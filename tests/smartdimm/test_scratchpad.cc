/**
 * @file
 * Scratchpad (Sec. IV-B): allocation, per-line staging, self-recycle
 * drains, force-recycle, and occupancy accounting.
 */

#include <gtest/gtest.h>

#include <cstring>

#include "common/random.h"
#include "smartdimm/scratchpad.h"

namespace {

using namespace sd;
using smartdimm::Scratchpad;

TEST(Scratchpad, AllocateUntilFull)
{
    Scratchpad sp(4);
    EXPECT_EQ(sp.freePages(), 4u);
    for (int i = 0; i < 4; ++i)
        EXPECT_TRUE(sp.allocate(kLinesPerPage).has_value());
    EXPECT_EQ(sp.freePages(), 0u);
    EXPECT_FALSE(sp.allocate(kLinesPerPage).has_value());
    EXPECT_EQ(sp.livePages(), 4u);
}

TEST(Scratchpad, WriteReadLine)
{
    Scratchpad sp(2);
    const auto page = sp.allocate(kLinesPerPage);
    ASSERT_TRUE(page.has_value());

    std::uint8_t data[kCacheLineSize];
    Rng rng(1);
    rng.fill(data, sizeof(data));
    sp.writeLine(*page, 13, data);
    EXPECT_TRUE(sp.lineComputed(*page, 13));
    EXPECT_FALSE(sp.lineComputed(*page, 14));

    std::uint8_t back[kCacheLineSize];
    sp.readLine(*page, 13, back);
    EXPECT_EQ(0, std::memcmp(data, back, sizeof(data)));
}

TEST(Scratchpad, SelfRecycleFreesPageAfterAllLinesDrain)
{
    Scratchpad sp(1);
    const auto page = sp.allocate(kLinesPerPage);
    ASSERT_TRUE(page.has_value());
    std::uint8_t data[kCacheLineSize] = {0x11};
    for (unsigned l = 0; l < kLinesPerPage; ++l)
        sp.writeLine(*page, l, data);

    std::uint8_t drained[kCacheLineSize];
    for (unsigned l = 0; l < kLinesPerPage; ++l) {
        const bool freed = sp.drainLine(*page, l, drained);
        EXPECT_EQ(freed, l == kLinesPerPage - 1);
        EXPECT_EQ(drained[0], 0x11);
    }
    EXPECT_EQ(sp.freePages(), 1u);
    EXPECT_EQ(sp.stats().self_recycles, kLinesPerPage);
}

TEST(Scratchpad, SubPageExtentFreesAfterExtentDrains)
{
    Scratchpad sp(1);
    const auto page = sp.allocate(3);
    ASSERT_TRUE(page.has_value());
    EXPECT_EQ(sp.extentLines(*page), 3u);
    EXPECT_TRUE(sp.linePending(*page, 2));
    EXPECT_FALSE(sp.linePending(*page, 3))
        << "lines past the extent are never pending";

    std::uint8_t data[kCacheLineSize] = {0x22};
    std::uint8_t drained[kCacheLineSize];
    for (unsigned l = 0; l < 3; ++l) {
        sp.writeLine(*page, l, data);
        EXPECT_EQ(sp.drainLine(*page, l, drained), l == 2);
    }
    EXPECT_EQ(sp.freePages(), 1u);
    EXPECT_EQ(sp.extentLines(*page), 0u);
    EXPECT_EQ(sp.stats().self_recycles, 3u);
}

TEST(Scratchpad, LinePendingClearsOnDrain)
{
    Scratchpad sp(1);
    const auto page = sp.allocate(kLinesPerPage);
    std::uint8_t data[kCacheLineSize] = {};
    sp.writeLine(*page, 0, data);
    EXPECT_TRUE(sp.linePending(*page, 0));
    std::uint8_t drained[kCacheLineSize];
    sp.drainLine(*page, 0, drained);
    EXPECT_FALSE(sp.linePending(*page, 0));
}

TEST(Scratchpad, ForceDrainFreesWholePage)
{
    Scratchpad sp(2);
    const auto page = sp.allocate(kLinesPerPage);
    std::uint8_t data[kCacheLineSize] = {0x22};
    sp.writeLine(*page, 5, data);

    std::uint8_t page_data[kPageSize];
    sp.forceDrainPage(*page, page_data);
    EXPECT_EQ(page_data[5 * kCacheLineSize], 0x22);
    EXPECT_EQ(sp.freePages(), 2u);
    EXPECT_EQ(sp.stats().force_recycles, 1u);
}

TEST(Scratchpad, PendingListTracksAllocatedPages)
{
    Scratchpad sp(8);
    auto a = sp.allocate(kLinesPerPage);
    auto b = sp.allocate(kLinesPerPage);
    const auto pending = sp.pendingPages();
    EXPECT_EQ(pending.size(), 2u);

    std::uint8_t drained[kCacheLineSize];
    std::uint8_t data[kCacheLineSize] = {};
    for (unsigned l = 0; l < kLinesPerPage; ++l) {
        sp.writeLine(*a, l, data);
        sp.drainLine(*a, l, drained);
    }
    EXPECT_EQ(sp.pendingPages().size(), 1u);
    EXPECT_EQ(sp.pendingPages()[0], *b);
}

TEST(Scratchpad, RecycledPagesAreReusable)
{
    Scratchpad sp(1);
    std::uint8_t data[kCacheLineSize] = {};
    std::uint8_t drained[kCacheLineSize];
    for (int round = 0; round < 5; ++round) {
        const auto page = sp.allocate(kLinesPerPage);
        ASSERT_TRUE(page.has_value()) << "round " << round;
        for (unsigned l = 0; l < kLinesPerPage; ++l) {
            sp.writeLine(*page, l, data);
            sp.drainLine(*page, l, drained);
        }
    }
    EXPECT_EQ(sp.stats().allocs, 5u);
    EXPECT_EQ(sp.freePages(), 1u);
}

TEST(Scratchpad, OccupancyBytes)
{
    Scratchpad sp(2048); // paper: 8 MB
    EXPECT_EQ(sp.occupancyBytes(), 0u);
    for (int i = 0; i < 512; ++i)
        sp.allocate(kLinesPerPage);
    EXPECT_EQ(sp.occupancyBytes(), 512u * kPageSize); // 2 MB
    EXPECT_EQ(sp.stats().peak_pages, 512u);
}

TEST(Scratchpad, FreshAllocationIsZeroed)
{
    Scratchpad sp(1);
    const auto p1 = sp.allocate(kLinesPerPage);
    std::uint8_t data[kCacheLineSize];
    std::memset(data, 0xff, sizeof(data));
    sp.writeLine(*p1, 0, data);
    std::uint8_t drained[kCacheLineSize];
    std::uint8_t page_data[kPageSize];
    sp.forceDrainPage(*p1, page_data);
    (void)drained;

    const auto p2 = sp.allocate(kLinesPerPage);
    std::uint8_t back[kCacheLineSize];
    sp.readLine(*p2, 0, back);
    for (auto b : back)
        EXPECT_EQ(b, 0);
}

} // namespace
