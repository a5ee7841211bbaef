/**
 * @file
 * Config Memory slot allocator: LIFO reuse, zeroed contexts and
 * storage that grows per allocated slot rather than per capacity.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "smartdimm/config_memory.h"

namespace {

using sd::smartdimm::ConfigMemory;

constexpr std::size_t kContext = 1024;

TEST(ConfigMemory, StorageGrowsPerAllocatedSlot)
{
    ConfigMemory memory(8ULL << 20, kContext); // the paper's 8 MB
    EXPECT_EQ(memory.capacitySlots(), 8192u);
    EXPECT_EQ(memory.materialisedSlots(), 0u);

    std::vector<std::uint32_t> slots;
    for (int i = 0; i < 3; ++i)
        slots.push_back(*memory.allocate());
    EXPECT_EQ(memory.materialisedSlots(), 3u);

    // LIFO reuse: releasing and re-allocating touches no new slot.
    for (int round = 0; round < 10; ++round) {
        memory.release(slots.back());
        slots.back() = *memory.allocate();
    }
    EXPECT_EQ(memory.materialisedSlots(), 3u);
    EXPECT_EQ(memory.freeSlots(), memory.capacitySlots() - 3);
}

TEST(ConfigMemory, ReallocatedSlotReadsZeros)
{
    ConfigMemory memory(64 * kContext, kContext);
    const std::uint32_t slot = *memory.allocate();
    std::vector<std::uint8_t> pattern(kContext, 0xa5);
    memory.write(slot, 0, pattern.data(), pattern.size());
    std::vector<std::uint8_t> back(kContext);
    memory.read(slot, 0, back.data(), back.size());
    EXPECT_EQ(back, pattern);

    memory.release(slot);
    ASSERT_EQ(*memory.allocate(), slot) << "free list is LIFO";
    memory.read(slot, 0, back.data(), back.size());
    EXPECT_EQ(back, std::vector<std::uint8_t>(kContext, 0));
    EXPECT_EQ(memory.materialisedSlots(), 1u);
}

TEST(ConfigMemory, ExhaustionReturnsNullopt)
{
    ConfigMemory memory(2 * kContext, kContext);
    EXPECT_TRUE(memory.allocate());
    EXPECT_TRUE(memory.allocate());
    EXPECT_FALSE(memory.allocate());
    EXPECT_EQ(memory.materialisedSlots(), 2u);
}

} // namespace
