#include "smartdimm/config_memory.h"

#include <cstring>

#include "common/log.h"

namespace sd::smartdimm {

ConfigMemory::ConfigMemory(std::size_t total_bytes,
                           std::size_t context_bytes)
    : slots_(total_bytes / context_bytes), context_bytes_(context_bytes),
      contexts_(slots_)
{
    SD_ASSERT(slots_ > 0, "config memory smaller than one context");
    free_.reserve(slots_);
    for (std::size_t i = slots_; i > 0; --i)
        free_.push_back(static_cast<std::uint32_t>(i - 1));
}

std::optional<std::uint32_t>
ConfigMemory::allocate()
{
    if (free_.empty())
        return std::nullopt;
    const std::uint32_t slot = free_.back();
    free_.pop_back();
    std::unique_ptr<std::uint8_t[]> &context = contexts_[slot];
    if (context) {
        std::memset(context.get(), 0, context_bytes_);
    } else {
        context = std::make_unique<std::uint8_t[]>(context_bytes_);
        ++materialised_;
    }
    ++stats_.slot_allocs;
    return slot;
}

void
ConfigMemory::release(std::uint32_t slot)
{
    SD_ASSERT(slot < slots_, "config slot out of range");
    free_.push_back(slot);
}

std::uint8_t *
ConfigMemory::context(std::uint32_t slot, std::size_t offset,
                      std::size_t len) const
{
    SD_ASSERT(slot < slots_ && offset + len <= context_bytes_,
              "context access out of range");
    SD_ASSERT(contexts_[slot], "context slot %u never allocated", slot);
    return contexts_[slot].get() + offset;
}

void
ConfigMemory::write(std::uint32_t slot, std::size_t offset,
                    const std::uint8_t *data, std::size_t len)
{
    std::memcpy(context(slot, offset, len), data, len);
    ++stats_.context_writes;
}

void
ConfigMemory::read(std::uint32_t slot, std::size_t offset,
                   std::uint8_t *dst, std::size_t len) const
{
    std::memcpy(dst, context(slot, offset, len), len);
    const_cast<ConfigMemoryStats &>(stats_).context_reads++;
}

} // namespace sd::smartdimm
