#include "cache/cache.h"

#include <algorithm>
#include <cstring>

#include "common/log.h"

namespace sd::cache {

Cache::Cache(const CacheConfig &config)
    : config_(config), cpu_ways_(std::min(config.cpu_ways, config.ways)),
      sets_(config.sets()),
      set_mask_((sets_ & (sets_ - 1)) == 0 ? sets_ - 1 : 0),
      blocks_(sets_),
      data_word_(2 * config.ways + (config.ways + 7) / 8),
      block_words_(data_word_ + config.ways * kCacheLineSize / 8)
{
    SD_ASSERT(sets_ > 0, "cache smaller than one set");
    SD_ASSERT(config.ddio_ways <= config.ways,
              "DDIO ways exceed associativity");
}

std::size_t
Cache::setIndex(Addr addr) const
{
    const Addr line = addr / kCacheLineSize;
    // Power-of-two set counts (the common geometry) probe with a
    // mask; the general case pays the modulo.
    return set_mask_ ? (line & set_mask_) : (line % sets_);
}

Cache::Slot
Cache::find(Addr addr) const
{
    const Addr line = lineAlign(addr);
    std::uint64_t *block = blocks_[setIndex(line)].get();
    if (block)
        for (unsigned w = 0; w < config_.ways; ++w)
            if (block[w] == line)
                return {block, w};
    return {};
}

std::uint64_t *
Cache::materialise(std::size_t set)
{
    std::unique_ptr<std::uint64_t[]> &block = blocks_[set];
    if (!block) {
        // Value-initialised: LRU stamps, dirty bytes and data zero.
        block = std::make_unique<std::uint64_t[]>(block_words_);
        std::fill_n(block.get(), config_.ways, kInvalidTag);
        ++materialised_;
    }
    return block.get();
}

AccessResult
Cache::access(Addr addr, bool is_write, AllocClass cls,
              bool full_line_store)
{
    const Addr line_addr = lineAlign(addr);
    AccessResult result;

    if (const Slot slot = find(line_addr); slot.block) {
        ++stats_.hits;
        ++probe_hits_;
        lru(slot.block)[slot.way] = ++lru_clock_;
        dirty(slot.block)[slot.way] |= is_write;
        result.hit = true;
        return result;
    }

    ++stats_.misses;
    ++probe_misses_;

    // Victim selection restricted to the class's eligible ways.
    // CPU class uses ways [0, cpu_ways); DDIO uses the last ddio_ways
    // ways, mirroring Intel's restricted-allocation scheme.
    unsigned lo;
    unsigned hi;
    if (cls == AllocClass::kDdio) {
        lo = config_.ways - config_.ddio_ways;
        hi = config_.ways;
    } else {
        lo = 0;
        hi = std::max(1u, cpu_ways_);
    }

    std::uint64_t *block = materialise(setIndex(line_addr));
    Addr *tags = block;
    std::uint64_t *stamps = lru(block);
    std::uint8_t *dirt = dirty(block);
    unsigned victim = lo;
    for (unsigned w = lo; w < hi; ++w) {
        if (tags[w] == kInvalidTag) {
            victim = w;
            break;
        }
        if (stamps[w] < stamps[victim])
            victim = w;
    }

    if (tags[victim] != kInvalidTag && dirt[victim]) {
        result.writeback = tags[victim];
        std::memcpy(result.writeback_data.data(), data({block, victim}),
                    kCacheLineSize);
        ++stats_.writebacks;
    }

    tags[victim] = line_addr;
    dirt[victim] = is_write;
    stamps[victim] = ++lru_clock_;
    ++stats_.fills;
    result.filled = !(is_write && full_line_store);
    return result;
}

Cache::FlushResult
Cache::flush(Addr addr)
{
    ++stats_.flushes;
    FlushResult result;
    if (const Slot slot = find(addr); slot.block) {
        std::uint8_t &dirt = dirty(slot.block)[slot.way];
        result.present = true;
        result.dirty = dirt != 0;
        if (result.dirty) {
            ++stats_.flush_dirty;
            std::memcpy(result.data.data(), data(slot), kCacheLineSize);
        }
        slot.block[slot.way] = kInvalidTag;
        dirt = 0;
    }
    return result;
}

std::uint8_t *
Cache::dataPtr(Addr addr)
{
    const Slot slot = find(addr);
    return slot.block ? data(slot) : nullptr;
}

const std::uint8_t *
Cache::dataPtr(Addr addr) const
{
    return const_cast<Cache *>(this)->dataPtr(addr);
}

bool
Cache::contains(Addr addr) const
{
    return find(addr).block != nullptr;
}

bool
Cache::isDirty(Addr addr) const
{
    const Slot slot = find(addr);
    return slot.block && dirty(slot.block)[slot.way];
}

void
Cache::setCpuWays(unsigned ways)
{
    SD_ASSERT(ways >= 1 && ways <= config_.ways, "CAT mask out of range");
    cpu_ways_ = ways;
}

double
Cache::probeMissRate()
{
    const auto total = probe_hits_ + probe_misses_;
    const double rate =
        total ? static_cast<double>(probe_misses_) /
                    static_cast<double>(total)
              : 0.0;
    probe_hits_ = 0;
    probe_misses_ = 0;
    return rate;
}

} // namespace sd::cache
