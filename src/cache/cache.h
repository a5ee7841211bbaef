/**
 * @file
 * Set-associative writeback last-level cache with way partitioning
 * (Intel CAT analogue) and DDIO-style restricted allocation for device
 * DMA. This produces the two behaviours the paper leans on:
 * leak-to-DRAM under contention (Obs. 3 / Fig. 3) and the LLC
 * writebacks that self-recycle SmartDIMM's scratchpad (Fig. 10).
 */

#ifndef SD_CACHE_CACHE_H
#define SD_CACHE_CACHE_H

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "common/types.h"

namespace sd::cache {

/** Who is allocating: decides which ways are eligible (CAT masks). */
enum class AllocClass : std::uint8_t
{
    kCpu,  ///< demand accesses from cores
    kDdio, ///< device DMA (NIC/storage): restricted ways
};

/** Cache geometry and partitioning. */
struct CacheConfig
{
    std::size_t size_bytes = 32ULL << 20; ///< Xeon 6242: ~22-32 MB class
    unsigned ways = 16;
    unsigned ddio_ways = 2;  ///< DDIO allocation limit (Intel default 2)
    unsigned cpu_ways = 16;  ///< CAT mask width for CPU class

    std::size_t
    sets() const
    {
        return size_bytes / (static_cast<std::size_t>(ways) *
                             kCacheLineSize);
    }
};

/** Aggregate statistics plus a windowed miss-rate probe. */
struct CacheStats
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t writebacks = 0;
    std::uint64_t fills = 0;
    std::uint64_t flushes = 0;
    std::uint64_t flush_dirty = 0;

    double
    missRate() const
    {
        const auto total = hits + misses;
        return total ? static_cast<double>(misses) /
                           static_cast<double>(total)
                     : 0.0;
    }
};

/** Outcome of a single cache access. */
struct AccessResult
{
    bool hit = false;
    /** Dirty victim evicted by the fill (needs a memory write). */
    std::optional<Addr> writeback;
    /** The victim's data, valid when writeback is set. */
    std::array<std::uint8_t, kCacheLineSize> writeback_data{};
    /** Line was filled (miss) and needs a memory read first, unless
     *  the caller installs full-line data (store of a whole line). */
    bool filled = false;
};

/**
 * The LLC model. It tracks tags, dirtiness and LRU exactly and holds
 * each resident line's 64 bytes (dataPtr()); a dirty victim or a
 * flushed dirty line hands its bytes back for the memory write.
 */
class Cache
{
  public:
    explicit Cache(const CacheConfig &config);

    /**
     * Access one line.
     * @param addr line-aligned physical address
     * @param is_write marks the line dirty
     * @param cls allocation class (CAT/DDIO mask)
     * @param full_line_store when true, a write miss allocates without
     *        a memory fetch (ItoM / full-line-store optimisation used
     *        by optimised memcpy)
     */
    AccessResult access(Addr addr, bool is_write, AllocClass cls,
                        bool full_line_store = false);

    /**
     * clflush semantics: invalidate the line, returning its address if
     * it was dirty (caller must write it back). @return {present,
     * was_dirty}.
     */
    struct FlushResult
    {
        bool present = false;
        bool dirty = false;
        /** The line's data, valid when dirty (caller writes it back). */
        std::array<std::uint8_t, kCacheLineSize> data{};
    };
    FlushResult flush(Addr addr);

    /**
     * Pointer to the 64 bytes cached for @p addr, or nullptr when the
     * line is absent. Valid until the next access()/flush().
     */
    std::uint8_t *dataPtr(Addr addr);
    const std::uint8_t *dataPtr(Addr addr) const;

    /** @return true if the line currently resides in the cache. */
    bool contains(Addr addr) const;

    /** @return true if present and dirty. */
    bool isDirty(Addr addr) const;

    /** Shrink/grow the CPU-class way allocation at runtime (CAT). */
    void setCpuWays(unsigned ways);
    unsigned cpuWays() const { return cpu_ways_; }

    const CacheConfig &config() const { return config_; }
    const CacheStats &stats() const { return stats_; }
    void resetStats() { stats_ = CacheStats{}; }

    /** Sets whose storage has been allocated (footprint diagnostics). */
    std::size_t materialisedSets() const { return materialised_; }

    /**
     * Windowed miss-rate probe (the software stack's LLC contention
     * signal, Sec. V-C): miss rate since the last probe call.
     */
    double probeMissRate();

  private:
    /** Tag slot value marking an invalid way (real tags are
     *  line-aligned addresses and can never equal ~0). */
    static constexpr Addr kInvalidTag = ~Addr{0};

    /** A way of a materialised set; block is null when absent. */
    struct Slot
    {
        std::uint64_t *block = nullptr;
        unsigned way = 0;
    };

    std::size_t setIndex(Addr addr) const;
    Slot find(Addr addr) const;
    /** The block of set @p set, allocated on its first fill. */
    std::uint64_t *materialise(std::size_t set);

    /** Views into a set block; see blocks_. */
    std::uint64_t *
    lru(std::uint64_t *block) const
    {
        return block + config_.ways;
    }
    std::uint8_t *
    dirty(std::uint64_t *block) const
    {
        return reinterpret_cast<std::uint8_t *>(block + 2 * config_.ways);
    }
    std::uint8_t *
    data(const Slot &slot) const
    {
        return reinterpret_cast<std::uint8_t *>(slot.block + data_word_) +
               std::size_t{slot.way} * kCacheLineSize;
    }

    CacheConfig config_;
    unsigned cpu_ways_;
    std::size_t sets_;     ///< cached config_.sets()
    std::size_t set_mask_; ///< sets_ - 1 when a power of two, else 0
    /**
     * Per-set line state, allocated on the set's first fill: a run
     * touches a small part of a 32 MB LLC, so untouched sets cost one
     * null pointer. Each block is structure-of-arrays in 8-byte
     * words: the ways' tags first, then LRU stamps, dirty bytes and
     * 64 B of line data per way. The tag probe — the hottest loop in
     * the memory system — touches only the tags: 16 ways x 8 B = two
     * cache lines, with validity folded into the tag as kInvalidTag
     * instead of a separate flag. A fresh block's data reads zero.
     */
    std::vector<std::unique_ptr<std::uint64_t[]>> blocks_;
    std::size_t data_word_;   ///< word offset of the line data
    std::size_t block_words_; ///< words per set block
    std::size_t materialised_ = 0;
    std::uint64_t lru_clock_ = 0;
    CacheStats stats_;
    std::uint64_t probe_hits_ = 0;
    std::uint64_t probe_misses_ = 0;
};

} // namespace sd::cache

#endif // SD_CACHE_CACHE_H
