#include "cache/memory_system.h"

#include <cstring>

#include "common/log.h"
#include "mem/cxl_link.h"

namespace sd::cache {

MemorySystem::MemorySystem(EventQueue &events,
                           const mem::DramGeometry &geometry,
                           mem::ChannelInterleave interleave,
                           const CacheConfig &cache_config,
                           std::vector<mem::DimmDevice *> devices,
                           const mem::DramTiming &timing,
                           const mem::ControllerConfig &mc_config,
                           const HostLatencies &latencies)
    : events_(events), map_(geometry, interleave), llc_(cache_config),
      latencies_(latencies)
{
    SD_ASSERT(devices.size() == geometry.channels,
              "need exactly one device per channel");
    for (unsigned ch = 0; ch < geometry.channels; ++ch)
        controllers_.push_back(std::make_unique<mem::MemoryController>(
            events_, map_, timing, mc_config, ch, *devices[ch]));
    links_.resize(geometry.channels, nullptr);
}

void
MemorySystem::attachCxlLink(unsigned channel, mem::CxlLink *link)
{
    SD_ASSERT(channel < links_.size(), "channel out of range");
    links_[channel] = link;
}

mem::CxlLink *
MemorySystem::cxlLink(unsigned channel) const
{
    SD_ASSERT(channel < links_.size(), "channel out of range");
    return links_[channel];
}

std::uint32_t
MemorySystem::parkOp(Callback cb)
{
    std::uint32_t index;
    if (free_ops_.empty()) {
        index = static_cast<std::uint32_t>(ops_.size());
        ops_.push_back(std::make_unique<HostOp>());
    } else {
        index = free_ops_.back();
        free_ops_.pop_back();
    }
    ops_[index]->cb = std::move(cb);
    return index;
}

void
MemorySystem::finishOp(std::uint32_t index, Tick at, mem::MemStatus status)
{
    if (status == mem::MemStatus::kDegraded)
        ++degraded_reads_;
    HostOp &op = *ops_[index];
    if (op.dst) {
        // A load miss: install into the already-allocated line (unless
        // it was evicted meanwhile), then hand the bytes to the caller.
        if (std::uint8_t *slot = llc_.dataPtr(op.line))
            std::memcpy(slot, op.fill.data(), kCacheLineSize);
        std::memcpy(op.dst, op.fill.data(), kCacheLineSize);
        op.dst = nullptr;
    }
    // Free the slot before the callback runs: it may start another op.
    Callback cb = std::move(op.cb);
    free_ops_.push_back(index);
    cb(at);
}

void
MemorySystem::completeIn(Tick delay, Callback cb)
{
    events_.scheduleIn(delay, [this, index = parkOp(std::move(cb))] {
        finishOp(index, events_.now(), mem::MemStatus::kOk);
    });
}

mem::MemCallback
MemorySystem::dramDone(Addr addr, std::uint32_t index)
{
    mem::CxlLink *link = links_[map_.decompose(addr).channel];
    if (!link)
        return [this, index](Tick at, mem::MemStatus status) {
            finishOp(index, at, status);
        };
    // The DRAM-side completion rides home over the CXL link: the flit
    // serializes on the shared wire and the response arrives a round
    // trip later. LLC hits never reach here.
    return [this, link, index](Tick, mem::MemStatus status) {
        link->transfer(kCacheLineSize, [this, index, status](Tick at) {
            finishOp(index, at, status);
        });
    };
}

mem::MemoryController &
MemorySystem::controller(unsigned channel)
{
    SD_ASSERT(channel < controllers_.size(), "channel out of range");
    return *controllers_[channel];
}

mem::MemoryController &
MemorySystem::route(Addr addr)
{
    return *controllers_[map_.decompose(addr).channel];
}

void
MemorySystem::setFaultPlan(fault::FaultPlan *plan)
{
    for (auto &mc : controllers_)
        mc->setFaultPlan(plan);
}

std::uint64_t
MemorySystem::dramBytes() const
{
    std::uint64_t total = 0;
    for (const auto &mc : controllers_)
        total += mc->stats().bytesMoved();
    return total;
}

void
MemorySystem::registerStats(trace::StatsRegistry &registry,
                            const std::string &prefix) const
{
    registry.add(prefix + "llc", [this](trace::StatsBlock &block) {
        const CacheStats &cs = llc_.stats();
        block.scalar("hits", static_cast<double>(cs.hits));
        block.scalar("misses", static_cast<double>(cs.misses));
        block.scalar("miss_rate", cs.missRate());
        block.scalar("writebacks", static_cast<double>(cs.writebacks));
        block.scalar("fills", static_cast<double>(cs.fills));
        block.scalar("flushes", static_cast<double>(cs.flushes));
        block.scalar("flush_dirty",
                     static_cast<double>(cs.flush_dirty));
    });
    for (std::size_t ch = 0; ch < controllers_.size(); ++ch) {
        const mem::MemoryController *mc = controllers_[ch].get();
        registry.add(prefix + "mc.ch" + std::to_string(ch),
                     [mc](trace::StatsBlock &block) {
                         mc->reportStats(block);
                     });
    }
}

void
MemorySystem::writebackVictim(const AccessResult &result)
{
    if (result.writeback)
        route(*result.writeback)
            .enqueueWrite(*result.writeback, result.writeback_data.data());
}

void
MemorySystem::readLine(Addr addr, std::uint8_t *dst, Callback cb)
{
    const Addr line = lineAlign(addr);
    const auto result = llc_.access(line, false, AllocClass::kCpu);
    if (result.hit) {
        std::memcpy(dst, llc_.dataPtr(line), kCacheLineSize);
        completeIn(latencies_.llc_hit, std::move(cb));
        return;
    }
    writebackVictim(result);
    // Fetch from DRAM into the op's fill buffer; finishOp installs it.
    const std::uint32_t index = parkOp(std::move(cb));
    HostOp &op = *ops_[index];
    op.line = line;
    op.dst = dst;
    op.fill.fill(0);
    route(line).enqueueRead(line, op.fill.data(), dramDone(line, index));
}

void
MemorySystem::writeLine(Addr addr, const std::uint8_t *src, Callback cb)
{
    const Addr line = lineAlign(addr);
    const auto result =
        llc_.access(line, true, AllocClass::kCpu, /*full_line_store=*/true);
    writebackVictim(result);
    if (std::uint8_t *slot = llc_.dataPtr(line))
        std::memcpy(slot, src, kCacheLineSize);
    completeIn(latencies_.store_commit, std::move(cb));
}

void
MemorySystem::flushLine(Addr addr, Callback cb)
{
    const Addr line = lineAlign(addr);
    const auto result = llc_.flush(line);
    if (result.dirty) {
        route(line).enqueueWrite(line, result.data.data(),
                                 dramDone(line, parkOp(std::move(cb))));
        return;
    }
    completeIn(latencies_.flush_clean, std::move(cb));
}

void
MemorySystem::mmioWrite(Addr addr, const std::uint8_t *src, Callback cb)
{
    route(addr).enqueueWrite(lineAlign(addr), src,
                             dramDone(addr, parkOp(std::move(cb))));
}

void
MemorySystem::mmioRead(Addr addr, std::uint8_t *dst, Callback cb)
{
    route(addr).enqueueRead(lineAlign(addr), dst,
                            dramDone(addr, parkOp(std::move(cb))));
}

void
MemorySystem::dmaWriteLine(Addr addr, const std::uint8_t *src, Callback cb)
{
    // DDIO: the device write allocates into the restricted LLC ways;
    // under contention the line may be evicted to DRAM before use.
    const Addr line = lineAlign(addr);
    const auto result =
        llc_.access(line, true, AllocClass::kDdio, /*full_line_store=*/true);
    writebackVictim(result);
    if (std::uint8_t *slot = llc_.dataPtr(line))
        std::memcpy(slot, src, kCacheLineSize);
    completeIn(latencies_.store_commit, std::move(cb));
}

void
MemorySystem::dmaReadLine(Addr addr, std::uint8_t *dst, Callback cb)
{
    // Device reads snoop the LLC (hit: serve from cache) and otherwise
    // fetch from DRAM without allocating.
    const Addr line = lineAlign(addr);
    if (const std::uint8_t *slot = llc_.dataPtr(line)) {
        std::memcpy(dst, slot, kCacheLineSize);
        completeIn(latencies_.llc_hit, std::move(cb));
        return;
    }
    route(line).enqueueRead(line, dst, dramDone(line, parkOp(std::move(cb))));
}

void
MemorySystem::drain()
{
    events_.run();
}

void
MemorySystem::readSync(Addr addr, std::uint8_t *dst, std::size_t len)
{
    SD_ASSERT(isLineAligned(addr) && len % kCacheLineSize == 0,
              "sync ops are line-granular");
    for (std::size_t off = 0; off < len; off += kCacheLineSize) {
        bool done = false;
        readLine(addr + off, dst + off, [&done](Tick) { done = true; });
        while (!done)
            events_.run();
    }
}

void
MemorySystem::writeSync(Addr addr, const std::uint8_t *src, std::size_t len)
{
    SD_ASSERT(isLineAligned(addr) && len % kCacheLineSize == 0,
              "sync ops are line-granular");
    for (std::size_t off = 0; off < len; off += kCacheLineSize) {
        bool done = false;
        writeLine(addr + off, src + off, [&done](Tick) { done = true; });
        while (!done)
            events_.run();
    }
}

void
MemorySystem::flushSync(Addr addr, std::size_t len)
{
    for (Addr line = lineAlign(addr); line < addr + len;
         line += kCacheLineSize) {
        bool done = false;
        flushLine(line, [&done](Tick) { done = true; });
        while (!done)
            events_.run();
    }
}

} // namespace sd::cache
