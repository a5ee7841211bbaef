#include "compcpy/compcpy.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <memory>

#include "common/log.h"
#include "compcpy/queue.h"
#include "crypto/tls_record.h"
#include "smartdimm/deflate_dsa.h"
#include "smartdimm/extent.h"

namespace sd::compcpy {

/**
 * Bound on consecutive Force-Recycle rounds per call. A device whose
 * freePages register keeps reading zero while nothing is pending (a
 * stuck or lying register) would otherwise spin this loop forever;
 * past the bound the engine proceeds optimistically — a genuinely
 * full scratchpad then rejects the registration gracefully.
 */
constexpr unsigned kMaxRecycleAttempts = 8;

/**
 * Bound on sync-facade submit retries against an injected kQueueFull.
 * Each retry pumps the event queue (draining real occupancy); past
 * the bound the facade force-submits — a lying "queue full" signal
 * must not wedge a synchronous caller, mirroring the recycle bailout.
 */
constexpr unsigned kMaxSubmitRetries = 8;

/**
 * Line copies an unordered CompCpy keeps in flight: the core's
 * line-fill buffers bound how many loads one memcpy has outstanding.
 */
constexpr unsigned kCopyWindow = 8;

/** Continuation state of one in-flight CompCpy. */
struct CompCpyEngine::Flow
{
    CompCpyParams params;
    std::function<void(const OpOutcome &)> on_done;
    std::size_t src_pages = 0;
    std::size_t dst_pages = 0;
    std::size_t cursor = 0;      ///< line/page progress in each stage
    std::size_t outstanding = 0; ///< line copies in flight
    /** A line copy's 64 B between its load and its store landing. */
    std::array<std::array<std::uint8_t, kCacheLineSize>, kCopyWindow>
        staging{};
    std::uint32_t free_staging = (1u << kCopyWindow) - 1; ///< bit per slot
    std::uint32_t span = 0;      ///< trace span id (0 = untraced)
    Tick begin = 0;              ///< start() tick for call latency
    std::uint64_t degraded_base = 0; ///< degradedReads() at start
    unsigned recycle_attempts = 0;   ///< Force-Recycle rounds so far
    bool bailed = false;             ///< recycle loop hit its bound
};

CompCpyEngine::CompCpyEngine(cache::MemorySystem &memory, Driver &driver,
                             SharedState &shared)
    : memory_(memory), driver_(driver), shared_(shared)
{
}

CompCpyEngine::~CompCpyEngine() = default;

bool
CompCpyEngine::injectFault(fault::Site site)
{
    return fault_plan_ && fault_plan_->armed(site) &&
           fault_plan_->shouldInject(site, fault_scope_);
}

std::size_t
CompCpyEngine::destPages(const CompCpyParams &params)
{
    if (params.ulp == smartdimm::UlpKind::kTlsEncrypt)
        return divCeil(params.size + crypto::kTlsTagSize, kPageSize);
    return divCeil(params.size, kPageSize);
}

WorkQueue &
CompCpyEngine::syncQueue()
{
    if (!sync_queue_) {
        WorkQueueConfig cfg;
        cfg.id = 0;
        cfg.mode = QueueMode::kShared; // the facade serves any caller
        cfg.depth = 64;
        cfg.max_inflight = 64;
        sync_queue_ = std::make_unique<WorkQueue>(*this, cfg);
    }
    return *sync_queue_;
}

void
CompCpyEngine::start(const CompCpyParams &params,
                     std::function<void()> on_done)
{
    // Submit-then-poll facade: a single-op descriptor whose record is
    // consumed by the callback the moment it is written. Rejections
    // (injected kQueueFull, or a genuinely full facade ring) retry
    // after pumping the event queue, then force-submit — the bounded
    // escape hatch that keeps the old start() contract: on_done always
    // eventually fires.
    auto consume = [cb = std::move(on_done)](const CompletionRecord &) {
        cb();
    };
    const Descriptor desc = Descriptor::single(params);
    for (unsigned attempt = 0; attempt < kMaxSubmitRetries; ++attempt) {
        if (syncQueue().submit(desc, 0, consume))
            return;
        memory_.events().run();
    }
    syncQueue().submitForce(desc, 0, consume);
}

void
CompCpyEngine::run(const CompCpyParams &params)
{
    const Descriptor desc = Descriptor::single(params);
    std::optional<std::uint64_t> id;
    for (unsigned attempt = 0;
         attempt < kMaxSubmitRetries && !id; ++attempt) {
        id = syncQueue().submit(desc);
        if (!id)
            memory_.events().run();
    }
    if (!id)
        id = syncQueue().submitForce(desc);
    syncQueue().wait(*id);
}

void
CompCpyEngine::startOp(const CompCpyParams &params, std::uint32_t span,
                       std::function<void(const OpOutcome &)> on_done)
{
    // Alg. 2 lines 3-6: alignment checks.
    SD_ASSERT(isPageAligned(params.dbuf) && isPageAligned(params.sbuf),
              "CompCpy buffers must be 4 KB aligned");
    SD_ASSERT(params.size > 0, "empty CompCpy");
    if (params.ulp == smartdimm::UlpKind::kDeflate)
        SD_ASSERT(params.size <= smartdimm::kDeflateMaxPayload,
                  "deflate offloads are page-granular");

    auto flow = std::make_shared<Flow>();
    flow->params = params;
    flow->on_done = std::move(on_done);
    flow->src_pages = divCeil(params.size, kPageSize);
    flow->dst_pages = destPages(params);
    flow->begin = memory_.events().now();
    flow->degraded_base = memory_.degradedReads();
    flow->span = span; // opened by the owning work queue at submit
    ++stats_.calls;
    stats_.pages_offloaded += flow->dst_pages;

    checkFreePages(flow);
}

void
CompCpyEngine::checkFreePages(std::shared_ptr<Flow> flow)
{
    // Alg. 2 lines 7-17: reserve scratchpad pages under the lock,
    // refreshing the shadow counter lazily from the MMIO register.
    ++shared_.lock_acquisitions;
    const auto needed =
        static_cast<std::int64_t>(flow->dst_pages);
    if (shared_.free_pages > needed) {
        shared_.free_pages -= needed;
        flushSource(std::move(flow));
        return;
    }

    ++stats_.freepages_refreshes;
    auto reg = std::make_shared<std::array<std::uint8_t, kCacheLineSize>>();
    memory_.mmioRead(driver_.mmio(smartdimm::MmioReg::kFreePages),
                     reg->data(), [this, flow, reg, needed](Tick) {
        std::uint64_t hw_free = 0;
        std::memcpy(&hw_free, reg->data(), sizeof(hw_free));
        shared_.free_pages = static_cast<std::int64_t>(hw_free);
        if (shared_.free_pages > needed) {
            shared_.free_pages -= needed;
            flushSource(flow);
            return;
        }
        // Unlikely path (Alg. 2 line 11): Force-Recycle.
        if (++flow->recycle_attempts > kMaxRecycleAttempts) {
            ++stats_.recycle_bailouts;
            flow->bailed = true;
            SD_TRACE_EVENT(flow->span, trace::Stage::kFault,
                           memory_.events().now(), flow->params.dbuf);
            flushSource(flow);
            return;
        }
        forceRecycle(flow, static_cast<std::size_t>(needed));
    });
}

void
CompCpyEngine::forceRecycle(std::shared_ptr<Flow> flow,
                            std::size_t required_pages)
{
    // Algorithm 1: read the pending list, flush those pages so their
    // cached destination lines write back and drain the scratchpad.
    ++stats_.force_recycles;
    SD_TRACE_EVENT(flow->span, trace::Stage::kForceRecycle,
                   memory_.events().now(), flow->params.dbuf);
    auto reg = std::make_shared<std::array<std::uint8_t, kCacheLineSize>>();
    memory_.mmioRead(driver_.mmio(smartdimm::MmioReg::kPendingList),
                     reg->data(),
                     [this, flow, reg, required_pages](Tick) {
        std::uint64_t words[8];
        std::memcpy(words, reg->data(), sizeof(words));
        const std::size_t count =
            std::min<std::uint64_t>(words[0], 7);
        std::size_t to_free =
            std::min<std::size_t>(count, required_pages + 1);
        // A degraded register read can hand back stale or zeroed
        // bytes; only page-aligned non-zero entries are usable.
        while (to_free > 0 &&
               (words[to_free] == 0 || !isPageAligned(words[to_free])))
            --to_free;

        if (to_free == 0) {
            // Nothing pending: the scratchpad will free as in-flight
            // drains land; retry the freePages check shortly.
            memory_.events().scheduleIn(100'000, [this, flow] {
                shared_.free_pages = -1;
                checkFreePages(flow);
            });
            return;
        }

        auto remaining =
            std::make_shared<std::size_t>(to_free * kLinesPerPage);
        auto finish = [this, flow, remaining] {
            if (--*remaining == 0) {
                shared_.free_pages = -1;
                checkFreePages(flow);
            }
        };
        for (std::size_t i = 0; i < to_free; ++i) {
            const Addr page = words[1 + i];
            for (std::size_t l = 0; l < kLinesPerPage; ++l) {
                const Addr line = page + l * kCacheLineSize;
                if (memory_.llc().contains(line)) {
                    // Cached copy exists: a flush generates the wrCAS
                    // that drains the scratchpad line.
                    memory_.flushLine(line, [finish](Tick) { finish(); });
                    continue;
                }
                // Uncached: read the line back (served from the
                // scratchpad when staged) and rewrite the identical
                // bytes — the wrCAS drains staged lines and is a
                // harmless idempotent store otherwise.
                auto staging = std::make_shared<
                    std::array<std::uint8_t, kCacheLineSize>>();
                memory_.mmioRead(line, staging->data(),
                                 [this, line, staging, finish](Tick) {
                    memory_.mmioWrite(line, staging->data(),
                                      [finish, staging](Tick) {
                        finish();
                    });
                });
            }
        }
    });
}

void
CompCpyEngine::flushSource(std::shared_ptr<Flow> flow)
{
    // Alg. 2 line 19: flush sbuf so rdCAS commands reach the DIMM.
    const std::size_t lines =
        divCeil(flow->params.size, kCacheLineSize);
    auto remaining = std::make_shared<std::size_t>(lines);
    for (std::size_t l = 0; l < lines; ++l) {
        const Addr line = flow->params.sbuf + l * kCacheLineSize;
        memory_.flushLine(line, [this, flow, remaining, line](Tick at) {
            SD_TRACE_EVENT(flow->span, trace::Stage::kFlush, at, line);
            if (--*remaining == 0)
                registerPages(flow);
        });
    }
}

void
CompCpyEngine::registerPages(std::shared_ptr<Flow> flow)
{
    // Alg. 2 lines 21-23: one MMIO write per page pair (S17).
    const CompCpyParams &p = flow->params;
    if (flow->cursor >= flow->dst_pages) {
        flow->cursor = 0;
        copyLines(flow);
        return;
    }

    const std::size_t page = flow->cursor++;
    std::array<std::uint8_t, kCacheLineSize> burst{};

    if (p.ulp == smartdimm::UlpKind::kTlsEncrypt) {
        smartdimm::TlsPageRegistration reg;
        reg.page_index = static_cast<std::uint16_t>(page);
        reg.message_len = static_cast<std::uint32_t>(p.size);
        reg.message_id = p.message_id;
        const bool tag_only = page >= flow->src_pages;
        reg.sbuf_page = tag_only
                            ? (p.dbuf / kPageSize + page)
                            : (p.sbuf / kPageSize + page);
        reg.dbuf_page = p.dbuf / kPageSize + page;
        std::memcpy(reg.key, p.key, sizeof(reg.key));
        std::memcpy(reg.iv, p.iv.data(), sizeof(reg.iv));
        reg.pack(burst.data());
    } else {
        smartdimm::DeflatePageRegistration reg;
        reg.payload_bytes = static_cast<std::uint16_t>(p.size);
        reg.sbuf_page = p.sbuf / kPageSize;
        reg.dbuf_page = p.dbuf / kPageSize;
        reg.pack(burst.data());
    }

    // The controller captures a write's data at enqueue.
    const Addr reg_addr = driver_.mmio(smartdimm::MmioReg::kRegister);
    memory_.mmioWrite(reg_addr, burst.data(),
                      [this, flow, reg_addr](Tick at) {
        SD_TRACE_EVENT(flow->span, trace::Stage::kRegister, at, reg_addr);
        registerPages(flow);
    });
}

void
CompCpyEngine::copyLines(std::shared_ptr<Flow> flow)
{
    // Alg. 2 lines 24-30: the memcpy, re-entered as each line copy
    // lands. Ordered mode fences between 64-byte copies (one line
    // strictly after another); unordered mode keeps kCopyWindow line
    // copies in flight, starting the next as each store lands.
    const CompCpyParams &p = flow->params;
    const std::size_t lines = divCeil(p.size, kCacheLineSize);

    if (flow->cursor >= lines) {
        if (flow->outstanding == 0) {
            flow->cursor = 0;
            zeroTrailer(flow);
        }
        return;
    }
    if (!p.ordered) {
        while (flow->outstanding < kCopyWindow && flow->cursor < lines)
            copyLine(flow, flow->cursor++);
        return;
    }
    if (flow->outstanding != 0)
        return; // the fence: wait for the copy in flight to land

    // kOrderedFence: an injected violation issues a window of two
    // lines in *reverse*, so the second line's rdCAS reaches the
    // streaming DSA first — exactly the bug the fences prevent. The
    // DSA poisons the job; the page never completes; the controller
    // eventually degrades its reads and the call is flagged.
    const bool fence_violation = lines - flow->cursor >= 2 &&
                                 injectFault(fault::Site::kOrderedFence);
    if (fence_violation) {
        ++stats_.fence_violations;
        SD_TRACE_EVENT(flow->span, trace::Stage::kFault,
                       memory_.events().now(),
                       p.sbuf + flow->cursor * kCacheLineSize);
    }
    const std::size_t window = fence_violation ? 2 : 1;
    for (std::size_t w = window; w-- > 0;)
        copyLine(flow, flow->cursor + w);
    flow->cursor += window;
}

void
CompCpyEngine::copyLine(const std::shared_ptr<Flow> &flow,
                        std::size_t line_index)
{
    const Addr src = flow->params.sbuf + line_index * kCacheLineSize;
    const Addr dst = flow->params.dbuf + line_index * kCacheLineSize;
    const auto slot =
        static_cast<unsigned>(std::countr_zero(flow->free_staging));
    flow->free_staging &= ~(1u << slot);
    ++flow->outstanding;
    memory_.readLine(src, flow->staging[slot].data(),
                     [this, flow, dst, slot](Tick) mutable {
        ++stats_.lines_copied;
        std::uint8_t *data = flow->staging[slot].data();
        memory_.writeLine(dst, data,
                          [this, flow = std::move(flow), dst, slot](Tick at) {
            SD_TRACE_EVENT(flow->span, trace::Stage::kCopy, at, dst);
            flow->free_staging |= 1u << slot;
            --flow->outstanding;
            copyLines(flow);
        });
    });
}

void
CompCpyEngine::zeroTrailer(std::shared_ptr<Flow> flow)
{
    // The result extent can reach past the lines the memcpy wrote: a
    // TLS record's tag line(s), or the frame tail of a Deflate page
    // whose output outgrows its payload. Writing zeros there makes
    // those lines dirty so the USE-side flush self-recycles them like
    // any other line and the page frees.
    const CompCpyParams &p = flow->params;
    const std::size_t payload_lines = divCeil(p.size, kCacheLineSize);
    const std::size_t last_page = flow->dst_pages - 1;
    const std::size_t total_lines =
        last_page * kLinesPerPage +
        (p.ulp == smartdimm::UlpKind::kTlsEncrypt
             ? smartdimm::tlsExtentLines(p.size, last_page)
             : smartdimm::deflateExtentLines(p.size));

    if (payload_lines >= total_lines) {
        finishFlow(flow);
        return;
    }

    auto remaining =
        std::make_shared<std::size_t>(total_lines - payload_lines);
    static const std::array<std::uint8_t, kCacheLineSize> kZeros{};
    for (std::size_t l = payload_lines; l < total_lines; ++l) {
        memory_.writeLine(p.dbuf + l * kCacheLineSize, kZeros.data(),
                          [this, flow, remaining](Tick) {
            if (--*remaining == 0)
                finishFlow(flow);
        });
    }
}

void
CompCpyEngine::finishFlow(const std::shared_ptr<Flow> &flow)
{
    if (!fault_plan_) {
        completeFlow(flow, 0);
        return;
    }
    // With a fault plan attached, poll the device's fault-status
    // register so rejected registrations surface as a degraded call
    // (the fault-free path issues no extra MMIO traffic).
    auto reg = std::make_shared<std::array<std::uint8_t, kCacheLineSize>>();
    memory_.mmioRead(driver_.mmio(smartdimm::MmioReg::kFaultStatus),
                     reg->data(), [this, flow, reg](Tick) {
        std::uint64_t rejected = 0;
        std::memcpy(&rejected, reg->data(), sizeof(rejected));
        const std::uint64_t fresh =
            rejected >= seen_rejections_ ? rejected - seen_rejections_
                                         : 0;
        seen_rejections_ = std::max(seen_rejections_, rejected);
        completeFlow(flow, fresh);
    });
}

void
CompCpyEngine::completeFlow(const std::shared_ptr<Flow> &flow,
                            std::uint64_t fresh_rejections)
{
    const std::uint64_t degraded =
        memory_.degradedReads() - flow->degraded_base;
    stats_.rejected_registrations += fresh_rejections;
    last_call_degraded_ = fresh_rejections > 0 || degraded > 0;
    if (last_call_degraded_) {
        ++stats_.degraded_calls;
        SD_TRACE_EVENT(flow->span, trace::Stage::kFault,
                       memory_.events().now(), flow->params.dbuf);
    }
    call_latency_.sample(memory_.events().now() - flow->begin);

    OpOutcome outcome;
    outcome.degraded = degraded > 0;
    outcome.rejected = fresh_rejections > 0;
    outcome.bailout = flow->bailed;
    flow->on_done(outcome);
}

void
CompCpyEngine::use(Addr dbuf, std::size_t bytes,
                   std::function<void()> on_done)
{
    const std::size_t lines = divCeil(bytes, kCacheLineSize);
    auto remaining = std::make_shared<std::size_t>(lines);
    auto done = std::make_shared<std::function<void()>>(std::move(on_done));
    for (std::size_t l = 0; l < lines; ++l) {
        const Addr line = dbuf + l * kCacheLineSize;
        memory_.flushLine(line, [remaining, done, line](Tick at) {
            SD_TRACE_PAGE_EVENT(line / kPageSize, trace::Stage::kUse, at,
                                line);
            if (--*remaining == 0)
                (*done)();
        });
    }
}

void
CompCpyEngine::reportStats(trace::StatsBlock &block) const
{
    block.scalar("calls", static_cast<double>(stats_.calls));
    block.scalar("pages_offloaded",
                 static_cast<double>(stats_.pages_offloaded));
    block.scalar("force_recycles",
                 static_cast<double>(stats_.force_recycles));
    block.scalar("freepages_refreshes",
                 static_cast<double>(stats_.freepages_refreshes));
    block.scalar("lines_copied",
                 static_cast<double>(stats_.lines_copied));
    block.scalar("degraded_calls",
                 static_cast<double>(stats_.degraded_calls));
    block.scalar("rejected_registrations",
                 static_cast<double>(stats_.rejected_registrations));
    block.scalar("recycle_bailouts",
                 static_cast<double>(stats_.recycle_bailouts));
    block.scalar("fence_violations",
                 static_cast<double>(stats_.fence_violations));
    block.scalar("shared_lock_acquisitions",
                 static_cast<double>(shared_.lock_acquisitions));
    block.hist("call_latency_ticks", call_latency_);
}

void
CompCpyEngine::useSync(Addr dbuf, std::size_t bytes)
{
    bool done = false;
    use(dbuf, bytes, [&done] { done = true; });
    while (!done)
        memory_.events().run();
}

std::vector<std::uint8_t>
CompCpyEngine::readResult(Addr dbuf, std::size_t bytes)
{
    const std::size_t lines = divCeil(bytes, kCacheLineSize);
    std::vector<std::uint8_t> out(lines * kCacheLineSize);
    memory_.readSync(dbuf, out.data(), out.size());
    out.resize(bytes);
    return out;
}

} // namespace sd::compcpy
