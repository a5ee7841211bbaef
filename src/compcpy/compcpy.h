/**
 * @file
 * The CompCpy API (Algorithm 2) and Force-Recycle (Algorithm 1).
 * CompCpy extends memcpy: while copying a 4 KB-aligned source buffer
 * to a destination buffer it configures SmartDIMM so the data is
 * transformed on its way through the DDR channel. The engine runs
 * against the simulated MemorySystem, so every step — the cache
 * flush, the MMIO registration, the 64-byte copy loop with optional
 * fences, and the USE-side flush — produces real DDR commands at the
 * buffer device.
 */

#ifndef SD_COMPCPY_COMPCPY_H
#define SD_COMPCPY_COMPCPY_H

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cache/memory_system.h"
#include "common/stats.h"
#include "common/types.h"
#include "compcpy/driver.h"
#include "fault/fault.h"
#include "crypto/aes_gcm.h"
#include "smartdimm/dsa.h"
#include "smartdimm/mmio_layout.h"
#include "trace/trace.h"

namespace sd::compcpy {

class WorkQueue;

/** Parameters of one CompCpy invocation. */
struct CompCpyParams
{
    Addr dbuf = 0;          ///< page-aligned destination
    Addr sbuf = 0;          ///< page-aligned source
    std::size_t size = 0;   ///< source bytes (payload)
    bool ordered = false;   ///< fence between 64 B copies (Deflate)

    /** TLS context (used when ulp == kTlsEncrypt). */
    std::uint8_t key[16] = {};
    crypto::GcmIv iv{};
    std::uint64_t message_id = 0;

    smartdimm::UlpKind ulp = smartdimm::UlpKind::kTlsEncrypt;
};

/**
 * How one CompCpy op finished, reported to the owning work queue so
 * its completion record can mirror the PR 5 fault outcomes.
 */
struct OpOutcome
{
    bool degraded = false; ///< ALERT_N-exhausted (degraded) reads seen
    bool rejected = false; ///< device rejected a page registration
    bool bailout = false;  ///< Force-Recycle loop hit its bound
};

/** Outcome counters for one engine instance. */
struct CompCpyStats
{
    std::uint64_t calls = 0;
    std::uint64_t pages_offloaded = 0;
    std::uint64_t force_recycles = 0;
    std::uint64_t freepages_refreshes = 0;
    std::uint64_t lines_copied = 0;
    std::uint64_t degraded_calls = 0;    ///< kDegraded reads or rejections
    std::uint64_t rejected_registrations = 0; ///< device-side rejections seen
    std::uint64_t recycle_bailouts = 0;  ///< Force-Recycle loop bounded
    std::uint64_t fence_violations = 0;  ///< injected ordered-mode breaks
};

/**
 * The userspace CompCpy engine. One instance per logical core; the
 * freePages shadow counter is shared through a SharedState object
 * (the lock-protected global of Algorithm 2).
 */
class CompCpyEngine
{
  public:
    /** The lock-protected global freePages shadow (Alg. 2 line 1). */
    struct SharedState
    {
        std::int64_t free_pages = -1;
        std::uint64_t lock_acquisitions = 0;
    };

    CompCpyEngine(cache::MemorySystem &memory, Driver &driver,
                  SharedState &shared);
    ~CompCpyEngine();

    /**
     * Asynchronous CompCpy. Submits a single-op descriptor to the
     * engine's internal work queue (see syncQueue()) and invokes
     * @p on_done when its completion record lands — there is exactly
     * one execution path, the descriptor/work-queue one. The
     * destination must then be consumed via use().
     */
    void start(const CompCpyParams &params, std::function<void()> on_done);

    /**
     * Synchronous CompCpy: submit to the internal work queue, then
     * poll (pumping the event queue) until the completion record is
     * reaped — submit-then-poll is the only way an op executes.
     */
    void run(const CompCpyParams &params);

    /**
     * The internal work queue backing start()/run(). Lazily created
     * (queue id 0, shared mode, deep enough that the facade never
     * genuinely backpressures its callers). Exposed so tests and
     * stats dumps can observe the sync path's queue accounting.
     */
    WorkQueue &syncQueue();

    /**
     * USE(dbuf) (Alg. 2 line 32-33): flush the destination so the
     * Scratchpad drains to DRAM, making the transformed bytes visible.
     */
    void use(Addr dbuf, std::size_t bytes,
             std::function<void()> on_done);

    /** Synchronous use(). */
    void useSync(Addr dbuf, std::size_t bytes);

    /** Read transformed bytes back (after useSync). */
    std::vector<std::uint8_t> readResult(Addr dbuf, std::size_t bytes);

    /** Destination pages (incl. TLS trailer) a params needs. */
    static std::size_t destPages(const CompCpyParams &params);

    /**
     * Attach a fault plan (not owned; may be null). The engine itself
     * consults kOrderedFence (an ordered-mode copy issues one window
     * of two lines in reverse, breaking the fence contract); with any
     * plan attached it additionally polls the device's kFaultStatus
     * register at call completion so rejected registrations and
     * degraded reads surface as degraded_calls.
     */
    void setFaultPlan(fault::FaultPlan *plan) { fault_plan_ = plan; }

    /**
     * Name the device this engine drives so scoped fault rules
     * (`smartdimm[ch][dimm]/...`) can target its host-side sites
     * (kOrderedFence here, kQueueFull/kLostCompletion in the queues).
     */
    void setFaultScope(const fault::FaultScope &scope)
    {
        fault_scope_ = scope;
    }

    const fault::FaultScope &faultScope() const { return fault_scope_; }

    /**
     * Suffix for trace span names opened on this engine's behalf
     * (e.g. "ch1.d0" makes TLS spans "tls.ch1.d0"). Empty — the
     * default — keeps the legacy single-device names, so 1x1 golden
     * traces are unaffected. Composed names are interned because
     * trace::Span borrows the `const char *` and spans outlive the
     * engine (per-thread engines die before the tracer dumps).
     */
    void
    setSpanTag(const std::string &tag)
    {
        tls_span_name_ =
            tag.empty() ? "tls" : trace::internString("tls." + tag);
        deflate_span_name_ =
            tag.empty() ? "deflate"
                        : trace::internString("deflate." + tag);
    }

    /** Stable span name for @p ulp (valid process-wide). */
    const char *
    spanName(smartdimm::UlpKind ulp) const
    {
        return ulp == smartdimm::UlpKind::kTlsEncrypt
                   ? tls_span_name_
                   : deflate_span_name_;
    }

    /**
     * Whether the most recently completed call was degraded (ALERT_N
     * retry exhaustion or a rejected registration). The adaptive
     * policy uses this to fall back to CPU placement.
     */
    bool lastCallDegraded() const { return last_call_degraded_; }

    const CompCpyStats &stats() const { return stats_; }

    /** Start-to-done latency distribution of completed calls (ticks). */
    const LogHistogram &callLatency() const { return call_latency_; }

    /** Contribute engine counters to a stats dump. */
    void reportStats(trace::StatsBlock &block) const;

    // Accessors the work-queue front end drives the simulation with.
    cache::MemorySystem &memory() { return memory_; }
    Driver &driver() { return driver_; }
    fault::FaultPlan *faultPlan() { return fault_plan_; }

  private:
    friend class WorkQueue; ///< sole caller of startOp()

    struct Flow; ///< per-invocation continuation state

    /**
     * Execute one op of a dispatched descriptor: the full Algorithm 2
     * sequence (freePages check, Force-Recycle, flush, registration,
     * copy loop, trailer). Private by design — every op reaches the
     * engine through a WorkQueue, so the queue is the one execution
     * path (tools/sdcheck.py's queue-bypass rule enforces the same at
     * the source level).
     * @p span is the trace span the owning queue opened at submit.
     */
    void startOp(const CompCpyParams &params, std::uint32_t span,
                 std::function<void(const OpOutcome &)> on_done);

    void checkFreePages(std::shared_ptr<Flow> flow);
    void forceRecycle(std::shared_ptr<Flow> flow,
                      std::size_t required_pages);
    void flushSource(std::shared_ptr<Flow> flow);
    void registerPages(std::shared_ptr<Flow> flow);
    void copyLines(std::shared_ptr<Flow> flow);
    /** Copy line @p line_index of the source into the destination. */
    void copyLine(const std::shared_ptr<Flow> &flow, std::size_t line_index);
    void zeroTrailer(std::shared_ptr<Flow> flow);
    void finishFlow(const std::shared_ptr<Flow> &flow);
    void completeFlow(const std::shared_ptr<Flow> &flow,
                      std::uint64_t fresh_rejections);
    bool injectFault(fault::Site site);

    cache::MemorySystem &memory_;
    Driver &driver_;
    SharedState &shared_;
    fault::FaultPlan *fault_plan_ = nullptr;
    fault::FaultScope fault_scope_;
    const char *tls_span_name_ = "tls";        ///< interned/static
    const char *deflate_span_name_ = "deflate"; ///< interned/static
    std::uint64_t seen_rejections_ = 0; ///< kFaultStatus poll baseline
    bool last_call_degraded_ = false;
    CompCpyStats stats_;
    LogHistogram call_latency_;
    std::unique_ptr<WorkQueue> sync_queue_; ///< start()/run() facade
};

} // namespace sd::compcpy

#endif // SD_COMPCPY_COMPCPY_H
