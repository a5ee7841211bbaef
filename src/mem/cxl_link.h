/**
 * @file
 * CXL.mem far-memory link model. A CxlLink sits between the LLC and a
 * far channel's memory controller and charges every DRAM-side access
 * the link's round-trip flight time plus payload serialization at the
 * configured line rate. Flits serialize in FIFO order on one shared
 * link, so back-to-back transfers queue behind each other — the model
 * reuses the pool-backed EventQueue rather than keeping its own timer
 * wheel.
 *
 * The link is also a fault-injection point: kCxlLinkStall adds a
 * configurable retry penalty to one transfer (a CRC retry episode on
 * the flex-bus), counted separately from ordinary queueing so the
 * chaos soak can check conservation.
 */

#ifndef SD_MEM_CXL_LINK_H
#define SD_MEM_CXL_LINK_H

#include <cstddef>
#include <cstdint>
#include <utility>

#include "common/types.h"
#include "fault/fault.h"
#include "sim/event_queue.h"
#include "trace/trace.h"

namespace sd::mem {

/** Link timing knobs (defaults: mid-range CXL 2.0 switch hop). */
struct CxlLinkConfig
{
    double round_trip_ns = 600.0; ///< request + response flight time
    double gbps = 32.0;           ///< payload serialization rate
    double stall_ns = 250.0;      ///< injected CRC-retry episode penalty
};

/**
 * One CXL.mem link: all traffic to one far channel serializes here.
 * Single-owner like every simulation component — only event-queue
 * callbacks touch it.
 */
class CxlLink
{
  public:
    struct Stats
    {
        std::uint64_t transfers = 0;
        std::uint64_t bytes = 0;
        std::uint64_t queued = 0; ///< transfers that waited for the wire
        std::uint64_t injected_stalls = 0;
        Tick busy_ticks = 0;  ///< wire occupancy (serialization)
        Tick queue_ticks = 0; ///< time spent waiting behind earlier flits
    };

    CxlLink(EventQueue &events, const CxlLinkConfig &config);

    /**
     * Ship @p bytes across the link and run @p fn when the response
     * lands (round trip + serialization + any queueing/stall delay).
     * @p fn receives the delivery tick. The arrival event captures
     * @p fn itself, not a type-erased wrapper, so a small callable
     * stays inside the event's inline buffer and the far-channel
     * completion path allocates nothing.
     */
    template <typename F>
    void
    transfer(std::size_t bytes, F fn)
    {
        const Tick done = reserve(bytes);
        events_.schedule(done, [fn = std::move(fn), done]() mutable {
            fn(done);
        });
    }

    /** Round-trip flight time in ticks (no payload, no queueing). */
    Tick roundTripTicks() const { return round_trip_ticks_; }

    void setFaultPlan(fault::FaultPlan *plan) { fault_plan_ = plan; }
    void
    setFaultScope(const fault::FaultScope &scope)
    {
        fault_scope_ = scope;
    }

    const Stats &stats() const { return stats_; }
    void reportStats(trace::StatsBlock &block) const;

  private:
    /** Queue @p bytes on the wire; @return the delivery tick. */
    Tick reserve(std::size_t bytes);

    EventQueue &events_;
    CxlLinkConfig config_;
    Tick round_trip_ticks_ = 0;
    Tick stall_ticks_ = 0;
    Tick free_at_ = 0; ///< when the wire finishes the last queued flit
    Stats stats_;
    fault::FaultPlan *fault_plan_ = nullptr;
    fault::FaultScope fault_scope_;
};

} // namespace sd::mem

#endif // SD_MEM_CXL_LINK_H
