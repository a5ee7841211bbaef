/**
 * @file
 * Per-channel DDR4 memory controller: FR-FCFS scheduling over split
 * read/write queues with watermark-based write draining and pipelined
 * CAS issue (see earliestCas). The write batching plus bus-turnaround
 * costs produce the gap between a CompCpy's sbuf rdCAS and the
 * matching dbuf wrCAS that SmartDIMM's inline offload depends on
 * (Sec. IV-D; bench/micro_slack measures it).
 */

#ifndef SD_MEM_MEMORY_CONTROLLER_H
#define SD_MEM_MEMORY_CONTROLLER_H

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "common/stats.h"
#include "common/types.h"
#include "fault/fault.h"
#include "mem/address_map.h"
#include "mem/bank_state.h"
#include "mem/dram_command.h"
#include "sim/clock.h"
#include "sim/event_queue.h"
#include "sim/unique_function.h"
#include "trace/trace.h"

namespace sd::mem {

/**
 * How a request completed. kDegraded marks a read that exhausted its
 * ALERT_N retry budget: the data buffer may hold stale bytes, and the
 * host stack is expected to fall back (e.g. CPU placement) rather than
 * trust the line.
 */
enum class MemStatus : std::uint8_t
{
    kOk,
    kDegraded,
};

/**
 * Completion callback: tick the data burst finished, plus status.
 * Move-only (see sim/unique_function.h): completion state rides the
 * request through enqueue -> issue -> data burst without a single
 * copy or forced heap allocation.
 */
using MemCallback = UniqueFunctionT<void(Tick, MemStatus)>;

/** Controller statistics. */
struct ControllerStats
{
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t row_hits = 0;
    std::uint64_t row_misses = 0;   ///< row closed: ACT needed
    std::uint64_t row_conflicts = 0; ///< other row open: PRE + ACT
    std::uint64_t alert_retries = 0;
    std::uint64_t spurious_alerts = 0; ///< fault-injected ALERT_N storms
    std::uint64_t alert_backoffs = 0;  ///< retries past the fast window
    std::uint64_t degraded_reads = 0;  ///< retry budget exhausted
    std::uint64_t turnarounds = 0;
    std::uint64_t sched_passes = 0;      ///< full FR-FCFS passes run
    std::uint64_t wakeups_requested = 0; ///< requestPass() calls
    std::uint64_t wakeups_coalesced = 0; ///< covered by a pending pass

    std::uint64_t
    bytesMoved() const
    {
        return (reads + writes) * kCacheLineSize;
    }
};

/**
 * One channel's controller. Requests enter at line granularity; data
 * moves to/from the attached DimmDevice; every command is also offered
 * to an optional CommandObserver.
 */
class MemoryController
{
  public:
    MemoryController(EventQueue &events, const AddressMap &map,
                     const DramTiming &timing,
                     const ControllerConfig &config, unsigned channel,
                     DimmDevice &dimm);

    /**
     * Enqueue a 64-byte read. @p data must stay valid until the
     * callback fires; the device fills it at completion time.
     */
    void enqueueRead(Addr line_addr, std::uint8_t *data, MemCallback cb);

    /**
     * Enqueue a 64-byte write. Data is captured by value (the burst
     * travels with the command, as on the wire). Optional callback
     * fires when the burst has been issued to the device.
     */
    void enqueueWrite(Addr line_addr, const std::uint8_t *data,
                      MemCallback cb = nullptr);

    /** Attach a command-trace observer (may be null). */
    void setObserver(CommandObserver *observer) { observer_ = observer; }

    /**
     * Attach a fault plan (may be null; not owned). Sites consulted:
     * kAlertStorm (a completing read is turned into a spurious ALERT_N
     * requeue) and kWriteDrainDelay (entering write-drain mode is
     * suppressed for one scheduler pass).
     */
    void setFaultPlan(fault::FaultPlan *plan) { fault_plan_ = plan; }

    /** @return pending request count (both queues + in flight). */
    std::size_t pending() const { return read_q_.size() + write_q_.size(); }

    const ControllerStats &stats() const { return stats_; }
    void resetStats() { stats_ = ControllerStats{}; }

    /** Channel data-bus busy cycles (bandwidth-utilisation metric). */
    std::uint64_t busBusyCycles() const { return bus_busy_cycles_; }

    /** Enqueue-to-data read latency distribution (ticks). */
    const LogHistogram &readLatency() const { return read_latency_; }

    /** Contribute this channel's counters to a stats dump. */
    void reportStats(trace::StatsBlock &block) const;

    /**
     * Testing knob: disable scheduler-wakeup coalescing, reverting to
     * one full FR-FCFS pass per requested wakeup. The command stream
     * must be identical either way (the coalescing regression test
     * proves it); coalesced mode just executes fewer events. Not for
     * production use.
     */
    void setCoalesceWakeups(bool on) { coalesce_wakeups_ = on; }

  private:
    struct Request
    {
        Addr addr;
        DramCoord coord;
        std::uint32_t flat_bank = 0; ///< precomputed FR-FCFS scan key
        std::uint8_t *read_data = nullptr;
        std::vector<std::uint8_t> write_data;
        MemCallback cb;
        Tick enqueued = 0;
        unsigned retries = 0;
        bool needed_act = false; ///< ACT was issued for this request
    };

    void kick();           ///< request a pass at the next clock edge
    /**
     * The coalesced wakeup helper: every scheduler wakeup flows
     * through here (sdlint's wakeup-bypass rule enforces it). A
     * request already covered by a pending pass at an earlier-or-
     * equal tick is dropped — the pass re-derives any later wakeup
     * it still needs, because the FR-FCFS pick is stable between
     * passes and computed issue ticks never recede.
     */
    void requestPass(Tick when);
    void retryAlert(const DdrCommand &cmd, std::uint8_t *read_data,
                    MemCallback cb, unsigned retries, Tick enq,
                    bool spurious);
    void updateWriteDrain(); ///< watermark hysteresis + injected delay
    void schedulePass();   ///< pick and issue the next command
    bool issueRequest(std::deque<Request> &queue, std::size_t index,
                      bool is_write);
    /**
     * Earliest tick @p req's CAS may issue: the one home of the DDR4
     * column spacing rules (DESIGN.md §12). CASes pipeline, so the
     * next one need not wait for the previous burst's data.
     */
    Tick earliestCas(const Request &req, bool is_write) const;
    std::size_t pickFrFcfs(const std::deque<Request> &queue) const;
    void emit(DdrCommandType type, const Request &req, Tick at);

    EventQueue &events_;
    const AddressMap &map_;
    DramTiming timing_;
    ControllerConfig config_;
    unsigned channel_;
    DimmDevice &dimm_;
    CommandObserver *observer_ = nullptr;
    fault::FaultPlan *fault_plan_ = nullptr;
    ClockDomain clock_{625}; // DDR4-3200 command clock

    std::deque<Request> read_q_;
    std::deque<Request> write_q_;
    BankStateSoA banks_;
    unsigned banks_per_group_;
    /** Per (dimm, rank, bank group): last CAS + tCCD_L. */
    std::vector<Tick> group_next_cas_at_;
    Tick next_cas_at_ = 0;       ///< last CAS + max(tBL, tCCD_S)
    Tick next_write_cas_at_ = 0; ///< last read CAS + tRTW
    Tick next_read_cas_at_ = 0;  ///< last write data end + tWTR
    bool write_drain_ = false;
    bool coalesce_wakeups_ = true;
    bool pass_scheduled_ = false; ///< a pass event is pending at pass_at_
    Tick pass_at_ = 0;
    /** Generation stamp invalidating superseded pass events. */
    std::uint64_t pass_epoch_ = 0;
    /** Pass-scoped buffer for the mirrored DDR command stream. */
    trace::DdrBatch ddr_batch_;
    bool last_was_write_ = false;
    bool cas_issued_ = false; ///< any CAS issued yet (turnaround count)
    std::uint64_t bus_busy_cycles_ = 0;
    ControllerStats stats_;
    LogHistogram read_latency_;
};

} // namespace sd::mem

#endif // SD_MEM_MEMORY_CONTROLLER_H
