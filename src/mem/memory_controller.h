/**
 * @file
 * Per-channel DDR4 memory controller: ready-first FR-FCFS scheduling
 * over split read/write queues, each indexed per bank, with
 * watermark-based write draining bounded by a maximum write wait, and
 * pipelined CAS issue (see earliestCas). The write batching plus
 * bus-turnaround
 * costs produce the gap between a CompCpy's sbuf rdCAS and the
 * matching dbuf wrCAS that SmartDIMM's inline offload depends on
 * (Sec. IV-D; bench/micro_slack measures it).
 */

#ifndef SD_MEM_MEMORY_CONTROLLER_H
#define SD_MEM_MEMORY_CONTROLLER_H

#include <array>
#include <cstdint>
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
    /**
     * Longest a queued write waits while reads keep the controller
     * busy (command clocks; 1600 = 1 µs, the order of write hold a
     * real controller shows, and ~16x the DSA's per-line latency).
     * Past it the controller drains every write queued at that
     * moment (DESIGN.md §12). A model constant, not a tuning knob.
     */
    static constexpr Cycles kWriteMaxWait = 1600;

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

    /** @return queued request count, both directions. */
    std::size_t pending() const { return reads_.size + writes_.size; }

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
    /** Null slab index: end of a bank FIFO, or no pick. */
    static constexpr std::uint32_t kNil = ~std::uint32_t{0};
    /** Sequence bound that admits every queued request. */
    static constexpr std::uint64_t kNoBound = ~std::uint64_t{0};

    /**
     * A request owns its slab slot from enqueue until its burst
     * completes; the completion event carries only the slot index.
     * The fields the pick reads come first.
     */
    struct Request
    {
        std::uint32_t next = kNil;   ///< next-younger request, same bank
        std::uint32_t flat_bank = 0; ///< precomputed bank-index key
        std::uint64_t seq = 0;       ///< enqueue order: smaller is older
        DramCoord coord;
        Addr addr = 0;
        std::uint8_t *read_data = nullptr;
        MemCallback cb;
        Tick enqueued = 0;
        unsigned retries = 0;
        bool needed_act = false; ///< ACT was issued for this request
        std::array<std::uint8_t, kCacheLineSize> write_data{};
    };

    /**
     * One direction's queue, indexed by bank: a FIFO per flat bank,
     * linked through the request slab, plus a bitmask of the banks
     * holding any request. A bank's FIFO is in enqueue (seq) order.
     */
    struct BankQueues
    {
        explicit BankQueues(std::size_t banks)
            : head(banks, kNil), tail(banks, kNil),
              nonempty((banks + 63) / 64, 0)
        {
        }

        std::vector<std::uint32_t> head;
        std::vector<std::uint32_t> tail;
        std::vector<std::uint64_t> nonempty; ///< bit per flat bank
        std::size_t size = 0;                ///< running request count
    };

    /**
     * The request a pass serves. A row hit carries the tick its CAS
     * may issue; otherwise the request needs its row opened first.
     */
    struct Pick
    {
        std::uint32_t index = kNil; ///< slab slot
        std::uint32_t prev = kNil;  ///< predecessor in its bank FIFO
        bool row_hit = false;
        Tick cas_at = 0; ///< row hits: max(earliestCas, now)
    };

    void kick();           ///< request a pass at the next clock edge
    /**
     * The coalesced wakeup helper: every scheduler wakeup flows
     * through here (sdcheck's wakeup-bypass rule enforces it). A
     * request already covered by a pending pass at an earlier-or-
     * equal tick is dropped — the pass re-derives any later wakeup
     * it still needs: computed issue ticks never recede, and a pass
     * before the earliest candidate's tick issues nothing.
     */
    void requestPass(Tick when);
    /** Requeue the read in slot @p index, or fail it as degraded. */
    void retryAlert(std::uint32_t index, bool spurious);
    /** What the next issue serves; see updateWriteDrain. */
    struct WriteService
    {
        /** Writes with seq below it are served; 0 serves reads. */
        std::uint64_t bound = 0;
        /** While reads are served and writes wait: when the oldest
         *  write outwaits kWriteMaxWait; otherwise 0. */
        Tick deadline = 0;
    };
    /**
     * Decide which direction the next issue serves: watermark
     * hysteresis (with the injected delay), the "reads empty ->
     * writes" rule and the write age bound.
     */
    WriteService updateWriteDrain();
    /**
     * The oldest queued write: the minimum-seq head over the per-bank
     * write FIFOs (writes never requeue, so a bank's head is its
     * oldest). Precondition: a write is queued.
     */
    const Request &oldestWrite() const;
    void schedulePass();   ///< pick and issue the next command
    /** Take a free slab slot for a new request; @return its index. */
    std::uint32_t allocRequest(Addr line_addr, MemCallback cb);
    /** Append slot @p index to the tail of its bank's FIFO, as youngest. */
    void push(BankQueues &queues, std::uint32_t index);
    /**
     * Ready-first FR-FCFS over the requests with seq below @p below:
     * among banks whose open row some such request targets, the
     * bank's oldest such request, earliest CAS tick first and then
     * oldest; with no row hit among them, the oldest. Precondition:
     * the oldest request in @p queues has seq below @p below.
     */
    Pick pick(const BankQueues &queues, bool is_write,
              std::uint64_t below) const;
    /**
     * Issue @p choice's CAS, or the PRE/ACT its row needs first.
     * @return 0 once the CAS issued; otherwise the tick at which a
     * pass can make progress on it.
     */
    Tick issueRequest(BankQueues &queues, const Pick &choice,
                      bool is_write);
    /** Data-burst end: hand the line to or from the device. */
    void finishBurst(std::uint32_t index, Tick cas_at, bool is_write);
    /** Free slot @p index, then run its completion callback. */
    void complete(std::uint32_t index, MemStatus status);
    /**
     * Earliest tick @p req's CAS may issue: the one home of the DDR4
     * column spacing rules (DESIGN.md §12). CASes pipeline, so the
     * next one need not wait for the previous burst's data.
     */
    Tick earliestCas(const Request &req, bool is_write) const;
    DdrCommand command(DdrCommandType type, const Request &req,
                       Tick at) const;
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

    /** Request slab, queued and in-flight; free slots in free_. */
    std::vector<Request> slab_;
    std::vector<std::uint32_t> free_;
    std::uint64_t next_seq_ = 0;
    BankQueues reads_;
    BankQueues writes_;
    BankStateSoA banks_;
    unsigned banks_per_group_;
    /** Per (dimm, rank, bank group): last CAS + tCCD_L. */
    std::vector<Tick> group_next_cas_at_;
    Tick next_cas_at_ = 0;       ///< last CAS + max(tBL, tCCD_S)
    Tick next_write_cas_at_ = 0; ///< last read CAS + tRTW
    Tick next_read_cas_at_ = 0;  ///< last write data end + tWTR
    bool write_drain_ = false;
    /**
     * Age drain: writes with seq below this were queued when the
     * oldest write outwaited kWriteMaxWait, and are served ahead of
     * reads until all have issued. 0: none yet.
     */
    std::uint64_t age_drain_below_ = 0;
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
