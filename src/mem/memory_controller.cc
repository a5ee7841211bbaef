#include "mem/memory_controller.h"

#include <algorithm>
#include <memory>

#include "common/log.h"

namespace sd::mem {

MemoryController::MemoryController(EventQueue &events, const AddressMap &map,
                                   const DramTiming &timing,
                                   const ControllerConfig &config,
                                   unsigned channel, DimmDevice &dimm)
    : events_(events), map_(map), timing_(timing), config_(config),
      channel_(channel), dimm_(dimm),
      banks_(map.geometry().totalBanks()),
      banks_per_group_(map.geometry().banks_per_group),
      group_next_cas_at_(map.geometry().totalBanks() /
                         map.geometry().banks_per_group)
{
}

void
MemoryController::enqueueRead(Addr line_addr, std::uint8_t *data,
                              MemCallback cb)
{
    SD_ASSERT(isLineAligned(line_addr), "unaligned read 0x%llx",
              static_cast<unsigned long long>(line_addr));
    Request req;
    req.addr = line_addr;
    req.coord = map_.decompose(line_addr);
    req.flat_bank = req.coord.flatBank(map_.geometry());
    req.read_data = data;
    req.cb = std::move(cb);
    req.enqueued = events_.now();
    read_q_.push_back(std::move(req));
    kick();
}

void
MemoryController::enqueueWrite(Addr line_addr, const std::uint8_t *data,
                               MemCallback cb)
{
    SD_ASSERT(isLineAligned(line_addr), "unaligned write 0x%llx",
              static_cast<unsigned long long>(line_addr));
    Request req;
    req.addr = line_addr;
    req.coord = map_.decompose(line_addr);
    req.flat_bank = req.coord.flatBank(map_.geometry());
    req.write_data.assign(data, data + kCacheLineSize);
    req.cb = std::move(cb);
    req.enqueued = events_.now();
    write_q_.push_back(std::move(req));
    kick();
}

void
MemoryController::kick()
{
    // Scheduler decisions land on command-clock edges.
    requestPass(clock_.nextEdge(events_.now()));
}

void
MemoryController::requestPass(Tick when)
{
    ++stats_.wakeups_requested;
    if (!coalesce_wakeups_) {
        // Reference mode for the coalescing regression test: one full
        // scheduler pass per requested wakeup, as the seed behaved.
        events_.schedule(when, [this] { schedulePass(); });
        return;
    }
    if (pass_scheduled_ && pass_at_ <= when) {
        ++stats_.wakeups_coalesced;
        return;
    }
    pass_scheduled_ = true;
    pass_at_ = when;
    const std::uint64_t epoch = ++pass_epoch_;
    events_.schedule(when, [this, epoch] {
        if (epoch != pass_epoch_)
            return; // superseded by an earlier wakeup
        pass_scheduled_ = false;
        schedulePass();
    });
}

std::size_t
MemoryController::pickFrFcfs(const std::deque<Request> &queue) const
{
    // First ready (row hit), then oldest. The probe is one 8-byte
    // load against the SoA open-row column, keyed by the flat bank
    // id precomputed at enqueue.
    for (std::size_t i = 0; i < queue.size(); ++i) {
        if (banks_.rowHit(queue[i].flat_bank, queue[i].coord.row))
            return i;
    }
    return 0;
}

void
MemoryController::emit(DdrCommandType type, const Request &req, Tick at)
{
    DdrCommand cmd;
    cmd.type = type;
    cmd.coord = req.coord;
    cmd.addr = req.addr;
    cmd.issue = at;
    // Four command slots per buffer-device cycle (Sec. IV-C).
    cmd.slot = static_cast<unsigned>(clock_.cyclesAt(at) % 4);
    dimm_.onCommand(cmd);
    if (observer_)
        observer_->observe(cmd);

    auto &tr = trace::tracer();
    if (tr.ddrCapture()) {
        trace::Stage stage;
        switch (type) {
          case DdrCommandType::kReadCas:
            stage = trace::Stage::kDdrRead;
            break;
          case DdrCommandType::kWriteCas:
            stage = trace::Stage::kDdrWrite;
            break;
          case DdrCommandType::kActivate:
            stage = trace::Stage::kDdrActivate;
            break;
          default:
            stage = trace::Stage::kDdrPrecharge;
            break;
        }
        // Buffered; schedulePass() flushes before returning to the
        // event loop, preserving capture order (see trace::DdrBatch).
        ddr_batch_.add(stage, at, cmd.addr);
    }
}

void
MemoryController::reportStats(trace::StatsBlock &block) const
{
    block.scalar("reads", static_cast<double>(stats_.reads));
    block.scalar("writes", static_cast<double>(stats_.writes));
    block.scalar("row_hits", static_cast<double>(stats_.row_hits));
    block.scalar("row_misses", static_cast<double>(stats_.row_misses));
    block.scalar("row_conflicts",
                 static_cast<double>(stats_.row_conflicts));
    block.scalar("alert_retries",
                 static_cast<double>(stats_.alert_retries));
    block.scalar("spurious_alerts",
                 static_cast<double>(stats_.spurious_alerts));
    block.scalar("alert_backoffs",
                 static_cast<double>(stats_.alert_backoffs));
    block.scalar("degraded_reads",
                 static_cast<double>(stats_.degraded_reads));
    block.scalar("turnarounds", static_cast<double>(stats_.turnarounds));
    block.scalar("sched_passes",
                 static_cast<double>(stats_.sched_passes));
    block.scalar("wakeups_requested",
                 static_cast<double>(stats_.wakeups_requested));
    block.scalar("wakeups_coalesced",
                 static_cast<double>(stats_.wakeups_coalesced));
    block.scalar("bytes_moved", static_cast<double>(stats_.bytesMoved()));
    block.scalar("bus_busy_cycles",
                 static_cast<double>(bus_busy_cycles_));
    block.hist("read_latency_ticks", read_latency_);
}

Tick
MemoryController::earliestCas(const Request &req, bool is_write) const
{
    // Every CAS spacing rule lives here. Each input moves only when a
    // CAS (or, for the bank, an ACT) issues, so between passes the
    // result never recedes — the property wakeup coalescing needs.
    return std::max({
        // Bank: tRCD after its ACT, tCCD_L after its last CAS.
        banks_.readyAt(req.flat_bank),
        // Channel: last CAS + max(tBL, tCCD_S), either direction.
        next_cas_at_,
        // Bank group: last CAS in the group + tCCD_L.
        group_next_cas_at_[req.flat_bank / banks_per_group_],
        // Turnaround: last read CAS + tRTW for a write; last write's
        // data end + tWTR for a read.
        is_write ? next_write_cas_at_ : next_read_cas_at_,
    });
}

bool
MemoryController::issueRequest(std::deque<Request> &queue,
                               std::size_t index, bool is_write)
{
    Request &req = queue[index];
    const std::uint32_t bank = req.flat_bank;
    const Tick now = events_.now();
    const Tick period = clock_.period();

    // Open the right row first if needed.
    if (!banks_.rowHit(bank, req.coord.row)) {
        Tick when = std::max(now, banks_.readyAt(bank));
        if (banks_.open(bank)) {
            // PRE then ACT. Respect tRAS since the last ACT.
            when = std::max(when,
                            banks_.actAt(bank) + timing_.tRAS * period);
            Request pre_req; // coordinates only
            pre_req.addr = req.addr;
            pre_req.coord = req.coord;
            emit(DdrCommandType::kPrecharge, pre_req, when);
            when += timing_.tRP * period;
            ++stats_.row_conflicts;
        } else {
            ++stats_.row_misses;
        }
        emit(DdrCommandType::kActivate, req, when);
        req.needed_act = true;
        banks_.activate(bank, req.coord.row, /*act_at=*/when,
                        /*ready_at=*/when + timing_.tRCD * period);
        // Re-run the scheduler when the bank becomes ready.
        requestPass(banks_.readyAt(bank));
        return false; // CAS not issued this pass
    }

    const Tick cas_at =
        clock_.nextEdge(std::max(earliestCas(req, is_write), now));
    if (cas_at > now) {
        // Not issuable yet; try again when the spacing rules allow.
        requestPass(cas_at);
        return false;
    }
    if (cas_issued_ && last_was_write_ != is_write)
        ++stats_.turnarounds;

    // Issue the CAS now. Row hits are CASes that never needed an ACT.
    if (!req.needed_act)
        ++stats_.row_hits;
    Request done = std::move(req);
    queue.erase(queue.begin() + static_cast<long>(index));

    const Cycles cas_latency = is_write ? timing_.tCWL : timing_.tCL;
    const Tick data_start = cas_at + cas_latency * period;
    const Tick data_end = data_start + timing_.tBL * period;

    next_cas_at_ =
        cas_at + std::max(timing_.tBL, timing_.tCCD_S) * period;
    // The bank's own readiness also gates its next PRE (ACT path).
    banks_.setReadyAt(bank, cas_at + timing_.tCCD_L * period);
    group_next_cas_at_[bank / banks_per_group_] =
        cas_at + timing_.tCCD_L * period;
    if (is_write)
        next_read_cas_at_ = data_end + timing_.tWTR * period;
    else
        next_write_cas_at_ = cas_at + timing_.tRTW * period;
    last_was_write_ = is_write;
    cas_issued_ = true;
    bus_busy_cycles_ += timing_.tBL;

    if (is_write) {
        emit(DdrCommandType::kWriteCas, done, cas_at);
        ++stats_.writes;
        // The burst reaches the device at the end of the data
        // transfer. The capture *owns* the burst bytes and the
        // completion callback (move-only Callback — no shared_ptr
        // indirection, no nested std::function copy).
        DdrCommand cmd;
        cmd.type = DdrCommandType::kWriteCas;
        cmd.coord = done.coord;
        cmd.addr = done.addr;
        cmd.issue = cas_at;
        cmd.slot = static_cast<unsigned>(clock_.cyclesAt(cas_at) % 4);
        events_.schedule(data_end,
                         [this, cmd, data = std::move(done.write_data),
                          cb = std::move(done.cb)]() mutable {
            dimm_.onWrite(cmd, data.data());
            if (cb)
                cb(events_.now(), MemStatus::kOk);
        });
    } else {
        emit(DdrCommandType::kReadCas, done, cas_at);
        DdrCommand cmd;
        cmd.type = DdrCommandType::kReadCas;
        cmd.coord = done.coord;
        cmd.addr = done.addr;
        cmd.issue = cas_at;
        cmd.slot = static_cast<unsigned>(clock_.cyclesAt(cas_at) % 4);
        auto *read_data = done.read_data;
        auto retries = done.retries;
        const Tick enq = done.enqueued;
        events_.schedule(data_end,
                         [this, cmd, read_data,
                          cb = std::move(done.cb), retries,
                          enq]() mutable {
            const ReadResponse resp = dimm_.onRead(cmd, read_data);
            if (resp == ReadResponse::kAlertN) {
                // S13: device asserted ALERT_N — requeue the rdCAS.
                retryAlert(cmd, read_data, std::move(cb), retries, enq,
                           /*spurious=*/false);
                return;
            }
            if (fault_plan_ && fault_plan_->armed(fault::Site::kAlertStorm)
                && fault_plan_->shouldInject(
                       fault::Site::kAlertStorm,
                       {static_cast<int>(channel_), -1})) {
                // Injected storm: treat the good read as if the device
                // had asserted ALERT_N (data is discarded and re-read).
                retryAlert(cmd, read_data, std::move(cb), retries, enq,
                           /*spurious=*/true);
                return;
            }
            ++stats_.reads;
            read_latency_.sample(events_.now() - enq);
            if (cb)
                cb(events_.now(), MemStatus::kOk);
        });
        // Count the read at issue for scheduling purposes: stats_.reads
        // is incremented at completion above; nothing else here.
    }
    return true;
}

void
MemoryController::retryAlert(const DdrCommand &cmd, std::uint8_t *read_data,
                             MemCallback cb, unsigned retries,
                             Tick enq, bool spurious)
{
    ++stats_.alert_retries;
    if (spurious) {
        ++stats_.spurious_alerts;
        SD_TRACE_FAULT_EVENT(cmd.addr / kPageSize, events_.now(), cmd.addr);
    }

    const unsigned attempt = retries + 1;
    if (attempt >= config_.alert_max_retries) {
        // Retry budget exhausted: hand the (possibly stale) line back
        // as degraded instead of wedging the channel. The host stack
        // decides how to recover (Sec. IV-D's fallback path).
        ++stats_.degraded_reads;
        SD_TRACE_FAULT_EVENT(cmd.addr / kPageSize, events_.now(), cmd.addr);
        ++stats_.reads;
        read_latency_.sample(events_.now() - enq);
        if (cb)
            cb(events_.now(), MemStatus::kDegraded);
        return;
    }

    Request retry;
    retry.addr = cmd.addr;
    retry.coord = cmd.coord;
    retry.flat_bank = cmd.coord.flatBank(map_.geometry());
    retry.read_data = read_data;
    retry.cb = std::move(cb);
    retry.enqueued = enq; // latency spans all retries
    retry.retries = attempt;

    if (attempt <= config_.alert_fast_retries) {
        read_q_.push_back(std::move(retry));
        kick();
        return;
    }

    // Exponential backoff past the fast window, capped so a long storm
    // stays polling rather than effectively parked.
    ++stats_.alert_backoffs;
    const unsigned excess = attempt - config_.alert_fast_retries - 1;
    const unsigned shift = std::min(excess, 20u);
    const Cycles backoff = std::min(config_.alert_backoff_base << shift,
                                    config_.alert_backoff_cap);
    events_.schedule(events_.now() + backoff * clock_.period(),
                     [this, retry = std::move(retry)]() mutable {
        read_q_.push_back(std::move(retry));
        kick();
    });
}

void
MemoryController::updateWriteDrain()
{
    if (write_q_.size() >= config_.write_high_watermark) {
        // kWriteDrainDelay: suppress the drain transition this pass so
        // the write queue keeps backing up (exercises queue-pressure
        // paths above the high watermark).
        const bool delayed =
            !write_drain_ && fault_plan_ &&
            fault_plan_->armed(fault::Site::kWriteDrainDelay) &&
            fault_plan_->shouldInject(fault::Site::kWriteDrainDelay,
                                      {static_cast<int>(channel_), -1});
        if (!delayed)
            write_drain_ = true;
    }
    if (write_q_.size() <= config_.write_low_watermark)
        write_drain_ = false;
}

void
MemoryController::schedulePass()
{
    ++stats_.sched_passes;
    // Drain-mode hysteresis (write batching).
    updateWriteDrain();

    for (;;) {
        const bool service_writes =
            write_drain_ || (read_q_.empty() && !write_q_.empty());
        std::deque<Request> &queue = service_writes ? write_q_ : read_q_;
        if (queue.empty())
            break;
        const std::size_t index = pickFrFcfs(queue);
        if (!issueRequest(queue, index, service_writes))
            break; // waiting on a bank/bus event already requested
        // Keep issuing while commands fit at the current tick.
        updateWriteDrain();
    }
    // One tracer-lock acquisition for the whole pass's DDR mirror.
    ddr_batch_.flush();
}

} // namespace sd::mem
