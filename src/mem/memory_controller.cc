#include "mem/memory_controller.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "common/log.h"

namespace sd::mem {

MemoryController::MemoryController(EventQueue &events, const AddressMap &map,
                                   const DramTiming &timing,
                                   const ControllerConfig &config,
                                   unsigned channel, DimmDevice &dimm)
    : events_(events), map_(map), timing_(timing), config_(config),
      channel_(channel), dimm_(dimm),
      reads_(map.geometry().totalBanks()),
      writes_(map.geometry().totalBanks()),
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
    const std::uint32_t index = allocRequest(line_addr, std::move(cb));
    slab_[index].read_data = data;
    push(reads_, index);
    kick();
}

void
MemoryController::enqueueWrite(Addr line_addr, const std::uint8_t *data,
                               MemCallback cb)
{
    SD_ASSERT(isLineAligned(line_addr), "unaligned write 0x%llx",
              static_cast<unsigned long long>(line_addr));
    const std::uint32_t index = allocRequest(line_addr, std::move(cb));
    std::memcpy(slab_[index].write_data.data(), data, kCacheLineSize);
    push(writes_, index);
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

std::uint32_t
MemoryController::allocRequest(Addr line_addr, MemCallback cb)
{
    std::uint32_t index;
    if (free_.empty()) {
        index = static_cast<std::uint32_t>(slab_.size());
        slab_.emplace_back();
    } else {
        index = free_.back();
        free_.pop_back();
    }
    Request &req = slab_[index];
    req.addr = line_addr;
    req.coord = map_.decompose(line_addr);
    req.flat_bank = req.coord.flatBank(map_.geometry());
    req.cb = std::move(cb);
    req.enqueued = events_.now();
    req.retries = 0;
    return index;
}

void
MemoryController::push(BankQueues &queues, std::uint32_t index)
{
    Request &req = slab_[index];
    const std::uint32_t bank = req.flat_bank;
    req.next = kNil;
    req.seq = next_seq_++;
    req.needed_act = false; // a requeued read counts its own ACT
    if (queues.tail[bank] == kNil) {
        queues.head[bank] = index;
        queues.nonempty[bank / 64] |= std::uint64_t{1} << (bank % 64);
    } else {
        slab_[queues.tail[bank]].next = index;
    }
    queues.tail[bank] = index;
    ++queues.size;
}

MemoryController::Pick
MemoryController::pick(const BankQueues &queues, bool is_write,
                       std::uint64_t below) const
{
    // One candidate per bank with its row open: the bank's oldest
    // request to that row. All requests in a bank share one CAS tick,
    // and a FIFO is in age order, so a bank whose tick and head cannot
    // beat the best so far is skipped without walking its FIFO, and a
    // walk stops at the first request too young to serve.
    const Tick now = events_.now();
    Pick best;
    std::uint64_t best_seq = 0;
    const auto beats = [&](Tick at, std::uint64_t seq) {
        return !best.row_hit || at < best.cas_at ||
               (at == best.cas_at && seq < best_seq);
    };
    std::uint32_t oldest = kNil;
    std::uint64_t oldest_seq = ~std::uint64_t{0};
    for (std::size_t w = 0; w < queues.nonempty.size(); ++w) {
        for (std::uint64_t bits = queues.nonempty[w]; bits != 0;
             bits &= bits - 1) {
            const std::size_t bank =
                w * 64 + static_cast<unsigned>(std::countr_zero(bits));
            const std::uint32_t head = queues.head[bank];
            const std::uint64_t head_seq = slab_[head].seq;
            if (head_seq >= below)
                continue;
            if (head_seq < oldest_seq) {
                oldest = head;
                oldest_seq = head_seq;
            }
            if (!banks_.open(bank))
                continue;
            const Tick at = std::max(earliestCas(slab_[head], is_write), now);
            if (!beats(at, head_seq))
                continue;
            const std::uint64_t row = banks_.row(bank);
            std::uint32_t prev = kNil;
            std::uint32_t i = head;
            while (i != kNil && slab_[i].seq < below &&
                   slab_[i].coord.row != row) {
                prev = i;
                i = slab_[i].next;
            }
            if (i == kNil || slab_[i].seq >= below ||
                !beats(at, slab_[i].seq))
                continue; // no servable request to the open row, or older best
            best = Pick{i, prev, true, at};
            best_seq = slab_[i].seq;
        }
    }
    if (!best.row_hit)
        best.index = oldest; // no row hit queued: oldest, ACT first
    return best;
}

DdrCommand
MemoryController::command(DdrCommandType type, const Request &req,
                          Tick at) const
{
    DdrCommand cmd;
    cmd.type = type;
    cmd.coord = req.coord;
    cmd.addr = req.addr;
    cmd.issue = at;
    // Four command slots per buffer-device cycle (Sec. IV-C).
    cmd.slot = static_cast<unsigned>(clock_.cyclesAt(at) % 4);
    return cmd;
}

void
MemoryController::emit(DdrCommandType type, const Request &req, Tick at)
{
    const DdrCommand cmd = command(type, req, at);
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

Tick
MemoryController::issueRequest(BankQueues &queues, const Pick &choice,
                               bool is_write)
{
    Request &req = slab_[choice.index];
    const std::uint32_t bank = req.flat_bank;
    const Tick now = events_.now();
    const Tick period = clock_.period();

    // Open the right row first if needed.
    if (!choice.row_hit) {
        Tick when = std::max(now, banks_.readyAt(bank));
        if (banks_.open(bank)) {
            // PRE then ACT. Respect tRAS since the last ACT.
            when = std::max(when,
                            banks_.actAt(bank) + timing_.tRAS * period);
            emit(DdrCommandType::kPrecharge, req, when);
            when += timing_.tRP * period;
            ++stats_.row_conflicts;
        } else {
            ++stats_.row_misses;
        }
        emit(DdrCommandType::kActivate, req, when);
        req.needed_act = true;
        banks_.activate(bank, req.coord.row, /*act_at=*/when,
                        /*ready_at=*/when + timing_.tRCD * period);
        // CAS not issued this pass: retry when the bank is ready.
        return banks_.readyAt(bank);
    }

    const Tick cas_at = clock_.nextEdge(choice.cas_at);
    if (cas_at > now) {
        // Not issuable yet; try again when the spacing rules allow.
        return cas_at;
    }
    if (cas_issued_ && last_was_write_ != is_write)
        ++stats_.turnarounds;

    // Issue the CAS now. Row hits are CASes that never needed an ACT.
    if (!req.needed_act)
        ++stats_.row_hits;
    // Unlink from the bank FIFO. The slot stays allocated, holding the
    // burst's data and callback, until the burst completes.
    if (choice.prev == kNil)
        queues.head[bank] = req.next;
    else
        slab_[choice.prev].next = req.next;
    if (queues.tail[bank] == choice.index)
        queues.tail[bank] = choice.prev;
    if (queues.head[bank] == kNil)
        queues.nonempty[bank / 64] &= ~(std::uint64_t{1} << (bank % 64));
    --queues.size;

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
        emit(DdrCommandType::kWriteCas, req, cas_at);
        ++stats_.writes;
    } else {
        emit(DdrCommandType::kReadCas, req, cas_at);
    }
    // The burst reaches the device at the end of the data transfer.
    events_.schedule(data_end,
                     [this, index = choice.index, cas_at, is_write] {
        finishBurst(index, cas_at, is_write);
    });
    return 0;
}

void
MemoryController::finishBurst(std::uint32_t index, Tick cas_at,
                              bool is_write)
{
    const DdrCommand cmd =
        command(is_write ? DdrCommandType::kWriteCas
                         : DdrCommandType::kReadCas,
                slab_[index], cas_at);
    if (is_write) {
        dimm_.onWrite(cmd, slab_[index].write_data.data());
        complete(index, MemStatus::kOk);
        return;
    }
    if (dimm_.onRead(cmd, slab_[index].read_data) == ReadResponse::kAlertN) {
        // S13: device asserted ALERT_N — requeue the rdCAS.
        retryAlert(index, /*spurious=*/false);
        return;
    }
    if (fault_plan_ && fault_plan_->armed(fault::Site::kAlertStorm) &&
        fault_plan_->shouldInject(fault::Site::kAlertStorm,
                                  {static_cast<int>(channel_), -1})) {
        // Injected storm: treat the good read as if the device had
        // asserted ALERT_N (data is discarded and re-read).
        retryAlert(index, /*spurious=*/true);
        return;
    }
    ++stats_.reads;
    read_latency_.sample(events_.now() - slab_[index].enqueued);
    complete(index, MemStatus::kOk);
}

void
MemoryController::complete(std::uint32_t index, MemStatus status)
{
    // Free the slot before the callback runs: it may enqueue again.
    MemCallback cb = std::move(slab_[index].cb);
    free_.push_back(index);
    if (cb)
        cb(events_.now(), status);
}

void
MemoryController::retryAlert(std::uint32_t index, bool spurious)
{
    const Addr addr = slab_[index].addr;
    ++stats_.alert_retries;
    if (spurious) {
        ++stats_.spurious_alerts;
        SD_TRACE_FAULT_EVENT(addr / kPageSize, events_.now(), addr);
    }

    const unsigned attempt = slab_[index].retries + 1;
    if (attempt >= config_.alert_max_retries) {
        // Retry budget exhausted: hand the (possibly stale) line back
        // as degraded instead of wedging the channel. The host stack
        // decides how to recover (Sec. IV-D's fallback path).
        ++stats_.degraded_reads;
        SD_TRACE_FAULT_EVENT(addr / kPageSize, events_.now(), addr);
        ++stats_.reads;
        // Latency spans all retries.
        read_latency_.sample(events_.now() - slab_[index].enqueued);
        complete(index, MemStatus::kDegraded);
        return;
    }
    slab_[index].retries = attempt;

    if (attempt <= config_.alert_fast_retries) {
        push(reads_, index);
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
                     [this, index] {
        push(reads_, index);
        kick();
    });
}

MemoryController::WriteService
MemoryController::updateWriteDrain()
{
    if (writes_.size >= config_.write_high_watermark) {
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
    if (writes_.size <= config_.write_low_watermark)
        write_drain_ = false;

    if (writes_.size == 0)
        return {};
    if (write_drain_ || reads_.size == 0)
        return {kNoBound, 0};
    // Age bound: once the oldest write has waited kWriteMaxWait, serve
    // every write queued at this moment, then go back to reads. Writes
    // that arrive meanwhile wait for their own deadline or the
    // watermark.
    const Request &oldest = oldestWrite();
    const Tick deadline = clock_.nextEdge(
        oldest.enqueued + kWriteMaxWait * clock_.period());
    if (oldest.seq >= age_drain_below_ && events_.now() >= deadline)
        age_drain_below_ = next_seq_;
    if (oldest.seq < age_drain_below_)
        return {age_drain_below_, 0};
    return {0, deadline};
}

const MemoryController::Request &
MemoryController::oldestWrite() const
{
    const Request *oldest = nullptr;
    for (std::size_t w = 0; w < writes_.nonempty.size(); ++w) {
        for (std::uint64_t bits = writes_.nonempty[w]; bits != 0;
             bits &= bits - 1) {
            const std::size_t bank =
                w * 64 + static_cast<unsigned>(std::countr_zero(bits));
            const Request &head = slab_[writes_.head[bank]];
            if (!oldest || head.seq < oldest->seq)
                oldest = &head;
        }
    }
    return *oldest;
}

void
MemoryController::schedulePass()
{
    ++stats_.sched_passes;
    // Keep issuing while commands fit at the current tick.
    for (;;) {
        const WriteService service = updateWriteDrain();
        const bool service_writes = service.bound != 0;
        BankQueues &queues = service_writes ? writes_ : reads_;
        if (queues.size == 0)
            break;
        Tick retry = issueRequest(
            queues,
            pick(queues, service_writes,
                 service_writes ? service.bound : kNoBound),
            service_writes);
        if (retry != 0) {
            // Waiting on a bank or bus event. While reads hold the bus,
            // wake no later than the oldest write's deadline: it only
            // moves later, so a coalesced wakeup never misses it.
            if (service.deadline != 0)
                retry = std::min(retry, service.deadline);
            requestPass(retry);
            break;
        }
    }
    // One tracer-lock acquisition for the whole pass's DDR mirror.
    ddr_batch_.flush();
}

} // namespace sd::mem
