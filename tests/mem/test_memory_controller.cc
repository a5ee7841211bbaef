/**
 * @file
 * Memory controller: data round trips, FR-FCFS row hits, write
 * batching (the rd->wr slack SmartDIMM depends on), ALERT_N retry,
 * and command-trace observation.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <utility>
#include <vector>

#include "cache/memory_system.h"
#include "common/random.h"
#include "mem/backing_store.h"
#include "mem/memory_controller.h"
#include "sim/event_queue.h"

namespace {

using namespace sd;
using mem::AddressMap;
using mem::ChannelInterleave;
using mem::ControllerConfig;
using mem::DdrCommand;
using mem::DdrCommandType;
using mem::DramCoord;
using mem::DramGeometry;
using mem::DramTiming;
using mem::MemoryController;

/** Device that delays read-readiness to exercise ALERT_N. */
class AlertingDimm : public mem::DimmDevice
{
  public:
    explicit AlertingDimm(mem::BackingStore &store) : store_(store) {}

    void onCommand(const DdrCommand &) override {}

    mem::ReadResponse
    onRead(const DdrCommand &cmd, std::uint8_t *data) override
    {
        if (alerts_remaining_ > 0) {
            --alerts_remaining_;
            return mem::ReadResponse::kAlertN;
        }
        store_.read(cmd.addr, data, kCacheLineSize);
        return mem::ReadResponse::kOk;
    }

    void
    onWrite(const DdrCommand &cmd, const std::uint8_t *data) override
    {
        store_.write(cmd.addr, data, kCacheLineSize);
    }

    int alerts_remaining_ = 0;

  private:
    mem::BackingStore &store_;
};

/** Records every command with its issue tick. */
class Tracer : public mem::CommandObserver
{
  public:
    void observe(const DdrCommand &cmd) override { trace.push_back(cmd); }
    std::vector<DdrCommand> trace;
};

/** DDR4-3200 command-clock period in ticks (ps). */
constexpr Tick kPeriod = 625;

/** The CAS commands of a trace, in issue order. */
std::vector<DdrCommand>
casCommands(const std::vector<DdrCommand> &trace)
{
    std::vector<DdrCommand> cas;
    for (const auto &cmd : trace) {
        if (cmd.type == DdrCommandType::kReadCas ||
            cmd.type == DdrCommandType::kWriteCas)
            cas.push_back(cmd);
    }
    return cas;
}

/** Tick a CAS's data burst starts / ends on the bus. */
Tick
dataStart(const DdrCommand &cas, const DramTiming &t)
{
    const bool write = cas.type == DdrCommandType::kWriteCas;
    return cas.issue + (write ? t.tCWL : t.tCL) * kPeriod;
}

Tick
dataEnd(const DdrCommand &cas, const DramTiming &t)
{
    return dataStart(cas, t) + t.tBL * kPeriod;
}

/** Line address of (bank group, bank, column) in row 0. */
Addr
lineAt(const AddressMap &map, unsigned bank_group, unsigned bank,
       unsigned col)
{
    DramCoord coord;
    coord.bank_group = bank_group;
    coord.bank = bank;
    coord.col = col;
    return map.compose(coord);
}

struct Rig
{
    EventQueue events;
    mem::BackingStore store;
    DramGeometry geometry;
    AddressMap map;
    AlertingDimm dimm;
    MemoryController mc;
    Tracer tracer;

    Rig()
        : geometry(makeGeometry()), map(geometry, ChannelInterleave::kNone),
          dimm(store), mc(events, map, DramTiming{}, ControllerConfig{},
                          0, dimm)
    {
        mc.setObserver(&tracer);
    }

    static DramGeometry
    makeGeometry()
    {
        DramGeometry g;
        g.channels = 1;
        return g;
    }

    void
    writeSync(Addr addr, const std::uint8_t *data)
    {
        bool done = false;
        mc.enqueueWrite(addr, data,
                        [&](Tick, mem::MemStatus) { done = true; });
        while (!done)
            events.run();
    }

    void
    readSync(Addr addr, std::uint8_t *data)
    {
        bool done = false;
        mc.enqueueRead(addr, data,
                       [&](Tick, mem::MemStatus) { done = true; });
        while (!done)
            events.run();
    }
};

TEST(MemoryController, WriteThenReadRoundTrip)
{
    Rig rig;
    Rng rng(1);
    std::uint8_t line[64];
    rng.fill(line, 64);
    rig.writeSync(0x10000, line);

    std::uint8_t back[64] = {};
    rig.readSync(0x10000, back);
    EXPECT_EQ(0, std::memcmp(line, back, 64));
}

TEST(MemoryController, ManyLinesRoundTrip)
{
    Rig rig;
    Rng rng(2);
    std::vector<std::uint8_t> data(64 * 256);
    rng.fill(data.data(), data.size());

    for (int i = 0; i < 256; ++i)
        rig.writeSync(0x40000 + i * 64ull, data.data() + i * 64);
    std::vector<std::uint8_t> back(data.size());
    for (int i = 0; i < 256; ++i)
        rig.readSync(0x40000 + i * 64ull, back.data() + i * 64);
    EXPECT_EQ(back, data);
}

TEST(MemoryController, SequentialReadsAreRowHits)
{
    Rig rig;
    std::uint8_t buf[64];
    // 32 sequential lines in one row (8 KB row = 128 lines).
    for (int i = 0; i < 32; ++i)
        rig.readSync(i * 64ull, buf);
    const auto &stats = rig.mc.stats();
    EXPECT_EQ(stats.reads, 32u);
    EXPECT_GE(stats.row_hits, 31u); // first may ACT
}

TEST(MemoryController, RowConflictsGeneratePrecharges)
{
    Rig rig;
    std::uint8_t buf[64];
    const auto &g = rig.geometry;
    // Alternate between two rows of the same bank: row stride =
    // row_bytes * totalBanks in this layout.
    const Addr stride = g.row_bytes * g.totalBanks();
    for (int i = 0; i < 8; ++i)
        rig.readSync((i % 2) * stride, buf);
    EXPECT_GT(rig.mc.stats().row_conflicts, 0u);

    int precharges = 0;
    for (const auto &cmd : rig.tracer.trace)
        precharges += cmd.type == DdrCommandType::kPrecharge;
    EXPECT_GT(precharges, 0);
}

TEST(MemoryController, CommandStreamShape)
{
    Rig rig;
    std::uint8_t buf[64];
    rig.readSync(0x2000, buf);
    // First access: ACT then rdCAS, in that order.
    ASSERT_GE(rig.tracer.trace.size(), 2u);
    EXPECT_EQ(rig.tracer.trace[0].type, DdrCommandType::kActivate);
    EXPECT_EQ(rig.tracer.trace[1].type, DdrCommandType::kReadCas);
    EXPECT_LE(rig.tracer.trace[0].issue, rig.tracer.trace[1].issue);
    // Slot ids stay within the 4-slot encoding.
    for (const auto &cmd : rig.tracer.trace)
        EXPECT_LT(cmd.slot, 4u);
}

TEST(MemoryController, ReadLatencyIsRealistic)
{
    Rig rig;
    std::uint8_t buf[64];
    const Tick start = rig.events.now();
    rig.readSync(0x3000, buf);
    const Tick latency = rig.events.now() - start;
    // ACT + tRCD + tCL + burst at DDR4-3200: ~30-60 ns.
    EXPECT_GT(latency, 20'000u);  // > 20 ns
    EXPECT_LT(latency, 120'000u); // < 120 ns
}

TEST(MemoryController, AlertNRetriesUntilReady)
{
    Rig rig;
    std::uint8_t line[64] = {0x5a};
    rig.writeSync(0x5000, line);

    rig.dimm.alerts_remaining_ = 3;
    std::uint8_t back[64] = {};
    rig.readSync(0x5000, back);
    EXPECT_EQ(back[0], 0x5a);
    EXPECT_EQ(rig.mc.stats().alert_retries, 3u);
}

TEST(MemoryController, WritesBatchBeforeDraining)
{
    Rig rig;
    // Fill the write queue below the high watermark while reads are
    // pending: writes should wait (no interleaved drain), creating the
    // rd->wr slack.
    std::uint8_t line[64] = {1};
    int writes_done = 0;
    for (int i = 0; i < 24; ++i)
        rig.mc.enqueueWrite(0x9000 + i * 64ull, line,
                            [&](Tick, mem::MemStatus) { ++writes_done; });
    std::uint8_t buf[64];
    bool read_done = false;
    rig.mc.enqueueRead(0x100000, buf,
                       [&](Tick, mem::MemStatus) { read_done = true; });
    rig.events.run();
    EXPECT_TRUE(read_done);
    EXPECT_EQ(writes_done, 24);
    EXPECT_GT(rig.mc.stats().turnarounds, 0u);
}

TEST(MemoryController, BandwidthAccounting)
{
    Rig rig;
    std::uint8_t line[64] = {};
    for (int i = 0; i < 10; ++i)
        rig.writeSync(i * 64ull, line);
    std::uint8_t buf[64];
    for (int i = 0; i < 6; ++i)
        rig.readSync(i * 64ull, buf);
    EXPECT_EQ(rig.mc.stats().bytesMoved(), (10u + 6u) * 64u);
    EXPECT_GT(rig.mc.busBusyCycles(), 0u);
}

TEST(MemoryController, ReadsToOneOpenRowIssueTccdLApart)
{
    Rig rig;
    const DramTiming t;
    std::uint8_t buf[64];
    rig.readSync(0, buf); // opens row 0 of bank 0
    rig.tracer.trace.clear();

    for (int i = 1; i <= 32; ++i)
        rig.mc.enqueueRead(i * 64ull, buf, nullptr);
    rig.events.run();

    const auto cas = casCommands(rig.tracer.trace);
    ASSERT_EQ(cas.size(), 32u);
    for (std::size_t i = 1; i < cas.size(); ++i)
        EXPECT_EQ(cas[i].issue - cas[i - 1].issue, t.tCCD_L * kPeriod)
            << "rdCAS " << i;
}

TEST(MemoryController, ReadsAlternatingBankGroupsFillTheDataBus)
{
    Rig rig;
    const DramTiming t;
    std::uint8_t buf[64];
    const Addr group0 = lineAt(rig.map, 0, 0, 0);
    const Addr group1 = lineAt(rig.map, 1, 0, 0);
    rig.readSync(group0, buf); // open both rows first
    rig.readSync(group1, buf);
    rig.tracer.trace.clear();
    const std::uint64_t busy_before = rig.mc.busBusyCycles();

    constexpr int kReads = 64;
    for (int i = 0; i < kReads; ++i) {
        const Addr base = i % 2 ? group1 : group0;
        rig.mc.enqueueRead(base + (i / 2 + 1) * 64ull, buf, nullptr);
    }
    rig.events.run();

    const auto cas = casCommands(rig.tracer.trace);
    ASSERT_EQ(cas.size(), static_cast<std::size_t>(kReads));
    for (std::size_t i = 1; i < cas.size(); ++i)
        EXPECT_EQ(cas[i].issue - cas[i - 1].issue,
                  std::max(t.tBL, t.tCCD_S) * kPeriod)
            << "rdCAS " << i;

    // From the first burst's start to the last burst's end, the data
    // bus carries data at least 90% of the time.
    const std::uint64_t span_cycles =
        (dataEnd(cas.back(), t) - dataStart(cas.front(), t)) / kPeriod;
    const std::uint64_t busy = rig.mc.busBusyCycles() - busy_before;
    EXPECT_GE(busy * 10, span_cycles * 9)
        << busy << " busy of " << span_cycles << " cycles";
}

TEST(MemoryController, MixedStreamKeepsSpacingRulesAndBankOrder)
{
    Rig rig;
    const DramTiming t;
    Rng rng(13);

    // Six banks over four bank groups, one row each, so FR-FCFS's
    // row-hit-first pick never has cause to reorder within a bank.
    const std::pair<unsigned, unsigned> banks[] = {
        {0, 0}, {0, 1}, {1, 0}, {1, 2}, {2, 3}, {3, 1}};
    std::uint8_t sink[64];
    std::uint8_t line[64] = {0x3c};
    unsigned next_col[6][2] = {};

    // Requests arrive in bursts and gaps; each (bank, direction) gets
    // rising columns, so a column records its enqueue order.
    constexpr int kRequests = 400;
    Tick at = 0;
    for (int i = 0; i < kRequests; ++i) {
        at += rng.below(8) * kPeriod;
        const std::size_t b = rng.below(6);
        const bool write = rng.chance(0.5);
        const Addr addr = lineAt(rig.map, banks[b].first, banks[b].second,
                                 next_col[b][write]++);
        rig.events.schedule(at, [&rig, &sink, &line, addr, write] {
            if (write)
                rig.mc.enqueueWrite(addr, line);
            else
                rig.mc.enqueueRead(addr, sink, nullptr);
        });
    }
    rig.events.run();

    const auto cas = casCommands(rig.tracer.trace);
    ASSERT_EQ(cas.size(), static_cast<std::size_t>(kRequests));

    // No two data bursts overlap on the bus.
    std::vector<std::pair<Tick, Tick>> bursts;
    for (const auto &c : cas)
        bursts.emplace_back(dataStart(c, t), dataEnd(c, t));
    std::sort(bursts.begin(), bursts.end());
    for (std::size_t i = 1; i < bursts.size(); ++i)
        EXPECT_GE(bursts[i].first, bursts[i - 1].second) << "burst " << i;

    const auto &g = rig.geometry;
    std::map<unsigned, Tick> group_last_cas;
    std::map<std::pair<unsigned, bool>, int> bank_last_col;
    int read_to_write = 0;
    int write_to_read = 0;
    int back_to_back = 0;
    for (std::size_t i = 0; i < cas.size(); ++i) {
        const auto &cur = cas[i];
        const bool cur_write = cur.type == DdrCommandType::kWriteCas;
        const unsigned bank = cur.coord.flatBank(g);

        // CASes to one bank keep their enqueue order, per direction.
        const auto key = std::make_pair(bank, cur_write);
        const auto last = bank_last_col.find(key);
        if (last != bank_last_col.end()) {
            EXPECT_GT(static_cast<int>(cur.coord.col), last->second)
                << "CAS " << i << " overtook an older request";
        }
        bank_last_col[key] = static_cast<int>(cur.coord.col);

        const unsigned group = bank / g.banks_per_group;
        const auto group_last = group_last_cas.find(group);
        if (group_last != group_last_cas.end()) {
            EXPECT_GE(cur.issue - group_last->second, t.tCCD_L * kPeriod)
                << "CAS " << i;
        }
        group_last_cas[group] = cur.issue;

        if (i == 0)
            continue;
        const auto &prev = cas[i - 1];
        const bool prev_write = prev.type == DdrCommandType::kWriteCas;
        EXPECT_GE(cur.issue - prev.issue,
                  std::max(t.tBL, t.tCCD_S) * kPeriod)
            << "CAS " << i;
        if (!prev_write && cur_write) {
            ++read_to_write;
            EXPECT_GE(cur.issue - prev.issue, t.tRTW * kPeriod)
                << "CAS " << i;
        } else if (prev_write && !cur_write) {
            ++write_to_read;
            EXPECT_GE(cur.issue, dataEnd(prev, t) + t.tWTR * kPeriod)
                << "CAS " << i;
        } else if (dataStart(cur, t) == dataEnd(prev, t)) {
            ++back_to_back;
        }
    }
    EXPECT_GT(read_to_write, 0);
    EXPECT_GT(write_to_read, 0);
    EXPECT_GT(back_to_back, 0)
        << "same-direction CASes must pipeline their bursts";
}

} // namespace
