/**
 * @file
 * Memory controller: data round trips, ready-first FR-FCFS row hits,
 * write batching (the rd->wr slack SmartDIMM depends on) and its age
 * bound, ALERT_N retry, and command-trace observation.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
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

/** A bank of one channel: DIMM slot, rank, bank group, bank. */
struct BankId
{
    unsigned dimm = 0;
    unsigned rank = 0;
    unsigned bank_group = 0;
    unsigned bank = 0;
};

/** Line address of (bank group, bank, column) in @p row. */
Addr
lineAt(const AddressMap &map, unsigned bank_group, unsigned bank,
       unsigned col, unsigned row = 0)
{
    DramCoord coord;
    coord.bank_group = bank_group;
    coord.bank = bank;
    coord.row = row;
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

    explicit Rig(const DramGeometry &g = makeGeometry())
        : geometry(g), map(geometry, ChannelInterleave::kNone),
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

/**
 * Enqueue @p count reads to bank group 0, bank 0, column by column
 * through its rows: a stream that keeps the read queue non-empty for
 * about 5 ns per read (tCCD_L) plus a PRE/ACT per row.
 */
void
enqueueReadStream(Rig &rig, unsigned count, std::uint8_t *sink)
{
    const auto cols = static_cast<unsigned>(rig.geometry.linesPerRow());
    for (unsigned i = 0; i < count; ++i)
        rig.mc.enqueueRead(lineAt(rig.map, 0, 0, i % cols, i / cols), sink,
                           nullptr);
}

TEST(MemoryController, WritesBatchBeforeDraining)
{
    Rig rig;
    // Fill the write queue below the high watermark while reads are
    // pending: writes younger than kWriteMaxWait wait for the reads
    // (no interleaved drain), creating the rd->wr slack.
    std::uint8_t line[64] = {1};
    int writes_done = 0;
    for (int i = 0; i < 24; ++i)
        rig.mc.enqueueWrite(0x9000 + i * 64ull, line,
                            [&](Tick, mem::MemStatus) { ++writes_done; });
    std::uint8_t buf[64];
    int reads_done = 0;
    constexpr int kReads = 64; // about 0.35 µs of reads
    for (int i = 0; i < kReads; ++i)
        rig.mc.enqueueRead(0x100000 + i * 64ull, buf,
                           [&](Tick, mem::MemStatus) { ++reads_done; });
    rig.events.run();
    EXPECT_EQ(reads_done, kReads);
    EXPECT_EQ(writes_done, 24);
    EXPECT_EQ(rig.mc.stats().turnarounds, 1u);

    // Every rdCAS precedes every wrCAS, and no write had aged out.
    const auto cas = casCommands(rig.tracer.trace);
    ASSERT_EQ(cas.size(), static_cast<std::size_t>(kReads + 24));
    for (std::size_t i = 0; i < cas.size(); ++i)
        EXPECT_EQ(cas[i].type == DdrCommandType::kWriteCas, i >= kReads)
            << "CAS " << i;
    EXPECT_LT(cas[kReads].issue, MemoryController::kWriteMaxWait * kPeriod);
}

TEST(MemoryController, WriteWaitsAtMostTheLimitUnderAReadStream)
{
    Rig rig;
    const DramTiming t;
    std::uint8_t buf[64];
    const Addr write_addr = lineAt(rig.map, 1, 0, 0);
    rig.readSync(write_addr, buf); // open the write's row
    rig.tracer.trace.clear();

    // About 3.5 µs of reads: the read queue never empties.
    enqueueReadStream(rig, 600, buf);
    const Tick enqueued = rig.events.now();
    std::uint8_t line[64] = {7};
    rig.mc.enqueueWrite(write_addr, line);
    rig.events.run();

    const auto cas = casCommands(rig.tracer.trace);
    const auto write =
        std::find_if(cas.begin(), cas.end(), [](const DdrCommand &c) {
            return c.type == DdrCommandType::kWriteCas;
        });
    ASSERT_NE(write, cas.end());
    EXPECT_GT(cas.end() - write, 100) << "the write waited for the stream";
    const Tick waited = write->issue - enqueued;
    EXPECT_GE(waited, MemoryController::kWriteMaxWait * kPeriod);
    // The deadline rounds up to a clock edge; the last rdCAS then
    // holds the write off for at most tRTW.
    EXPECT_LE(waited,
              (MemoryController::kWriteMaxWait + 1 + t.tRTW) * kPeriod);
}

TEST(MemoryController, WriteArrivingDuringAnAgeDrainWaits)
{
    Rig rig;
    std::uint8_t buf[64];
    const Addr late_addr = lineAt(rig.map, 2, 0, 0);
    rig.readSync(lineAt(rig.map, 1, 0, 0), buf); // open both write rows
    rig.readSync(late_addr, buf);
    rig.tracer.trace.clear();

    // About 7 µs of reads, plus a batch of writes to one bank, below
    // the high watermark: once it ages out, its drain takes at least
    // kBatch x tCCD_L.
    enqueueReadStream(rig, 1200, buf);
    const Tick start = rig.events.now();
    std::uint8_t line[64] = {9};
    constexpr unsigned kBatch = 40;
    for (unsigned col = 1; col <= kBatch; ++col)
        rig.mc.enqueueWrite(lineAt(rig.map, 1, 0, col), line);
    // A row hit in another bank group arrives mid-drain. Ready-first
    // alone would slot it between the batch's tCCD_L-spaced writes.
    const Tick late_at =
        start + (MemoryController::kWriteMaxWait + 80) * kPeriod;
    rig.events.schedule(late_at,
                        [&] { rig.mc.enqueueWrite(late_addr, line); });
    rig.events.run();

    std::vector<Tick> batch;
    Tick late = 0;
    for (const auto &cmd : casCommands(rig.tracer.trace)) {
        if (cmd.type != DdrCommandType::kWriteCas)
            continue;
        if (cmd.addr == late_addr)
            late = cmd.issue;
        else
            batch.push_back(cmd.issue);
    }
    ASSERT_EQ(batch.size(), kBatch);
    ASSERT_LT(batch.front(), late_at) << "the drain had begun";
    ASSERT_GT(batch.back(), late_at) << "the drain was still running";
    // The late write waits out its own limit, behind reads again.
    EXPECT_GE(late - late_at, MemoryController::kWriteMaxWait * kPeriod);
    int reads_between = 0;
    for (const auto &cmd : casCommands(rig.tracer.trace))
        reads_between += cmd.type == DdrCommandType::kReadCas &&
                         cmd.issue > batch.back() && cmd.issue < late;
    EXPECT_GT(reads_between, 0);
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

/**
 * Seeded 400-request read/write stream over @p banks, one row each,
 * so the pick never has cause to reorder within a bank. Checks every
 * CAS spacing rule, per-bank per-direction enqueue order, and that
 * same-direction bursts pipeline back to back.
 */
void
checkMixedStream(Rig &rig, const std::vector<BankId> &banks)
{
    const DramTiming t;
    Rng rng(13);
    std::uint8_t sink[64];
    std::uint8_t line[64] = {0x3c};
    std::vector<std::array<unsigned, 2>> next_col(banks.size());

    // Requests arrive in bursts and gaps; each (bank, direction) gets
    // rising columns, so a column records its enqueue order.
    constexpr int kRequests = 400;
    Tick at = 0;
    for (int i = 0; i < kRequests; ++i) {
        at += rng.below(8) * kPeriod;
        const std::size_t b = rng.below(banks.size());
        const bool write = rng.chance(0.5);
        DramCoord coord;
        coord.dimm = banks[b].dimm;
        coord.rank = banks[b].rank;
        coord.bank_group = banks[b].bank_group;
        coord.bank = banks[b].bank;
        coord.col = next_col[b][write]++;
        const Addr addr = rig.map.compose(coord);
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

TEST(MemoryController, MixedStreamKeepsSpacingRulesAndBankOrder)
{
    Rig rig;
    // Six banks over four bank groups.
    checkMixedStream(rig, {{0, 0, 0, 0}, {0, 0, 0, 1}, {0, 0, 1, 0},
                           {0, 0, 1, 2}, {0, 0, 2, 3}, {0, 0, 3, 1}});
}

TEST(MemoryController, MixedStreamHoldsPastSixtyFourBanks)
{
    // 4 DIMMs x 2 ranks x 16 banks = 128 banks per channel: the
    // bank index spans two 64-bit words.
    DramGeometry g = Rig::makeGeometry();
    g.dimms_per_channel = 4;
    g.ranks = 2;
    ASSERT_GT(g.totalBanks(), 64u);
    Rig rig(g);
    // Flat banks 1, 6, 63, 64, 100 and 127: both ends of both words.
    checkMixedStream(rig, {{0, 0, 0, 1}, {0, 0, 1, 2}, {1, 1, 3, 3},
                           {2, 0, 0, 0}, {3, 0, 1, 0}, {3, 1, 3, 3}});
}

TEST(MemoryController, ReadyRowHitIsNotHeldBehindABlockedOne)
{
    Rig rig;
    const DramTiming t;
    std::uint8_t buf[64];
    rig.readSync(lineAt(rig.map, 0, 0, 0), buf); // open both rows
    rig.readSync(lineAt(rig.map, 1, 0, 0), buf);
    rig.tracer.trace.clear();

    // A2 waits tCCD_L behind A1 in bank group 0; B1 in group 1 needs
    // only tCCD_S, so it goes between them.
    const Addr a1 = lineAt(rig.map, 0, 0, 1);
    const Addr a2 = lineAt(rig.map, 0, 0, 2);
    const Addr b1 = lineAt(rig.map, 1, 0, 1);
    for (const Addr addr : {a1, a2, b1})
        rig.mc.enqueueRead(addr, buf, nullptr);
    rig.events.run();

    const auto cas = casCommands(rig.tracer.trace);
    ASSERT_EQ(cas.size(), 3u);
    EXPECT_EQ(cas[0].addr, a1);
    EXPECT_EQ(cas[1].addr, b1);
    EXPECT_EQ(cas[2].addr, a2);
    EXPECT_EQ(cas[1].issue - cas[0].issue, t.tCCD_S * kPeriod);
    EXPECT_EQ(cas[2].issue - cas[1].issue, (t.tCCD_L - t.tCCD_S) * kPeriod);
}

TEST(MemoryController, EqualIssueTicksGoToTheOlderRequest)
{
    Rig rig;
    const DramTiming t;
    std::uint8_t buf[64];
    for (unsigned group = 0; group < 3; ++group)
        rig.readSync(lineAt(rig.map, group, 0, 0), buf); // open rows
    rig.tracer.trace.clear();

    // After C issues, B (group 1) and A (group 0) share one CAS tick,
    // C + tCCD_S. B is older, so it goes first although A's bank
    // comes first in bank order.
    const Addr c = lineAt(rig.map, 2, 0, 1);
    const Addr b = lineAt(rig.map, 1, 0, 1);
    const Addr a = lineAt(rig.map, 0, 0, 1);
    for (const Addr addr : {c, b, a})
        rig.mc.enqueueRead(addr, buf, nullptr);
    rig.events.run();

    const auto cas = casCommands(rig.tracer.trace);
    ASSERT_EQ(cas.size(), 3u);
    EXPECT_EQ(cas[0].addr, c);
    EXPECT_EQ(cas[1].addr, b);
    EXPECT_EQ(cas[2].addr, a);
    EXPECT_EQ(cas[1].issue - cas[0].issue, t.tCCD_S * kPeriod);
    EXPECT_EQ(cas[2].issue - cas[1].issue, t.tCCD_S * kPeriod);
}


} // namespace
