/**
 * @file
 * Recovery paths above the controller: rejected registrations (the
 * pages degrade to plain DRAM and the host learns via kFaultStatus),
 * cuckoo-table insert faults, freePages lies driving Force-Recycle and
 * its bail-out bound, write-drain delays, and scripted network faults.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <vector>

#include "cache/memory_system.h"
#include "common/random.h"
#include "compcpy/compcpy.h"
#include "compcpy/driver.h"
#include "compress/deflate.h"
#include "crypto/aes_gcm.h"
#include "fault/fault.h"
#include "net/loss_model.h"
#include "net/tcp_stream.h"
#include "sim/event_queue.h"
#include "smartdimm/buffer_device.h"
#include "smartdimm/cuckoo_table.h"

namespace {

using namespace sd;

/** One-channel SmartDIMM rig with an attachable fault plan. */
struct System
{
    EventQueue events;
    mem::BackingStore store;
    mem::DramGeometry geometry;
    mem::AddressMap map;
    smartdimm::BufferDevice dimm;
    std::unique_ptr<cache::MemorySystem> memory;
    compcpy::Driver driver;
    compcpy::CompCpyEngine::SharedState shared;
    compcpy::CompCpyEngine engine;

    System()
        : geometry(makeGeometry()),
          map(geometry, mem::ChannelInterleave::kNone),
          dimm(events, map, store),
          driver(/*base=*/1ULL << 20, /*bytes=*/512ULL << 20),
          engine(makeMemory(), driver, shared)
    {
    }

    static mem::DramGeometry
    makeGeometry()
    {
        mem::DramGeometry g;
        g.channels = 1;
        return g;
    }

    cache::MemorySystem &
    makeMemory()
    {
        cache::CacheConfig cc;
        cc.size_bytes = 4ull << 20;
        memory = std::make_unique<cache::MemorySystem>(
            events, geometry, mem::ChannelInterleave::kNone, cc,
            std::vector<mem::DimmDevice *>{&dimm});
        return *memory;
    }

    void
    attach(fault::FaultPlan *plan)
    {
        dimm.setFaultPlan(plan);
        memory->setFaultPlan(plan);
        engine.setFaultPlan(plan);
    }
};

/** Run one 4 KB TLS CompCpy and return what readResult sees. */
std::vector<std::uint8_t>
runTls(System &sys, const std::vector<std::uint8_t> &plain,
       const std::uint8_t key[16], const crypto::GcmIv &iv,
       std::uint64_t message_id)
{
    const std::size_t len = plain.size();
    const Addr sbuf = sys.driver.alloc(len);
    const Addr dbuf = sys.driver.alloc(len + kPageSize);
    sys.memory->writeSync(sbuf, plain.data(), len);

    compcpy::CompCpyParams params;
    params.sbuf = sbuf;
    params.dbuf = dbuf;
    params.size = len;
    params.ulp = smartdimm::UlpKind::kTlsEncrypt;
    params.message_id = message_id;
    std::memcpy(params.key, key, 16);
    params.iv = iv;

    sys.engine.run(params);
    sys.engine.useSync(dbuf, divCeil(len + 16, kPageSize) * kPageSize);
    return sys.engine.readResult(dbuf, len + 16);
}

std::vector<std::uint8_t>
softwareCiphertext(const std::vector<std::uint8_t> &plain,
                   const std::uint8_t key[16], const crypto::GcmIv &iv)
{
    crypto::GcmContext ctx(key, crypto::Aes::KeySize::k128);
    std::vector<std::uint8_t> expect(plain.size() + 16);
    const crypto::GcmTag tag =
        ctx.encrypt(iv, plain.data(), plain.size(), expect.data());
    std::memcpy(expect.data() + plain.size(), tag.data(), 16);
    return expect;
}

TEST(RecoveryPaths, ScratchpadExhaustRejectsAndDegradesGracefully)
{
    System sys;
    fault::FaultPlan plan(1);
    plan.add(fault::Site::kScratchpadExhaust, 0, /*count=*/1);
    sys.attach(&plan);

    Rng rng(11);
    std::vector<std::uint8_t> plain(4096);
    rng.fill(plain.data(), plain.size());
    std::uint8_t key[16];
    rng.fill(key, 16);
    crypto::GcmIv iv{};
    rng.fill(iv.data(), iv.size());

    const auto result = runTls(sys, plain, key, iv, 1);

    // The data page's registration was rejected, so its lines behaved
    // as plain DRAM: the copy went through unencrypted and the call is
    // flagged degraded instead of aborting.
    EXPECT_EQ(sys.dimm.stats().rejected_registrations, 1u);
    EXPECT_EQ(sys.engine.stats().rejected_registrations, 1u);
    EXPECT_EQ(sys.engine.stats().degraded_calls, 1u);
    EXPECT_TRUE(sys.engine.lastCallDegraded());
    ASSERT_EQ(result.size(), plain.size() + 16);
    EXPECT_EQ(0, std::memcmp(result.data(), plain.data(), plain.size()))
        << "rejected pages must behave as plain DRAM";
    // No scratchpad page leaked by the rollback.
    EXPECT_LE(sys.dimm.scratchpad().livePages(), 1u);
}

TEST(RecoveryPaths, ConfigMemoryExhaustRejectsRegistration)
{
    System sys;
    fault::FaultPlan plan(2);
    plan.add(fault::Site::kConfigMemExhaust, 0, /*count=*/1);
    sys.attach(&plan);

    Rng rng(12);
    std::vector<std::uint8_t> plain(4096);
    rng.fill(plain.data(), plain.size());
    std::uint8_t key[16];
    rng.fill(key, 16);
    crypto::GcmIv iv{};
    rng.fill(iv.data(), iv.size());

    runTls(sys, plain, key, iv, 2);

    EXPECT_EQ(sys.dimm.stats().rejected_registrations, 1u);
    EXPECT_TRUE(sys.engine.lastCallDegraded());
    EXPECT_EQ(plan.injected(fault::Site::kConfigMemExhaust), 1u);
}

TEST(RecoveryPaths, CuckooInsertFailureSurfacesAsRejection)
{
    System sys;
    fault::FaultPlan plan(3);
    plan.add(fault::Site::kCuckooInsertFail, 0, /*count=*/1);
    sys.attach(&plan);

    Rng rng(13);
    std::vector<std::uint8_t> plain(4096);
    rng.fill(plain.data(), plain.size());
    std::uint8_t key[16];
    rng.fill(key, 16);
    crypto::GcmIv iv{};
    rng.fill(iv.data(), iv.size());

    runTls(sys, plain, key, iv, 3);

    EXPECT_EQ(sys.dimm.translationTable().stats().failures, 1u);
    EXPECT_EQ(sys.dimm.stats().rejected_registrations, 1u);
    EXPECT_TRUE(sys.engine.lastCallDegraded());
}

TEST(RecoveryPaths, ForcedCuckooConflictsStillResolve)
{
    // Unit-level: forced displacement chains must still produce a
    // correct table (CAM staging + direct placement into an empty
    // bucket), never a lost or corrupt mapping.
    smartdimm::CuckooTable table(/*buckets=*/64, /*cam_entries=*/8);
    fault::FaultPlan plan(4);
    plan.add(fault::Site::kCuckooConflict, 0, /*count=*/5);
    table.setFaultPlan(&plan);

    for (std::uint64_t page = 100; page < 110; ++page) {
        smartdimm::Translation t;
        t.kind = smartdimm::MappingKind::kScratchpad;
        t.offset = static_cast<std::uint32_t>(page);
        ASSERT_TRUE(table.insert(page, t)) << "page " << page;
    }
    EXPECT_EQ(plan.injected(fault::Site::kCuckooConflict), 5u);
    EXPECT_GE(table.stats().displaced_inserts, 5u);

    for (std::uint64_t page = 100; page < 110; ++page) {
        const auto t = table.lookup(page);
        ASSERT_TRUE(t.has_value()) << "page " << page;
        EXPECT_EQ(t->offset, page);
    }
    EXPECT_EQ(table.size(), 10u);
}

TEST(RecoveryPaths, FreePagesLieDrivesForceRecycleThenRecovers)
{
    System sys;
    fault::FaultPlan plan(5);
    plan.add(fault::Site::kFreePagesLie, 0, /*count=*/1);
    sys.attach(&plan);

    Rng rng(14);
    std::vector<std::uint8_t> plain(4096);
    rng.fill(plain.data(), plain.size());
    std::uint8_t key[16];
    rng.fill(key, 16);
    crypto::GcmIv iv{};
    rng.fill(iv.data(), iv.size());

    const auto result = runTls(sys, plain, key, iv, 4);

    // One lie: the engine took Alg. 1, re-read the truth and finished
    // bit-exactly — no degradation.
    EXPECT_EQ(sys.dimm.stats().freepages_lies, 1u);
    EXPECT_GE(sys.engine.stats().force_recycles, 1u);
    EXPECT_EQ(sys.engine.stats().recycle_bailouts, 0u);
    EXPECT_FALSE(sys.engine.lastCallDegraded());
    EXPECT_EQ(result, softwareCiphertext(plain, key, iv));
}

TEST(RecoveryPaths, ForceRecycleDrainsPendingPagesByteExact)
{
    System sys;
    Rng rng(16);
    std::uint8_t key[16];
    rng.fill(key, 16);

    // One pending op's buffers and what its destination must hold.
    struct Pending
    {
        Addr dbuf = 0;
        std::size_t bytes = 0;
        smartdimm::UlpKind ulp = smartdimm::UlpKind::kTlsEncrypt;
        std::vector<std::uint8_t> payload;
        crypto::GcmIv iv{};
    };
    auto offload = [&](smartdimm::UlpKind ulp, std::size_t len,
                       std::uint64_t id) {
        Pending op;
        op.ulp = ulp;
        op.payload.resize(len);
        rng.fill(op.payload.data(), len);
        rng.fill(op.iv.data(), op.iv.size());

        compcpy::CompCpyParams params;
        params.size = len;
        params.ulp = ulp;
        params.ordered = ulp == smartdimm::UlpKind::kDeflate;
        params.message_id = id;
        std::memcpy(params.key, key, 16);
        params.iv = op.iv;
        op.bytes = compcpy::CompCpyEngine::destPages(params) * kPageSize;
        params.sbuf = sys.driver.alloc(kPageSize * divCeil(len, kPageSize));
        params.dbuf = op.dbuf = sys.driver.alloc(op.bytes);
        std::vector<std::uint8_t> staged(
            divCeil(len, kCacheLineSize) * kCacheLineSize, 0);
        std::memcpy(staged.data(), op.payload.data(), len);
        sys.memory->writeSync(params.sbuf, staged.data(), staged.size());
        sys.engine.run(params);
        return op;
    };
    auto expectResult = [&](const Pending &op) {
        const std::size_t len = op.payload.size();
        if (op.ulp == smartdimm::UlpKind::kTlsEncrypt) {
            EXPECT_EQ(sys.engine.readResult(op.dbuf, len + 16),
                      softwareCiphertext(op.payload, key, op.iv));
            return;
        }
        const auto framed = sys.engine.readResult(op.dbuf, kPageSize);
        const std::size_t stream_len = framed[0] | (framed[1] << 8);
        ASSERT_LE(stream_len + 2, framed.size());
        const auto back = compress::deflateTryDecompress(
            framed.data() + 2, stream_len, len);
        ASSERT_TRUE(back.has_value());
        EXPECT_EQ(*back, op.payload);
    };

    // Two offloads nobody USEs: their pages stay pending, the dirty
    // destination lines sit in the LLC.
    const std::vector<Pending> earlier = {
        offload(smartdimm::UlpKind::kTlsEncrypt, 1000, 1),
        offload(smartdimm::UlpKind::kDeflate, 3000, 2),
    };
    ASSERT_EQ(sys.dimm.scratchpad().livePages(), 2u);
    ASSERT_EQ(sys.engine.stats().force_recycles, 0u);

    // The next op re-reads freePages and is lied to: Alg. 1 drains
    // the pending pages through cache flushes and uncached rewrites.
    fault::FaultPlan plan(9);
    plan.add(fault::Site::kFreePagesLie, 0, /*count=*/1);
    sys.attach(&plan);
    sys.shared.free_pages = -1;
    const Pending last = offload(smartdimm::UlpKind::kTlsEncrypt, 4096, 3);

    EXPECT_EQ(sys.dimm.stats().freepages_lies, 1u);
    EXPECT_GE(sys.engine.stats().force_recycles, 1u);
    EXPECT_EQ(sys.engine.stats().recycle_bailouts, 0u);
    EXPECT_EQ(sys.dimm.scratchpad().livePages(), 2u)
        << "only the un-USEd last op's two pages remain";
    for (const Pending &op : earlier)
        expectResult(op);

    sys.engine.useSync(last.dbuf, last.bytes);
    expectResult(last);
    EXPECT_EQ(sys.dimm.scratchpad().livePages(), 0u);
    EXPECT_FALSE(sys.engine.lastCallDegraded());
}

TEST(RecoveryPaths, PersistentFreePagesLiesBailOutBounded)
{
    System sys;
    fault::FaultPlan plan(6);
    plan.add(fault::Site::kFreePagesLie); // every read lies, forever
    sys.attach(&plan);

    Rng rng(15);
    std::vector<std::uint8_t> plain(4096);
    rng.fill(plain.data(), plain.size());
    std::uint8_t key[16];
    rng.fill(key, 16);
    crypto::GcmIv iv{};
    rng.fill(iv.data(), iv.size());

    const auto result = runTls(sys, plain, key, iv, 5);

    // The Force-Recycle loop is bounded: past the attempt budget the
    // engine proceeds optimistically, and since the scratchpad really
    // had room the offload still completes bit-exactly.
    EXPECT_EQ(sys.engine.stats().recycle_bailouts, 1u);
    EXPECT_GE(sys.engine.stats().force_recycles, 1u);
    EXPECT_GE(sys.dimm.stats().freepages_lies, 1u);
    EXPECT_EQ(result, softwareCiphertext(plain, key, iv));
}

TEST(RecoveryPaths, WriteDrainDelayLosesNoWrites)
{
    EventQueue events;
    mem::BackingStore store;
    mem::DramGeometry g;
    g.channels = 1;
    mem::AddressMap map(g, mem::ChannelInterleave::kNone);
    smartdimm::BufferDevice dimm(events, map, store);
    mem::MemoryController mc(events, map, mem::DramTiming{},
                             mem::ControllerConfig{}, 0, dimm);
    fault::FaultPlan plan(7);
    plan.add(fault::Site::kWriteDrainDelay, 0, /*count=*/2);
    mc.setFaultPlan(&plan);

    std::uint8_t line[64] = {0xAB};
    int writes_done = 0;
    for (int i = 0; i < 56; ++i)
        mc.enqueueWrite(0x80000 + i * 64ull, line,
                        [&](Tick, mem::MemStatus) { ++writes_done; });
    std::uint8_t buf[64];
    int reads_done = 0;
    for (int i = 0; i < 8; ++i)
        mc.enqueueRead(0x200000 + i * 64ull, buf,
                       [&](Tick, mem::MemStatus) { ++reads_done; });
    events.run();

    EXPECT_EQ(writes_done, 56);
    EXPECT_EQ(reads_done, 8);
    EXPECT_EQ(plan.injected(fault::Site::kWriteDrainDelay), 2u);
    // Delayed or not, every queued write eventually hit the DIMM.
    std::uint8_t back[64];
    store.read(0x80000, back, 64);
    EXPECT_EQ(back[0], 0xAB);
}

TEST(RecoveryPaths, ScriptedLossAndReorderAreExact)
{
    net::LossConfig config; // no Bernoulli noise
    net::LossInjector injector(config, /*seed=*/1);
    fault::FaultPlan plan(8);
    plan.add(fault::Site::kNetLoss, /*skip=*/2, /*count=*/2);
    plan.add(fault::Site::kNetReorder, 0, /*count=*/3);
    injector.setFaultPlan(&plan);

    int drops = 0;
    int reorders = 0;
    for (int i = 0; i < 50; ++i) {
        drops += injector.shouldDrop();
        reorders += injector.shouldReorder();
    }
    EXPECT_EQ(drops, 2);
    EXPECT_EQ(reorders, 3);
    EXPECT_EQ(injector.scriptedDrops(), 2u);
    EXPECT_EQ(injector.scriptedReorders(), 3u);
    EXPECT_EQ(injector.drops(), 2u);
    EXPECT_EQ(injector.reorders(), 3u);
}

TEST(RecoveryPaths, ScriptedBurstLossForcesTcpRecovery)
{
    net::TcpConfig tcp;
    net::LossConfig loss;
    loss.burst_len = 4;

    const auto clean = net::tcpTransfer(1 << 20, tcp, loss, /*seed=*/3);
    EXPECT_EQ(clean.retransmits, 0u);

    auto run = [&]() {
        auto plan = fault::FaultPlan(9);
        plan.add(fault::Site::kNetLoss, /*skip=*/40, /*count=*/1);
        plan.add(fault::Site::kNetReorder, /*skip=*/100, /*count=*/1);
        return net::tcpTransfer(1 << 20, tcp, loss, /*seed=*/3, &plan);
    };
    const auto faulty = run();
    EXPECT_EQ(faulty.retransmits, 4u) << "one scripted burst of 4";
    EXPECT_EQ(faulty.reorder_events, 1u);
    EXPECT_GT(faulty.seconds, clean.seconds)
        << "loss recovery must cost time";
    EXPECT_GT(faulty.resyncEvents(), clean.resyncEvents());

    // Determinism: an identical plan replays the identical transfer.
    const auto again = run();
    EXPECT_EQ(again.seconds, faulty.seconds);
    EXPECT_EQ(again.segments_sent, faulty.segments_sent);
    EXPECT_EQ(again.retransmits, faulty.retransmits);
}

} // namespace
