/**
 * @file
 * Withheld-response completion contract (the CXL.mem far-tier model):
 * delivery of the held kQueueComplete read IS the completion — no
 * host polling, no lossy record write — and the saved poll traffic is
 * tallied. The failure mode moves to the response itself: an injected
 * kCxlTimeout drops it and poll-timeout recovery synthesises the
 * record, flagged degraded so the dispatcher can fall back.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <vector>

#include "common/random.h"
#include "compcpy/queue.h"
#include "fault/fault.h"
#include "topo/dispatcher.h"
#include "topo/topology.h"

namespace {

using namespace sd;
using compcpy::CompletionRecord;
using compcpy::CompletionSignal;
using compcpy::CompletionStatus;
using compcpy::Descriptor;
using compcpy::WorkQueue;
using compcpy::WorkQueueConfig;

/** A TLS-4K op staged on @p slot. */
compcpy::CompCpyParams
makeTlsOp(topo::Topology &topo, topo::Topology::Slot &slot, Rng &rng,
          std::uint64_t message_id)
{
    std::vector<std::uint8_t> plain(4096);
    rng.fill(plain.data(), plain.size());

    compcpy::CompCpyParams params;
    params.size = plain.size();
    params.ulp = smartdimm::UlpKind::kTlsEncrypt;
    params.message_id = message_id;
    rng.fill(params.key, sizeof(params.key));
    rng.fill(params.iv.data(), params.iv.size());
    params.sbuf = slot.driver.alloc(plain.size());
    params.dbuf = slot.driver.alloc(2 * kPageSize);
    topo.memory().writeSync(params.sbuf, plain.data(), plain.size());
    return params;
}

WorkQueueConfig
withheldConfig()
{
    WorkQueueConfig config;
    config.id = 1;
    config.mode = compcpy::QueueMode::kShared;
    config.signal = CompletionSignal::kWithheldResponse;
    return config;
}

TEST(WithheldCompletion, DeliversExactlyOnceWithoutPolling)
{
    topo::Topology topo{topo::TopologySpec{}};
    WorkQueue queue(topo.slot(0u).engine, withheldConfig());

    Rng rng(41);
    std::map<std::uint64_t, unsigned> delivered;
    for (std::uint64_t i = 0; i < 4; ++i) {
        const auto params = makeTlsOp(topo, topo.slot(0u), rng, 1 + i);
        const auto id = queue.submit(
            Descriptor::single(params), 0,
            [&delivered](const CompletionRecord &record) {
                ++delivered[record.id];
                EXPECT_EQ(record.status, CompletionStatus::kSuccess);
                EXPECT_FALSE(record.recovered);
            });
        ASSERT_TRUE(id.has_value());
    }
    topo.events().run();

    ASSERT_EQ(delivered.size(), 4u);
    for (const auto &[id, count] : delivered)
        EXPECT_EQ(count, 1u) << "descriptor " << id;

    const auto &stats = queue.stats();
    EXPECT_EQ(stats.submitted, 4u);
    EXPECT_EQ(stats.completions, 4u);
    EXPECT_EQ(stats.withheld_reads, 4u);
    EXPECT_EQ(stats.withheld_completions, 4u);
    EXPECT_EQ(stats.withheld_timeouts, 0u);
    EXPECT_EQ(stats.lost_records, 0u)
        << "the withheld mode has no lossy record write";
    EXPECT_EQ(stats.recovered_records, 0u);
}

TEST(WithheldCompletion, TalliesTheSavedPollTraffic)
{
    topo::Topology topo{topo::TopologySpec{}};
    WorkQueueConfig config = withheldConfig();
    config.poll_interval = 250'000; // 250 ns: several polls per op
    WorkQueue queue(topo.slot(0u).engine, config);

    Rng rng(43);
    const auto params = makeTlsOp(topo, topo.slot(0u), rng, 9);
    Tick waited = 0;
    ASSERT_TRUE(queue
                    .submit(Descriptor::single(params), 0,
                            [&](const CompletionRecord &record) {
                                waited = record.completed -
                                         record.submitted;
                            })
                    .has_value());
    topo.events().run();

    const auto &stats = queue.stats();
    // One poll replaced per interval the descriptor was outstanding,
    // plus the final one that would have found the record.
    EXPECT_EQ(stats.polls_saved,
              1 + waited / config.poll_interval);
    EXPECT_EQ(stats.poll_bytes_saved,
              stats.polls_saved * kCacheLineSize);
    EXPECT_GT(stats.polls_saved, 1u)
        << "an offload spanning several poll intervals must save more "
           "than one poll";
}

TEST(WithheldCompletion, PollRecordModeLeavesWithheldCountersZero)
{
    topo::Topology topo{topo::TopologySpec{}};
    WorkQueue queue(topo.slot(0u).engine,
                    WorkQueueConfig{.id = 1,
                                    .mode = compcpy::QueueMode::kShared});

    Rng rng(47);
    const auto params = makeTlsOp(topo, topo.slot(0u), rng, 5);
    ASSERT_TRUE(
        queue.submit(Descriptor::single(params)).has_value());
    queue.drain();

    const auto &stats = queue.stats();
    EXPECT_EQ(stats.completions, 1u);
    EXPECT_EQ(stats.withheld_reads, 0u);
    EXPECT_EQ(stats.withheld_completions, 0u);
    EXPECT_EQ(stats.polls_saved, 0u);
}

TEST(WithheldCompletion, TimeoutRecoverySynthesisesDegradedRecord)
{
    topo::Topology topo{topo::TopologySpec{}};
    auto plan = fault::FaultPlan::fromSpec("cxl_timeout:count=1", 13);
    ASSERT_TRUE(plan.has_value());
    topo.setFaultPlan(&*plan);

    WorkQueue queue(topo.slot(0u).engine, withheldConfig());
    Rng rng(53);
    const auto params = makeTlsOp(topo, topo.slot(0u), rng, 7);
    const auto id = queue.submit(Descriptor::single(params));
    ASSERT_TRUE(id.has_value());

    // wait() drives the event queue and runs poll-timeout recovery
    // when the response never arrives.
    const CompletionRecord record = queue.wait(*id);
    EXPECT_TRUE(record.recovered);
    EXPECT_EQ(record.status, CompletionStatus::kDegraded)
        << "a completion the host never saw cannot be trusted";

    const auto &stats = queue.stats();
    EXPECT_EQ(stats.withheld_timeouts, 1u);
    EXPECT_EQ(stats.withheld_timeouts,
              plan->injected(fault::Site::kCxlTimeout));
    EXPECT_EQ(stats.withheld_completions, 0u);
    EXPECT_EQ(stats.recovered_records, 1u);
    EXPECT_EQ(stats.completions, 1u);
    EXPECT_EQ(stats.bailouts, 0u);
}

TEST(WithheldCompletion, FarSlotsOfAMixedTopologyUseWithheldQueues)
{
    topo::TopologySpec spec;
    spec.channels = 1;
    spec.cxl_channels = 1;
    topo::Topology topo(spec);
    topo::ShardDispatcher dispatcher(topo);

    ASSERT_EQ(topo.slotCount(), 2u);
    EXPECT_EQ(dispatcher.queue(0).config().signal,
              CompletionSignal::kPollRecord);
    EXPECT_EQ(dispatcher.queue(1).config().signal,
              CompletionSignal::kWithheldResponse)
        << "a far slot's queue must complete via the held read";
}

} // namespace
