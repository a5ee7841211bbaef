/**
 * @file
 * Open-loop serving harness over the simulated SmartDIMM stack.
 *
 * One run = one freshly built Topology + ShardDispatcher driven by a
 * pre-drawn Poisson arrival schedule. Every request is placed and
 * submitted through the public dispatcher API, completes through the
 * WorkQueue completion record, and is consumed by CompCpyEngine::use
 * (Algorithm 2's USE step, standing in for the NIC reading the
 * response). Requests the dispatcher sends to the CPU path run on a
 * small worker pool costed by offload::CostModel. Result bytes are
 * copied out at USE completion and checked against the software
 * reference after the timed region.
 */

#ifndef SERVEBENCH_SERVE_H
#define SERVEBENCH_SERVE_H

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"
#include "crypto/aes_gcm.h"
#include "smartdimm/dsa.h"
#include "topo/dispatcher.h"
#include "topo/topology.h"

namespace servebench {

using sd::Tick;
using HostClock = std::chrono::steady_clock;

inline double
secondsSince(HostClock::time_point t0)
{
    return std::chrono::duration<double>(HostClock::now() - t0).count();
}

/** Payload size mix of a workload. */
enum class SizeMix : std::uint8_t
{
    kFixed4k,        ///< every record 4096 B
    kUniformSubPage, ///< uniform in [1024, kDeflateMaxPayload]
    kHalf1kHalf16k,  ///< half 1 KB, half 16 KB records
};

/** Everything that defines one workload (see README.md for why). */
struct Workload
{
    std::string name;
    sd::topo::TopologySpec topology{};
    sd::smartdimm::UlpKind ulp = sd::smartdimm::UlpKind::kTlsEncrypt;
    unsigned flows = 64;
    double flow_zipf = 0; ///< 0 = uniform flow popularity
    SizeMix sizes = SizeMix::kFixed4k;
    double text_frac = 0; ///< share of text-like (compressible) payloads
    double nominal_rate = 100e3; ///< req/s
    double p99_limit_us = 50;
    std::size_t requests = 2000; ///< arrivals per replication
    /** Independent replications (sub-seeds) per measured rate: the
     *  nominal point and each bisection step. */
    unsigned nominal_reps = 6;
    unsigned knee_reps = 2;
};

/** Look up a workload by name. @return nullptr when unknown. */
const Workload *findWorkload(const std::string &name);

/** Names of every workload, in a fixed order. */
std::vector<std::string> workloadNames();

/** The pre-drawn inputs of one request (arrival scaled per rate). */
struct RequestInput
{
    double unit_gap = 0; ///< exponential(1) inter-arrival draw
    std::uint64_t flow = 0;
    std::vector<std::uint8_t> payload;
    sd::crypto::GcmIv iv{};
};

/** A workload's inputs: a pure function of (workload, seed). */
struct Inputs
{
    std::uint8_t key[16] = {};
    std::vector<RequestInput> requests;
};

Inputs generateInputs(const Workload &w, std::uint64_t seed);

/** Seed of replication @p rep of a run seeded with @p seed. */
std::uint64_t replicaSeed(std::uint64_t seed, unsigned rep);

/** How a request was served. */
enum class Path : std::uint8_t
{
    kIncomplete = 0, ///< no completion before the event queue drained
    kDevice,
    kCpu,
};

/** Simulated-time lifecycle of one request (ticks). */
struct RequestRecord
{
    Path path = Path::kIncomplete;
    unsigned slot = 0; ///< allocating slot (device path)
    sd::compcpy::CompletionStatus status =
        sd::compcpy::CompletionStatus::kSuccess;
    Tick arrival = 0;
    Tick dispatched = 0; ///< device path: op started executing
    Tick completed = 0;  ///< device path: completion record written
    Tick done = 0;       ///< USE finished (device) / worker finished (CPU)
    bool bytes_ok = true;

    Tick latency() const { return done - arrival; }

    bool operator==(const RequestRecord &) const = default;

    /** Not completed, or served by the device with a bad status or
     *  wrong bytes. */
    bool
    failed() const
    {
        return path == Path::kIncomplete ||
               (path == Path::kDevice &&
                (status != sd::compcpy::CompletionStatus::kSuccess ||
                 !bytes_ok));
    }
};

/** Which clock a span is measured in. */
enum class Clock : std::uint8_t
{
    kSim = 0, ///< simulated ticks (ps)
    kHost,    ///< host steady_clock ns since the run started
};

/** One span recorded by the benchmark's own code. */
struct SpanRecord
{
    const char *name = "";
    Clock clock = Clock::kSim;
    std::int64_t req = -1; ///< request id, -1 when not per-request
    std::uint64_t begin = 0;
    std::uint64_t end = 0;
};

/** Component counters read from public stats() after a run. */
struct LayerCounts
{
    std::uint64_t events = 0;
    // topo
    std::uint64_t placements = 0;
    std::uint64_t home_hits = 0;
    std::uint64_t shed_to_sibling = 0;
    std::uint64_t migrations = 0;
    // compcpy
    std::uint64_t rejected_full = 0;
    std::uint64_t force_recycles = 0;
    std::uint64_t degraded_calls = 0;
    std::uint64_t lines_copied = 0;
    std::uint64_t polls_saved = 0;
    // cache
    std::uint64_t llc_hits = 0;
    std::uint64_t llc_misses = 0;
    std::uint64_t writebacks = 0;
    std::uint64_t flush_dirty = 0;
    // mem
    std::uint64_t dram_bytes = 0;
    std::uint64_t row_hits = 0;
    std::uint64_t row_accesses = 0;
    std::uint64_t turnarounds = 0;
    std::uint64_t sched_passes = 0;
    std::uint64_t wakeups_requested = 0;
    std::uint64_t wakeups_coalesced = 0;
    std::uint64_t alert_retries = 0;
    std::uint64_t cxl_transfers = 0;
    Tick cxl_busy_ticks = 0;
    Tick cxl_queue_ticks = 0;
    // smartdimm
    std::uint64_t self_recycles = 0;
    std::uint64_t dbuf_write_ignored = 0;
    std::uint64_t alert_n = 0;
    std::uint64_t registrations = 0;
    std::uint64_t rejected_registrations = 0;
    std::uint64_t scratchpad_peak_pages = 0; ///< max over devices

    bool operator==(const LayerCounts &) const = default;
};

/** Knobs of one run. */
struct RunOptions
{
    double rate = 100e3;
    bool trace = false; ///< record spans + enable trace::tracer()
    /** Test hook: flip one byte of this request's captured result
     *  before verification (-1 = off). */
    std::int64_t corrupt_request = -1;
};

/** Everything one run produced. */
struct RunResult
{
    std::vector<RequestRecord> requests;
    LayerCounts counts;
    Tick sim_end = 0;       ///< tick the event queue drained at
    double setup_s = 0;     ///< input generation + construction
    double loop_s = 0;      ///< host seconds in the event loop
    double place_submit_ns = 0; ///< mean host ns per place+submit
    std::vector<SpanRecord> spans; ///< traced runs only

    std::size_t completed() const;
    std::size_t failed() const;
    std::size_t onPath(Path path) const;
    /** Completions over (last completion - first arrival), req/s. */
    double achievedRate() const;
};

/**
 * Generate inputs, build the stack, serve every request at
 * @p opts.rate, then verify every device result (untimed).
 */
RunResult runOnce(const Workload &w, std::uint64_t seed,
                  const RunOptions &opts);

/** Nearest-rank percentile of @p sorted (ticks), 0 when empty. */
Tick percentile(const std::vector<Tick> &sorted, double p);

} // namespace servebench

#endif // SERVEBENCH_SERVE_H
