#include "serve.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <unordered_map>

#include "common/random.h"
#include "compcpy/queue.h"
#include "compress/deflate.h"
#include "crypto/tls_record.h"
#include "offload/cost_model.h"
#include "smartdimm/deflate_dsa.h"
#include "trace/trace.h"

namespace servebench {

namespace {

using sd::compcpy::CompletionRecord;
using sd::compcpy::CompletionStatus;
using sd::smartdimm::UlpKind;
/** CPU-path workers serving requests the dispatcher sends to the CPU. */
constexpr unsigned kCpuWorkers = 2;

/** Tracer event capacity for traced runs (about 24 B per event). */
constexpr std::size_t kMaxTraceEvents = std::size_t{1} << 23;

/**
 * The three workloads (README.md says why each exists). Each nominal
 * rate sits below the workload's knee: past it, a run's p99 measures
 * how far the backlog grew before the run ended.
 */
std::vector<Workload>
makeWorkloads()
{
    std::vector<Workload> out;

    Workload tls;
    tls.name = "tls4k_4x2";
    tls.topology.channels = 4;
    tls.topology.dimms_per_channel = 2;
    tls.ulp = UlpKind::kTlsEncrypt;
    tls.flows = 64;
    tls.sizes = SizeMix::kFixed4k;
    tls.nominal_rate = 600e3;
    tls.p99_limit_us = 50;
    tls.requests = 2000;
    tls.nominal_reps = 12;
    tls.knee_reps = 3;
    out.push_back(tls);

    Workload deflate;
    deflate.name = "deflate_mixed_1x1";
    deflate.ulp = UlpKind::kDeflate;
    deflate.flows = 32;
    deflate.sizes = SizeMix::kUniformSubPage;
    deflate.text_frac = 0.75;
    deflate.nominal_rate = 40e3;
    deflate.p99_limit_us = 50;
    // More arrivals than the 2048-page scratchpad holds, so a run
    // reaches the regime where leaked pages force recycling.
    deflate.requests = 4000;
    deflate.nominal_reps = 6;
    deflate.knee_reps = 3;
    out.push_back(deflate);

    Workload tiered;
    tiered.name = "tls_tiered_cxl";
    tiered.topology.channels = 1;
    tiered.topology.cxl_channels = 1;
    tiered.topology.cxl_link.round_trip_ns = 600;
    tiered.ulp = UlpKind::kTlsEncrypt;
    tiered.flows = 256;
    tiered.flow_zipf = 1.1;
    tiered.sizes = SizeMix::kHalf1kHalf16k;
    tiered.nominal_rate = 125e3;
    tiered.p99_limit_us = 100;
    tiered.requests = 2000;
    tiered.nominal_reps = 6;
    tiered.knee_reps = 4;
    out.push_back(tiered);

    return out;
}

const std::vector<Workload> &
workloads()
{
    static const std::vector<Workload> all = makeWorkloads();
    return all;
}

std::uint64_t
nameHash(const std::string &name)
{
    std::uint64_t h = 0xcbf29ce484222325ULL; // FNV-1a
    for (const char c : name)
        h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
    return h;
}

/** Text-like bytes: words from a small per-run vocabulary. */
void
fillText(sd::Rng &rng, const std::vector<std::string> &vocab,
         std::vector<std::uint8_t> &out)
{
    std::size_t i = 0;
    while (i < out.size()) {
        const std::string &word = vocab[rng.below(vocab.size())];
        for (std::size_t c = 0; c < word.size() && i < out.size(); ++c)
            out[i++] = static_cast<std::uint8_t>(word[c]);
        if (i < out.size())
            out[i++] = rng.chance(0.1) ? '\n' : ' ';
    }
}

std::size_t
payloadBytes(const Workload &w, sd::Rng &rng)
{
    switch (w.sizes) {
    case SizeMix::kFixed4k:
        return 4096;
    case SizeMix::kUniformSubPage:
        return rng.range(1024, sd::smartdimm::kDeflateMaxPayload);
    case SizeMix::kHalf1kHalf16k:
        return rng.chance(0.5) ? 1024 : 16384;
    }
    return 4096;
}

/** Result bytes a request's consumer reads back. */
std::size_t
resultBytes(const Workload &w, std::size_t payload)
{
    return w.ulp == UlpKind::kTlsEncrypt ? payload + sd::crypto::kTlsTagSize
                                         : sd::kPageSize;
}

/** The stack under test for one run, plus the request state machine. */
class Server
{
  public:
    Server(const Workload &w, const Inputs &in, const RunOptions &opts,
           sd::topo::Topology &topo, sd::topo::ShardDispatcher &disp,
           RunResult &res)
        : w_(w), in_(in), opts_(opts), topo_(topo), disp_(disp),
          events_(topo.events()), res_(res),
          worker_free_(kCpuWorkers, 0)
    {
        const std::size_t n = in.requests.size();
        res_.requests.assign(n, RequestRecord{});
        results_.resize(n);
        arrivals_.resize(n);
        const double mean_gap_ps = 1e12 / opts.rate;
        Tick t = 0;
        for (std::size_t i = 0; i < n; ++i) {
            t += std::max<Tick>(1, static_cast<Tick>(
                                       in.requests[i].unit_gap * mean_gap_ps));
            arrivals_[i] = t;
            res_.requests[i].arrival = t;
        }
    }

    /** Serve every request; @return host seconds in the event loop. */
    double
    serve()
    {
        run_start_ = HostClock::now();
        if (!arrivals_.empty())
            events_.schedule(arrivals_[0], [this] { arrive(0); });
        events_.run();
        const double loop_s = secondsSince(run_start_);
        if (opts_.trace)
            hostSpan("event_loop", -1, run_start_, HostClock::now());
        return loop_s;
    }

    std::vector<std::vector<std::uint8_t>> &results() { return results_; }
    double placeSubmitNs() const
    {
        return placed_ ? place_submit_ns_ / static_cast<double>(placed_) : 0;
    }

  private:
    Tick
    cpuServiceTicks(std::size_t bytes) const
    {
        const sd::offload::CpuParams cpu = sd::offload::CostModel{}.cpu;
        const double cycles =
            w_.ulp == UlpKind::kTlsEncrypt
                ? cpu.aesni_cycles_per_byte * static_cast<double>(bytes) +
                      cpu.tls_record_cycles
                : cpu.deflate_cycles_per_byte * static_cast<double>(bytes) +
                      cpu.deflate_setup_cycles;
        return static_cast<Tick>(cycles / cpu.freq_ghz * 1000.0);
    }

    void
    hostSpan(const char *name, std::int64_t req, HostClock::time_point b,
             HostClock::time_point e)
    {
        auto ns = [this](HostClock::time_point t) {
            return static_cast<std::uint64_t>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    t - run_start_)
                    .count());
        };
        res_.spans.push_back({name, Clock::kHost, req, ns(b), ns(e)});
    }

    void
    simSpan(const char *name, std::size_t req, Tick b, Tick e)
    {
        res_.spans.push_back({name, Clock::kSim,
                              static_cast<std::int64_t>(req), b, e});
    }

    void
    arrive(std::size_t i)
    {
        // Chain the next arrival: the schedule is fixed in advance, so
        // the generator is never late, and the heap stays small.
        if (i + 1 < arrivals_.size())
            events_.schedule(arrivals_[i + 1], [this, i] { arrive(i + 1); });

        const HostClock::time_point t0 =
            opts_.trace ? HostClock::now() : HostClock::time_point{};
        submit(i);
        if (opts_.trace) {
            const HostClock::time_point t1 = HostClock::now();
            place_submit_ns_ += static_cast<double>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                    .count());
            ++placed_;
            hostSpan("place_submit", static_cast<std::int64_t>(i), t0, t1);
        }
    }

    void
    submit(std::size_t i)
    {
        const RequestInput &req = in_.requests[i];
        const unsigned slot = disp_.place(req.flow);
        if (slot == sd::topo::ShardDispatcher::kCpuPath) {
            runOnCpu(i);
            return;
        }
        sd::topo::Topology::Slot &dev = topo_.slot(slot);

        sd::compcpy::CompCpyParams params;
        params.size = req.payload.size();
        params.ulp = w_.ulp;
        params.ordered = w_.ulp == UlpKind::kDeflate;
        params.message_id = 1 + i;
        std::memcpy(params.key, in_.key, sizeof(params.key));
        params.iv = req.iv;
        params.sbuf = dev.driver.alloc(params.size);
        const std::size_t dbytes =
            sd::compcpy::CompCpyEngine::destPages(params) * sd::kPageSize;
        params.dbuf = dev.driver.alloc(dbytes);
        // The response body is already DRAM-resident (the application
        // or NIC staged it); the engine's own sbuf flush orders it.
        topo_.store().write(params.sbuf, req.payload.data(),
                            req.payload.size());
        ++outstanding_[req.flow];

        Buffers buf{slot, params.sbuf, params.size, params.dbuf, dbytes};
        auto done = [this, i, buf](const CompletionRecord &rec) {
            onRecord(i, buf, rec);
        };
        if (!disp_.submit(slot, sd::compcpy::Descriptor::single(params), 0,
                          std::move(done))) {
            // The queue filled between placement and submit.
            release(i, buf);
            runOnCpu(i);
        }
    }

    /** One request's device buffers, always on the allocating slot. */
    struct Buffers
    {
        unsigned slot = 0;
        sd::Addr sbuf = 0;
        std::size_t sbytes = 0;
        sd::Addr dbuf = 0;
        std::size_t dbytes = 0;
    };

    void
    release(std::size_t i, const Buffers &buf)
    {
        sd::topo::Topology::Slot &owner = topo_.slot(buf.slot);
        owner.driver.release(buf.sbuf, buf.sbytes);
        owner.driver.release(buf.dbuf, buf.dbytes);
        const std::uint64_t flow = in_.requests[i].flow;
        if (--outstanding_[flow] == 0)
            disp_.releaseFlow(flow);
    }

    void
    runOnCpu(std::size_t i)
    {
        auto worker = std::min_element(worker_free_.begin(), worker_free_.end());
        const Tick done = std::max(events_.now(), *worker) +
                          cpuServiceTicks(in_.requests[i].payload.size());
        *worker = done;
        events_.schedule(done, [this, i] {
            RequestRecord &r = res_.requests[i];
            r.path = Path::kCpu;
            r.done = events_.now();
            if (opts_.trace) {
                simSpan("request", i, r.arrival, r.done);
                simSpan("cpu_path", i, r.arrival, r.done);
            }
        });
    }

    void
    onRecord(std::size_t i, const Buffers &buf, const CompletionRecord &rec)
    {
        RequestRecord &r = res_.requests[i];
        r.slot = buf.slot;
        r.status = rec.status;
        r.dispatched = rec.dispatched;
        r.completed = events_.now();
        // USE: flush the destination so the result drains to DRAM.
        topo_.slot(buf.slot).engine.use(buf.dbuf, buf.dbytes,
                                        [this, i, buf] { onUsed(i, buf); });
    }

    void
    onUsed(std::size_t i, const Buffers &buf)
    {
        RequestRecord &r = res_.requests[i];
        r.path = Path::kDevice;
        r.done = events_.now();
        if (opts_.trace) {
            simSpan("request", i, r.arrival, r.done);
            simSpan("compcpy.queue_wait", i, r.arrival, r.dispatched);
            simSpan("compcpy.op", i, r.dispatched, r.completed);
            simSpan("compcpy.use", i, r.completed, r.done);
        }
        // The NIC's transmit fetch of the response: the bytes it reads
        // through the channel are the ones the check sees. It follows
        // the latency point and only then are the buffers recycled.
        std::vector<std::uint8_t> &out = results_[i];
        const std::size_t bytes =
            resultBytes(w_, in_.requests[i].payload.size());
        const std::size_t lines = sd::divCeil(bytes, sd::kCacheLineSize);
        out.assign(lines * sd::kCacheLineSize, 0);
        auto remaining = std::make_shared<std::size_t>(lines);
        const Tick begin = events_.now();
        for (std::size_t l = 0; l < lines; ++l) {
            topo_.memory().dmaReadLine(
                buf.dbuf + l * sd::kCacheLineSize,
                out.data() + l * sd::kCacheLineSize,
                [this, i, buf, bytes, remaining, begin](Tick) {
                    if (--*remaining != 0)
                        return;
                    results_[i].resize(bytes);
                    if (opts_.trace)
                        simSpan("nic_read", i, begin, events_.now());
                    release(i, buf);
                });
        }
    }

    const Workload &w_;
    const Inputs &in_;
    const RunOptions &opts_;
    sd::topo::Topology &topo_;
    sd::topo::ShardDispatcher &disp_;
    sd::EventQueue &events_;
    RunResult &res_;
    std::vector<Tick> arrivals_;
    std::vector<Tick> worker_free_;
    std::unordered_map<std::uint64_t, unsigned> outstanding_;
    std::vector<std::vector<std::uint8_t>> results_;
    HostClock::time_point run_start_{};
    double place_submit_ns_ = 0;
    std::uint64_t placed_ = 0;
};

LayerCounts
collectCounts(sd::topo::Topology &topo, sd::topo::ShardDispatcher &disp)
{
    LayerCounts c;
    c.events = topo.events().executed();

    const sd::topo::DispatchStats &ds = disp.stats();
    c.placements = ds.placements;
    c.home_hits = ds.home_hits;
    c.shed_to_sibling = ds.shed_to_sibling;
    c.migrations = ds.migrations_to_local + ds.migrations_to_cxl;

    for (unsigned s = 0; s < topo.slotCount(); ++s) {
        const sd::compcpy::WorkQueueStats &qs = disp.queue(s).stats();
        c.rejected_full += qs.rejected_full;
        c.polls_saved += qs.polls_saved;

        const sd::topo::Topology::Slot &slot = topo.slot(s);
        const sd::compcpy::CompCpyStats &es = slot.engine.stats();
        c.force_recycles += es.force_recycles;
        c.degraded_calls += es.degraded_calls;
        c.lines_copied += es.lines_copied;

        const sd::smartdimm::ArbiterStats &as = slot.device.stats();
        c.dbuf_write_ignored += as.dbuf_write_ignored;
        c.alert_n += as.alert_n;
        c.registrations += as.registrations;
        c.rejected_registrations += as.rejected_registrations;
        const sd::smartdimm::ScratchpadStats &sp =
            slot.device.scratchpad().stats();
        c.self_recycles += sp.self_recycles;
        c.scratchpad_peak_pages =
            std::max(c.scratchpad_peak_pages, sp.peak_pages);
    }

    const sd::cache::CacheStats &llc = topo.memory().llc().stats();
    c.llc_hits = llc.hits;
    c.llc_misses = llc.misses;
    c.writebacks = llc.writebacks;
    c.flush_dirty = llc.flush_dirty;

    for (unsigned ch = 0; ch < topo.memory().channels(); ++ch) {
        const sd::mem::ControllerStats &ms =
            topo.memory().controller(ch).stats();
        c.dram_bytes += ms.bytesMoved();
        c.row_hits += ms.row_hits;
        c.row_accesses += ms.row_hits + ms.row_misses + ms.row_conflicts;
        c.turnarounds += ms.turnarounds;
        c.sched_passes += ms.sched_passes;
        c.wakeups_requested += ms.wakeups_requested;
        c.wakeups_coalesced += ms.wakeups_coalesced;
        c.alert_retries += ms.alert_retries;
        if (const sd::mem::CxlLink *link = topo.cxlLink(ch)) {
            c.cxl_transfers += link->stats().transfers;
            c.cxl_busy_ticks += link->stats().busy_ticks;
            c.cxl_queue_ticks += link->stats().queue_ticks;
        }
    }
    return c;
}

/** Byte check of every device-served result against the reference. */
void
verify(const Workload &w, const Inputs &in,
       const std::vector<std::vector<std::uint8_t>> &results,
       RunResult &res)
{
    const sd::crypto::GcmContext gcm(in.key, sd::crypto::Aes::KeySize::k128);
    std::vector<std::uint8_t> expect;
    for (std::size_t i = 0; i < res.requests.size(); ++i) {
        RequestRecord &r = res.requests[i];
        if (r.path != Path::kDevice)
            continue;
        const std::vector<std::uint8_t> &payload = in.requests[i].payload;
        const std::vector<std::uint8_t> &got = results[i];
        if (got.size() != resultBytes(w, payload.size())) {
            r.bytes_ok = false;
            continue;
        }
        if (w.ulp == UlpKind::kTlsEncrypt) {
            expect.resize(payload.size());
            const sd::crypto::GcmTag tag = gcm.encrypt(
                in.requests[i].iv, payload.data(), payload.size(),
                expect.data());
            r.bytes_ok =
                std::memcmp(got.data(), expect.data(), payload.size()) == 0 &&
                std::memcmp(got.data() + payload.size(), tag.data(),
                            tag.size()) == 0;
        } else {
            // Frame: 2-byte little-endian stream length + the stream.
            const std::size_t len = got[0] | (std::size_t{got[1]} << 8);
            if (len + 2 > got.size()) {
                r.bytes_ok = false;
                continue;
            }
            const auto back = sd::compress::deflateTryDecompress(
                got.data() + 2, len, sd::kPageSize);
            r.bytes_ok = back && *back == payload;
        }
    }
}

} // namespace

const Workload *
findWorkload(const std::string &name)
{
    for (const Workload &w : workloads())
        if (w.name == name)
            return &w;
    return nullptr;
}

std::vector<std::string>
workloadNames()
{
    std::vector<std::string> names;
    for (const Workload &w : workloads())
        names.push_back(w.name);
    return names;
}

std::uint64_t
replicaSeed(std::uint64_t seed, unsigned rep)
{
    std::uint64_t x = seed * 0x9E3779B97F4A7C15ULL + rep;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL; // splitmix64 finaliser
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
    return x ^ (x >> 31);
}

Inputs
generateInputs(const Workload &w, std::uint64_t seed)
{
    sd::Rng rng(seed ^ nameHash(w.name));
    Inputs in;
    rng.fill(in.key, sizeof(in.key));

    std::vector<std::string> vocab(256);
    for (std::string &word : vocab) {
        word.resize(rng.range(2, 10));
        for (char &c : word)
            c = static_cast<char>('a' + rng.below(26));
    }

    // Zipf flow popularity via an inverse-CDF table (flow 0 hottest).
    std::vector<double> cdf;
    if (w.flow_zipf > 0) {
        double acc = 0;
        for (unsigned f = 1; f <= w.flows; ++f) {
            acc += 1.0 / std::pow(static_cast<double>(f), w.flow_zipf);
            cdf.push_back(acc);
        }
        for (double &v : cdf)
            v /= acc;
    }

    in.requests.resize(w.requests);
    for (RequestInput &r : in.requests) {
        r.unit_gap = rng.exponential(1.0);
        if (cdf.empty()) {
            r.flow = rng.below(w.flows);
        } else {
            const double u = rng.uniform();
            r.flow = static_cast<std::uint64_t>(
                std::lower_bound(cdf.begin(), cdf.end() - 1, u) - cdf.begin());
        }
        r.payload.resize(payloadBytes(w, rng));
        if (rng.chance(w.text_frac))
            fillText(rng, vocab, r.payload);
        else
            rng.fill(r.payload.data(), r.payload.size());
        rng.fill(r.iv.data(), r.iv.size());
    }
    return in;
}

std::size_t
RunResult::completed() const
{
    return requests.size() - onPath(Path::kIncomplete);
}

std::size_t
RunResult::onPath(Path path) const
{
    return static_cast<std::size_t>(
        std::count_if(requests.begin(), requests.end(),
                      [path](const RequestRecord &r) { return r.path == path; }));
}

std::size_t
RunResult::failed() const
{
    return static_cast<std::size_t>(
        std::count_if(requests.begin(), requests.end(),
                      [](const RequestRecord &r) { return r.failed(); }));
}

double
RunResult::achievedRate() const
{
    Tick last = 0;
    for (const RequestRecord &r : requests)
        if (r.path != Path::kIncomplete)
            last = std::max(last, r.done);
    if (requests.empty() || last <= requests.front().arrival)
        return 0;
    return static_cast<double>(completed()) * 1e12 /
           static_cast<double>(last - requests.front().arrival);
}

RunResult
runOnce(const Workload &w, std::uint64_t seed, const RunOptions &opts)
{
    RunResult res;
    const HostClock::time_point t0 = HostClock::now();
    const Inputs in = generateInputs(w, seed);
    sd::topo::Topology topo(w.topology);
    sd::topo::ShardDispatcher disp(topo);
    res.setup_s = secondsSince(t0);

    if (opts.trace) {
        // Room for every event of a replication, so the overhead
        // measured is that of recording, not of counting drops.
        sd::trace::tracer().clear();
        sd::trace::tracer().setMaxEvents(kMaxTraceEvents);
        sd::trace::tracer().enable(/*capture_ddr=*/false);
    }
    Server server(w, in, opts, topo, disp, res);
    res.loop_s = server.serve();
    if (opts.trace) {
        sd::trace::tracer().disable();
        sd::trace::tracer().clear();
    }
    res.place_submit_ns = server.placeSubmitNs();
    res.sim_end = topo.events().now();
    res.counts = collectCounts(topo, disp);

    if (opts.corrupt_request >= 0) {
        // Flip a byte the check must cover: mid-ciphertext for TLS,
        // mid-stream for a Deflate frame.
        auto &out = server.results()[static_cast<std::size_t>(
            opts.corrupt_request)];
        std::size_t at = out.size() / 2;
        if (w.ulp == UlpKind::kDeflate && out.size() > 2)
            at = std::min<std::size_t>(
                2 + (out[0] | (std::size_t{out[1]} << 8)) / 2, out.size() - 1);
        if (!out.empty())
            out[at] ^= 0x01;
    }
    verify(w, in, server.results(), res);
    return res;
}

Tick
percentile(const std::vector<Tick> &sorted, double p)
{
    if (sorted.empty())
        return 0;
    const auto rank = static_cast<std::size_t>(
        std::ceil(p * static_cast<double>(sorted.size())));
    return sorted[std::min(sorted.size(), std::max<std::size_t>(rank, 1)) - 1];
}

} // namespace servebench
