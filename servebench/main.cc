/**
 * @file
 * servebench: open-loop serving benchmark over the simulated
 * SmartDIMM stack (see README.md).
 *
 *   servebench --workload NAME --seed N --seconds S --trace 0|1
 *              [--commit ID] [--chrome-trace PATH]
 *   servebench --workload NAME --seed N --probe-rate R
 *   servebench --selftest
 *
 * The last line of standard output is one JSON object with the keys
 * correct, attempted, failed and metrics. --trace 0 reports the
 * end-to-end metrics; --trace 1 reports the per-layer metrics.
 */

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "compress/hw_deflate.h"
#include "kernels/dispatch.h"
#include "serve.h"
#include "smartdimm/deflate_dsa.h"

namespace servebench {
namespace {

constexpr Tick kFailedLatency = std::numeric_limits<Tick>::max();

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0;
}

double
usOf(Tick t)
{
    return static_cast<double>(t) / 1e6;
}

/** One metric of the result line. */
struct Metric
{
    std::string name;
    double value = 0;
    std::string unit;
};

/** Latencies of completed requests, sorted. */
std::vector<Tick>
latencies(const RunResult &run)
{
    std::vector<Tick> out;
    for (const RequestRecord &r : run.requests)
        if (r.path != Path::kIncomplete)
            out.push_back(r.latency());
    std::sort(out.begin(), out.end());
    return out;
}

/**
 * Knee criterion at one offered rate, pooled over its replications:
 * p99 over every attempted request (a failed one counts as missing
 * the limit) within the limit, and achieved throughput at least 95%
 * of offered (no growing backlog).
 */
bool
meetsLimit(const Workload &w, const std::vector<RunResult> &reps,
           double rate)
{
    std::vector<Tick> lat;
    double achieved = 0;
    for (const RunResult &run : reps) {
        for (const RequestRecord &r : run.requests)
            lat.push_back(r.failed() ? kFailedLatency : r.latency());
        achieved += run.achievedRate() / static_cast<double>(reps.size());
    }
    std::sort(lat.begin(), lat.end());
    const Tick p99 = percentile(lat, 0.99);
    return p99 != kFailedLatency && usOf(p99) <= w.p99_limit_us &&
           achieved >= 0.95 * rate;
}

/** Simulated outcome of a run: what must repeat exactly for a seed. */
bool
sameSimulation(const RunResult &a, const RunResult &b)
{
    return a.requests == b.requests && a.counts == b.counts &&
           a.sim_end == b.sim_end;
}

/**
 * Check the traced decomposition: every completed request has one
 * `request` span whose exclusive children tile it exactly and sum to
 * the request's simulated latency. @return the number of violations.
 */
std::size_t
spanViolations(const RunResult &run)
{
    struct Tiling
    {
        const SpanRecord *request = nullptr;
        unsigned request_spans = 0;
        std::vector<const SpanRecord *> children;
    };
    std::vector<Tiling> per_req(run.requests.size());
    for (const SpanRecord &s : run.spans) {
        if (s.clock != Clock::kSim || s.req < 0)
            continue;
        Tiling &t = per_req[static_cast<std::size_t>(s.req)];
        if (std::strcmp(s.name, "request") == 0) {
            t.request = &s;
            ++t.request_spans;
        } else if (std::strcmp(s.name, "nic_read") != 0)
            t.children.push_back(&s);
    }
    std::size_t bad = 0;
    for (std::size_t i = 0; i < run.requests.size(); ++i) {
        const RequestRecord &r = run.requests[i];
        const Tiling &t = per_req[i];
        if (r.path == Path::kIncomplete) {
            bad += t.request != nullptr;
            continue;
        }
        if (t.request_spans != 1 || t.children.empty()) {
            ++bad;
            continue;
        }
        std::uint64_t sum = 0;
        std::uint64_t cursor = t.request->begin;
        for (const SpanRecord *c : t.children) {
            if (c->begin != cursor || c->end < c->begin) {
                ++bad;
                break;
            }
            sum += c->end - c->begin;
            cursor = c->end;
        }
        if (cursor != t.request->end || sum != r.latency() ||
            t.request->end - t.request->begin != r.latency())
            ++bad;
    }
    return bad;
}

/** Write the traced run's spans as Chrome trace-event JSON. */
bool
writeChromeTrace(const std::string &path, const Workload &w,
                 const RunResult &run)
{
    std::ofstream os(path);
    if (!os)
        return false;
    os << "{\"traceEvents\":[\n";
    os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,"
          "\"args\":{\"name\":\"simulated time ("
       << w.name << ")\"}},\n";
    os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":2,"
          "\"args\":{\"name\":\"host time\"}}";
    char buf[256];
    for (const SpanRecord &s : run.spans) {
        // Simulated ticks are ps, host stamps ns; Chrome wants us.
        const double scale = s.clock == Clock::kSim ? 1e-6 : 1e-3;
        std::snprintf(buf, sizeof(buf),
                      ",\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":%d,"
                      "\"tid\":%lld,\"ts\":%.6f,\"dur\":%.6f,"
                      "\"args\":{\"req\":%lld}}",
                      s.name, s.clock == Clock::kSim ? 1 : 2,
                      static_cast<long long>(
                          s.clock == Clock::kSim ? s.req : 0),
                      static_cast<double>(s.begin) * scale,
                      static_cast<double>(s.end - s.begin) * scale,
                      static_cast<long long>(s.req));
        os << buf;
    }
    os << "\n]}\n";
    return static_cast<bool>(os);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

/** Host ns per KB of the two reference kernels over the payloads. */
struct KernelTimes
{
    double gcm_ns_per_kb = 0;
    double hwdeflate_ns_per_kb = 0;
};

KernelTimes
timeKernels(const Workload &w, std::uint64_t seed, RunResult &trace_run)
{
    const Inputs in = generateInputs(w, seed);
    const std::size_t n = std::min<std::size_t>(in.requests.size(), 512);
    const sd::crypto::GcmContext gcm(in.key, sd::crypto::Aes::KeySize::k128);
    std::vector<std::uint8_t> out;
    std::vector<double> gcm_runs, deflate_runs;
    const HostClock::time_point base = HostClock::now();
    auto stamp = [base](HostClock::time_point t) {
        return static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(t - base)
                .count());
    };
    for (int rep = 0; rep < 5; ++rep) {
        double kb = 0;
        HostClock::time_point t0 = HostClock::now();
        for (std::size_t i = 0; i < n; ++i) {
            const auto &p = in.requests[i].payload;
            out.resize(p.size());
            const auto tag =
                gcm.encrypt(in.requests[i].iv, p.data(), p.size(), out.data());
            out[0] ^= tag[0]; // keep the result live
            kb += static_cast<double>(p.size()) / 1024.0;
        }
        HostClock::time_point t1 = HostClock::now();
        trace_run.spans.push_back(
            {"kernel.gcm_encrypt", Clock::kHost, -1, stamp(t0), stamp(t1)});
        gcm_runs.push_back(
            std::chrono::duration<double, std::nano>(t1 - t0).count() / kb);

        kb = 0;
        t0 = HostClock::now();
        for (std::size_t i = 0; i < n; ++i) {
            const auto &p = in.requests[i].payload;
            const std::size_t len =
                std::min(p.size(), sd::smartdimm::kDeflateMaxPayload);
            const auto z = sd::compress::hwDeflateCompress(p.data(), len);
            out.assign(z.begin(), z.end());
            kb += static_cast<double>(len) / 1024.0;
        }
        t1 = HostClock::now();
        trace_run.spans.push_back({"kernel.hw_deflate", Clock::kHost, -1,
                                   stamp(t0), stamp(t1)});
        deflate_runs.push_back(
            std::chrono::duration<double, std::nano>(t1 - t0).count() / kb);
    }
    return {median(gcm_runs), median(deflate_runs)};
}

/** Per-layer metrics of one traced run (see README.md for the map). */
std::vector<Metric>
layerMetrics(const RunResult &run, double host_req_per_s,
             double host_ns_per_event, double overhead_frac,
             const KernelTimes &kernels)
{
    const LayerCounts &c = run.counts;
    const auto reqs = static_cast<double>(run.requests.size());
    const auto device = static_cast<double>(run.onPath(Path::kDevice));
    const auto cpu = static_cast<double>(run.onPath(Path::kCpu));

    std::vector<Tick> wait, op, use;
    for (const RequestRecord &r : run.requests) {
        if (r.path != Path::kDevice)
            continue;
        wait.push_back(r.dispatched - r.arrival);
        op.push_back(r.completed - r.dispatched);
        use.push_back(r.done - r.completed);
    }
    for (auto *v : {&wait, &op, &use})
        std::sort(v->begin(), v->end());

    auto d = [](std::uint64_t v) { return static_cast<double>(v); };
    const double sim_s = static_cast<double>(run.sim_end) / 1e12;
    return {
        {"sim.host_req_per_s", host_req_per_s, "req/s"},
        {"sim.events_per_req", ratio(d(c.events), reqs), "count/req"},
        {"sim.host_ns_per_event", host_ns_per_event, "ns"},
        {"crypto.gcm_host_ns_per_kb", kernels.gcm_ns_per_kb, "ns/KB"},
        {"compress.hwdeflate_host_ns_per_kb", kernels.hwdeflate_ns_per_kb,
         "ns/KB"},
        {"topo.place_submit_host_ns", run.place_submit_ns, "ns"},
        {"topo.home_hit_frac", ratio(d(c.home_hits), d(c.placements)),
         "ratio"},
        {"topo.shed_to_sibling_frac",
         ratio(d(c.shed_to_sibling), d(c.placements)), "ratio"},
        {"topo.cpu_path_frac", ratio(cpu, reqs), "ratio"},
        {"topo.migrations", d(c.migrations), "count"},
        {"compcpy.queue_wait_us.p50", usOf(percentile(wait, 0.50)), "us"},
        {"compcpy.queue_wait_us.p99", usOf(percentile(wait, 0.99)), "us"},
        {"compcpy.op_us.p50", usOf(percentile(op, 0.50)), "us"},
        {"compcpy.op_us.p99", usOf(percentile(op, 0.99)), "us"},
        {"compcpy.use_us.p50", usOf(percentile(use, 0.50)), "us"},
        {"compcpy.use_us.p99", usOf(percentile(use, 0.99)), "us"},
        {"compcpy.rejected_full", d(c.rejected_full), "count"},
        {"compcpy.force_recycles_per_kreq",
         ratio(d(c.force_recycles) * 1000, reqs), "count/kreq"},
        {"compcpy.degraded_calls", d(c.degraded_calls), "count"},
        {"compcpy.lines_copied_per_req", ratio(d(c.lines_copied), device),
         "count/req"},
        {"compcpy.polls_saved_per_req", ratio(d(c.polls_saved), device),
         "count/req"},
        {"cache.llc_miss_rate",
         ratio(d(c.llc_misses), d(c.llc_hits + c.llc_misses)), "ratio"},
        {"cache.writebacks_per_req", ratio(d(c.writebacks), reqs),
         "count/req"},
        {"cache.flush_dirty_per_req", ratio(d(c.flush_dirty), reqs),
         "count/req"},
        {"mem.row_hit_frac", ratio(d(c.row_hits), d(c.row_accesses)),
         "ratio"},
        {"mem.turnarounds_per_req", ratio(d(c.turnarounds), reqs),
         "count/req"},
        {"mem.sched_passes_per_req", ratio(d(c.sched_passes), reqs),
         "count/req"},
        {"mem.wakeups_coalesced_frac",
         ratio(d(c.wakeups_coalesced), d(c.wakeups_requested)), "ratio"},
        {"mem.alert_retries_per_req", ratio(d(c.alert_retries), reqs),
         "count/req"},
        {"mem.cxl.busy_frac",
         ratio(static_cast<double>(c.cxl_busy_ticks) / 1e12, sim_s),
         "ratio"},
        {"mem.cxl.queue_ns_per_transfer",
         ratio(static_cast<double>(c.cxl_queue_ticks) / 1e3,
               d(c.cxl_transfers)),
         "ns"},
        {"smartdimm.self_recycles_per_req", ratio(d(c.self_recycles), reqs),
         "count/req"},
        {"smartdimm.dbuf_write_ignored", d(c.dbuf_write_ignored), "count"},
        {"smartdimm.alert_n_per_req", ratio(d(c.alert_n), reqs),
         "count/req"},
        {"smartdimm.registrations_per_req", ratio(d(c.registrations), reqs),
         "count/req"},
        {"smartdimm.rejected_registrations", d(c.rejected_registrations),
         "count"},
        {"smartdimm.scratchpad_peak_pages", d(c.scratchpad_peak_pages),
         "pages"},
        {"trace.overhead_frac", overhead_frac, "ratio"},
    };
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out + "\"";
}

void
printResult(bool correct, std::size_t attempted, std::size_t failed,
            const std::vector<Metric> &metrics)
{
    std::ostringstream os;
    os << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i)
        os << (i ? ", " : "") << jsonString(metrics[i].name)
           << ": {\"value\": " << jsonNumber(metrics[i].value)
           << ", \"unit\": " << jsonString(metrics[i].unit) << "}";
    os << "}}";
    std::cout << os.str() << std::endl;
}

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    bool selftest = false;
    double probe_rate = 0; ///< > 0: one diagnostic replication
    std::string commit = "unknown";
    std::string chrome_trace;
};

void
printContext(const Args &a)
{
    std::cout << "{\"context\": {\"workload\": " << jsonString(a.workload)
              << ", \"seed\": " << a.seed << ", \"trace\": " << a.trace
              << ", \"kernel_tier\": "
              << jsonString(sd::kernels::tierName(sd::kernels::activeTier()))
              << ", \"build_type\": " << jsonString(SERVEBENCH_BUILD_TYPE)
              << ", \"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN)
              << ", \"commit\": " << jsonString(a.commit) << "}}"
              << std::endl;
}

/** Replications of one offered rate, with their sub-seeds. */
std::vector<RunResult>
measureRate(const Workload &w, std::uint64_t seed, double rate,
            unsigned reps, std::vector<double> &setup_s)
{
    RunOptions opts;
    opts.rate = rate;
    std::vector<RunResult> out;
    for (unsigned k = 0; k < reps; ++k) {
        out.push_back(runOnce(w, replicaSeed(seed, k), opts));
        setup_s.push_back(out.back().setup_s);
    }
    return out;
}

/**
 * End-to-end run. Nominal-rate replications give the simulated
 * metrics (medians or pooled sums over them). The knee search gallops
 * from the nominal rate by kKneeGrow until the limit flips, then
 * bisects kBisectSteps times; each probe pools knee_reps replications.
 */
int
runEndToEnd(const Workload &w, const Args &a)
{
    constexpr double kKneeGrow = 1.5;
    constexpr unsigned kMaxGallop = 6;
    constexpr unsigned kBisectSteps = 3;
    const HostClock::time_point start = HostClock::now();
    std::vector<double> setup_s;
    std::vector<RunResult> nominal;
    bool deterministic = true;
    unsigned repeats = 0;

    RunOptions nominal_opts;
    nominal_opts.rate = w.nominal_rate;
    // One nominal replication: a fresh sub-seed while any remain, then
    // repeats that must reproduce their first run exactly.
    auto nominalRep = [&] {
        const bool fresh = nominal.size() < w.nominal_reps;
        const unsigned k = fresh ? static_cast<unsigned>(nominal.size())
                                 : repeats++ % w.nominal_reps;
        RunResult r = runOnce(w, replicaSeed(a.seed, k), nominal_opts);
        setup_s.push_back(r.setup_s);
        if (fresh)
            nominal.push_back(std::move(r));
        else
            deterministic = deterministic && sameSimulation(nominal[k], r);
    };
    auto meets = [&](double rate) {
        const bool ok = meetsLimit(
            w, measureRate(w, a.seed, rate, w.knee_reps, setup_s), rate);
        std::cerr << "knee probe " << rate << "/s: "
                  << (ok ? "meets" : "misses") << " the limit\n";
        return ok;
    };

    while (nominal.size() < w.nominal_reps)
        nominalRep();
    bool lo_ok = meetsLimit(w, nominal, w.nominal_rate);
    double lo = w.nominal_rate;
    double hi = w.nominal_rate;
    if (lo_ok) {
        hi = lo * kKneeGrow;
        for (unsigned g = 1; g < kMaxGallop && meets(hi); ++g) {
            lo = hi;
            hi *= kKneeGrow;
        }
    } else {
        lo = hi / kKneeGrow;
        for (unsigned g = 0; g < kMaxGallop && !(lo_ok = meets(lo)); ++g) {
            hi = lo;
            lo /= kKneeGrow;
        }
    }
    for (unsigned s = 0; lo_ok && s < kBisectSteps; ++s) {
        const double mid = std::sqrt(lo * hi);
        (meets(mid) ? lo : hi) = mid;
    }
    const double knee = lo_ok ? lo : 0;

    while (secondsSince(start) < a.seconds)
        nominalRep();

    std::vector<double> p50, p99;
    std::size_t attempted = 0, failed = 0, completed = 0, cpu = 0;
    double dram_bytes = 0;
    for (const RunResult &r : nominal) {
        const std::vector<Tick> lat = latencies(r);
        p50.push_back(usOf(percentile(lat, 0.50)));
        p99.push_back(usOf(percentile(lat, 0.99)));
        attempted += r.requests.size();
        failed += r.failed();
        completed += r.completed();
        cpu += r.onPath(Path::kCpu);
        dram_bytes += static_cast<double>(r.counts.dram_bytes);
    }
    const std::vector<Metric> metrics = {
        {"sim_p50_us", median(p50), "us"},
        {"sim_p99_us", median(p99), "us"},
        {"sim_knee_kops", knee / 1e3, "kreq/s"},
        {"dram_bytes_per_req",
         ratio(dram_bytes, static_cast<double>(completed)), "B/req"},
        {"ok_rate",
         ratio(static_cast<double>(attempted - failed),
               static_cast<double>(attempted)),
         "ratio"},
        {"setup_s", median(setup_s), "s"},
        {"peak_rss_mb", peakRssMb(), "MB"},
    };
    std::cout << "workload " << w.name << ": " << w.nominal_reps << " x "
              << w.requests << " requests at " << w.nominal_rate / 1e3
              << " kreq/s, " << failed << " failed (error_rate "
              << ratio(static_cast<double>(failed),
                       static_cast<double>(attempted))
              << "), " << cpu << " on the CPU path, " << setup_s.size()
              << " set-ups\n";
    if (!deterministic)
        std::cout << "error: repetitions of one seed diverged\n";
    printContext(a);
    printResult(deterministic, attempted, failed, metrics);
    return 0;
}

/**
 * Traced run: untraced and traced repetitions of the nominal rate
 * alternate (same seed) so trace.overhead_frac compares like with
 * like; per-layer metrics come from the traced repetition.
 */
int
runTraced(const Workload &w, const Args &a)
{
    const HostClock::time_point start = HostClock::now();
    RunOptions plain;
    plain.rate = w.nominal_rate;
    RunOptions traced = plain;
    traced.trace = true;

    std::vector<double> plain_s, traced_s, ns_per_event, req_per_s;
    const std::uint64_t seed = replicaSeed(a.seed, 0);
    RunResult base = runOnce(w, seed, plain);
    RunResult last = runOnce(w, seed, traced);
    bool deterministic = sameSimulation(base, last);
    plain_s.push_back(base.loop_s);
    traced_s.push_back(last.loop_s);
    while (plain_s.size() < 3 || secondsSince(start) < a.seconds) {
        const RunResult p = runOnce(w, seed, plain);
        last = runOnce(w, seed, traced);
        deterministic = deterministic && sameSimulation(base, p) &&
                        sameSimulation(base, last);
        plain_s.push_back(p.loop_s);
        traced_s.push_back(last.loop_s);
    }
    for (const double s : plain_s) {
        ns_per_event.push_back(s * 1e9 /
                               static_cast<double>(base.counts.events));
        req_per_s.push_back(static_cast<double>(base.completed()) / s);
    }

    const std::size_t bad_spans = spanViolations(last);
    const KernelTimes kernels = timeKernels(w, seed, last);
    const double overhead = median(traced_s) / median(plain_s) - 1;
    if (!a.chrome_trace.empty() &&
        !writeChromeTrace(a.chrome_trace, w, last))
        std::cout << "error: cannot write " << a.chrome_trace << "\n";
    std::cout << "workload " << w.name << ": traced " << traced_s.size()
              << " times, " << last.spans.size() << " spans, " << bad_spans
              << " span-sum violations\n";
    if (!deterministic)
        std::cout << "error: traced and untraced runs diverged\n";
    printContext(a);
    printResult(deterministic && bad_spans == 0, last.requests.size(),
                last.failed(),
                layerMetrics(last, median(req_per_s), median(ns_per_event),
                             overhead, kernels));
    return 0;
}

/**
 * Diagnostic: one replication at an arbitrary offered rate, summarised
 * on one line (no result JSON). Used to reproduce the findings in
 * README.md.
 */
int
probe(const Workload &w, const Args &a)
{
    RunOptions opts;
    opts.rate = a.probe_rate;
    const RunResult r = runOnce(w, replicaSeed(a.seed, 0), opts);
    const std::vector<Tick> lat = latencies(r);
    std::int64_t first_failed = -1;
    for (std::size_t i = 0; i < r.requests.size() && first_failed < 0; ++i)
        if (r.requests[i].path == Path::kDevice && !r.requests[i].bytes_ok)
            first_failed = static_cast<std::int64_t>(i);
    std::cout << w.name << " at " << a.probe_rate << " req/s offered: "
              << r.requests.size() << " requests, " << r.failed()
              << " failed (first wrong bytes at request " << first_failed
              << "), " << r.onPath(Path::kCpu) << " on the CPU path, "
              << "achieved " << r.achievedRate() << " req/s, p50 "
              << usOf(percentile(lat, 0.5)) << " us, p99 "
              << usOf(percentile(lat, 0.99)) << " us, max "
              << usOf(lat.empty() ? 0 : lat.back()) << " us, "
              << r.counts.force_recycles << " Force-Recycles, "
              << r.counts.alert_n << " ALERT_N, "
              << r.counts.rejected_registrations
              << " rejected registrations" << std::endl;
    return 0;
}

// ----- self-tests -----------------------------------------------------------

/** A workload scaled down for the self-tests. */
Workload
small(const std::string &name, std::size_t requests)
{
    Workload w = *findWorkload(name);
    w.requests = requests;
    return w;
}

bool
expect(bool ok, const std::string &what)
{
    std::cout << (ok ? "PASS " : "FAIL ") << what << "\n";
    return ok;
}

int
selfTest()
{
    bool ok = true;
    for (const std::string &name : workloadNames()) {
        const Workload w = small(name, 300);
        RunOptions opts;
        opts.rate = w.nominal_rate;

        // A flipped result byte is counted as exactly one more failure.
        const RunResult clean = runOnce(w, 7, opts);
        std::int64_t victim = -1;
        for (std::size_t i = 0; i < clean.requests.size() && victim < 0; ++i)
            if (clean.requests[i].path == Path::kDevice &&
                clean.requests[i].bytes_ok)
                victim = static_cast<std::int64_t>(i);
        RunOptions corrupt = opts;
        corrupt.corrupt_request = victim;
        const RunResult flipped = runOnce(w, 7, corrupt);
        ok &= expect(victim >= 0 && flipped.failed() == clean.failed() + 1 &&
                         !flipped.requests[static_cast<std::size_t>(victim)]
                              .bytes_ok,
                     name + ": one flipped result byte counts one failure");

        // Same seed, same simulation; another seed, other arrivals.
        const RunResult again = runOnce(w, 7, opts);
        ok &= expect(sameSimulation(clean, again),
                     name + ": same seed repeats every simulated record "
                            "and layer count");
        const RunResult other = runOnce(w, 8, opts);
        bool arrivals_differ = false;
        for (std::size_t i = 0; i < other.requests.size(); ++i)
            arrivals_differ |=
                other.requests[i].arrival != clean.requests[i].arrival;
        ok &= expect(arrivals_differ, name + ": another seed changes arrivals");

        // Traced: exclusive spans tile each request's latency exactly,
        // and tracing does not perturb the simulation.
        RunOptions traced = opts;
        traced.trace = true;
        const RunResult t = runOnce(w, 7, traced);
        ok &= expect(spanViolations(t) == 0 && t.completed() > 0,
                     name + ": per-request spans sum to the latency");
        ok &= expect(sameSimulation(clean, t),
                     name + ": tracing leaves the simulation unchanged");

        // The span check itself rejects a broken tiling.
        RunResult broken = t;
        for (SpanRecord &s : broken.spans)
            if (std::strcmp(s.name, "compcpy.op") == 0) {
                s.end += 1;
                break;
            }
        ok &= expect(spanViolations(broken) > 0,
                     name + ": span check catches a one-tick gap");
    }
    std::cout << (ok ? "selftest passed" : "selftest FAILED") << std::endl;
    return ok ? 0 : 1;
}

bool
parseArgs(int argc, char **argv, Args &a)
{
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--selftest") {
            a.selftest = true;
            continue;
        }
        if (i + 1 >= argc)
            return false;
        const std::string v = argv[++i];
        if (flag == "--workload")
            a.workload = v;
        else if (flag == "--seed")
            a.seed = std::strtoull(v.c_str(), nullptr, 10);
        else if (flag == "--seconds")
            a.seconds = std::strtod(v.c_str(), nullptr);
        else if (flag == "--trace")
            a.trace = v == "1";
        else if (flag == "--commit")
            a.commit = v;
        else if (flag == "--chrome-trace")
            a.chrome_trace = v;
        else if (flag == "--probe-rate")
            a.probe_rate = std::strtod(v.c_str(), nullptr);
        else
            return false;
    }
    return true;
}

} // namespace
} // namespace servebench

int
main(int argc, char **argv)
{
    using namespace servebench;
    Args a;
    if (!parseArgs(argc, argv, a)) {
        std::cerr << "usage: servebench --workload NAME --seed N "
                     "--seconds S --trace 0|1 | --selftest\n";
        return 2;
    }
    if (a.selftest)
        return selfTest();
    const Workload *w = findWorkload(a.workload);
    if (!w) {
        std::cerr << "unknown workload '" << a.workload << "'; known:";
        for (const std::string &n : workloadNames())
            std::cerr << " " << n;
        std::cerr << "\n";
        return 2;
    }
    if (a.probe_rate > 0)
        return probe(*w, a);
    return a.trace ? runTraced(*w, a) : runEndToEnd(*w, a);
}
