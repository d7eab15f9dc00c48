/**
 * @file
 * cloudbench: one workload of the BMcast cloud benchmark.
 *
 *   cloudbench --workload NAME --seed N --seconds S --trace 0|1
 *              [--out DIR] [--git-sha SHA] [--src-digest HEX]
 *
 * The seed yields a fixed set of scenarios (independent regions).
 * After one untimed warm-up run and a few timed region builds per
 * scenario, rounds run every scenario once, with a fresh region each
 * time, until S seconds of host time have passed (at least one
 * round). Simulated metrics pool the scenarios of one round and must
 * repeat exactly in every later round. setup_s is the median build;
 * wall_s takes each scenario's fastest repetition. With --trace 1
 * untraced and traced rounds alternate, and the per-layer metrics
 * are reported instead of the end-to-end ones. The last stdout line
 * is one JSON object: correct, attempted, failed, metrics. Exit status: 0 when every correctness check passed, 1
 * when one failed, 2 on bad arguments.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "simcore/logging.hh"
#include "world.hh"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

using namespace perfbench;

namespace {

/** One reported metric: its name and unit. */
struct MetricDef
{
    const char *name;
    const char *unit;
};

/** End-to-end metrics with a bound (BENCHMARK.json): non-zero and
 *  steady on every workload. */
const std::vector<MetricDef> kEndToEnd = {
    {"setup_s", "s"},
    {"peak_rss_mib", "MiB"},
    {"serve_p50_s", "s"},
    {"serve_tail_s", "s"},
    {"baremetal_p50_s", "s"},
    {"seed_bytes_per_gib", "B/GiB"},
};

/**
 * End-to-end metrics printed on every run but reported, without a
 * bound, with the per-layer metrics: those only some workloads
 * exercise (a bound needs a non-zero value on every workload), and
 * those whose seed-to-seed spread is wider than any bound the
 * benchmark may set: wall_s on a shared host, and baremetal_tail_s,
 * which lands on the slowest storm of a run, and storms now and then
 * fall into a slow mode of AoE retransmissions.
 */
const std::vector<MetricDef> kUnboundedEndToEnd = {
    {"wall_s", "s"},
    {"baremetal_tail_s", "s"},
    {"failed_frac", "ratio"},
    {"guest_io_p50_ms", "ms"},
    {"guest_io_tail_ms", "ms"},
    {"migration_downtime_p50_ms", "ms"},
    {"repair_heal_s", "s"},
};

/** Per-layer metrics, grouped by the module they describe. */
const std::vector<MetricDef> kPerLayer = {
    // simcore
    {"events", "count"},
    {"events_per_gib", "1/GiB"},
    {"ns_per_event", "ns"},
    {"cancel_frac", "ratio"},
    {"tombstones", "count"},
    {"peak_pending", "count"},
    {"spilled_callbacks", "count"},
    {"host_simcore_self_s", "s"},
    // hw
    {"timer_exits", "count"},
    {"timer_event_frac", "ratio"},
    {"io_exits", "count"},
    {"vmm_stolen_cpu_s", "s"},
    {"disk_busy_frac", "ratio"},
    {"disk_seeks", "count"},
    {"disk_cache_hits", "count"},
    {"disk_media_retries", "count"},
    // net
    {"frames_forwarded", "count"},
    {"wire_bytes", "B"},
    {"frames_dropped", "count"},
    {"uplink_frames", "count"},
    {"uplink_drops", "count"},
    // aoe
    {"aoe_requests", "count"},
    {"aoe_retx_frac", "ratio"},
    {"aoe_terminal_errors", "count"},
    {"aoe_rtt_ema_us", "us"},
    {"aoe_server_busy_frac", "ratio"},
    {"aoe_server_bytes_out", "B"},
    // store
    {"seed_fetches", "count"},
    {"peer_hits", "count"},
    {"peer_hit_frac", "ratio"},
    {"reconstructions", "count"},
    {"source_failures", "count"},
    {"no_source_stalls", "count"},
    {"store_gate_waits", "count"},
    {"dedup_hits", "count"},
    {"unique_chunks", "count"},
    {"repair_jobs", "count"},
    {"repair_wire_bytes", "B"},
    {"repair_useful_frac", "ratio"},
    // bmcast: phase split of submit -> bare metal (means per lease)
    {"admission_s", "s"},
    {"dispatch_s", "s"},
    {"firmware_s", "s"},
    {"vmm_boot_s", "s"},
    {"guest_boot_s", "s"},
    {"copy_tail_s", "s"},
    {"devirt_s", "s"},
    {"baremetal_mean_s", "s"},
    {"copy_before_boot_frac", "ratio"},
    // bmcast: mediators, background copy, failover
    {"redirected_reads", "count"},
    {"redirected_sectors", "count"},
    {"mixed_redirects", "count"},
    {"vmm_ops", "count"},
    {"queued_guest_writes", "count"},
    {"dummy_restarts", "count"},
    {"copy_bytes", "B"},
    {"copy_skipped_blocks", "count"},
    {"copy_suspensions", "count"},
    {"copy_gate_waits", "count"},
    {"copy_degrades", "count"},
    {"failovers", "count"},
    {"fetch_errors", "count"},
    // cloud
    {"admission_wait_p50_s", "s"},
    {"admission_wait_tail_s", "s"},
    {"queue_peak", "count"},
    {"rejected", "count"},
    {"throttle_s", "s"},
    {"grants", "count"},
    {"scavenger_delay_s", "s"},
    {"submit_us", "us"},
    {"release_us", "us"},
    {"host_cloud_self_s", "s"},
    // guest
    {"boot_read_mib", "MiB"},
    {"blk_ops", "count"},
    {"blk_mean_us", "us"},
    {"host_guest_self_s", "s"},
    // migrate
    {"mig_started", "count"},
    {"mig_skipped", "count"},
    {"mig_rounds", "count"},
    {"mig_bytes_shipped", "B"},
    {"mig_final_bytes", "B"},
    {"mig_forced_stops", "count"},
    {"mig_aborted", "count"},
    // obs
    {"trace_overhead_frac", "ratio"},
    {"trace_spans", "count"},
};

/** Dedicated set-up builds per scenario. */
constexpr unsigned kSetupReps = 5;

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    int trace = 0;
    std::string out;
    std::string gitSha = "unknown";
    std::string srcDigest = "unknown";
};

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "cloudbench: " << why
              << "\nusage: cloudbench --workload "
                 "deploy_storm|io_during_deploy|elastic_churn --seed N "
                 "--seconds S --trace 0|1 [--out DIR] [--git-sha SHA] "
                 "[--src-digest HEX]\n";
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        std::string k = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + k);
        std::string v = argv[++i];
        try {
            std::size_t used = 0;
            if (k == "--workload")
                a.workload = v;
            else if (k == "--seed") {
                a.seed = std::stoull(v, &used);
                if (used != v.size())
                    usage("bad --seed " + v);
            } else if (k == "--seconds") {
                a.seconds = std::stod(v, &used);
                if (used != v.size() || !(a.seconds > 0))
                    usage("bad --seconds " + v);
            } else if (k == "--trace") {
                if (v != "0" && v != "1")
                    usage("--trace takes 0 or 1");
                a.trace = v == "1";
            } else if (k == "--out")
                a.out = v;
            else if (k == "--git-sha")
                a.gitSha = v;
            else if (k == "--src-digest")
                a.srcDigest = v;
            else
                usage("unknown argument " + k);
        } catch (const std::exception &) {
            usage("bad value for " + k + ": " + v);
        }
    }
    return a;
}

double
peakRssMib()
{
    struct rusage ru {};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

/**
 * The wall time of the workload: per scenario the fastest of its
 * repetitions, then the mean over the scenarios (which evens out how
 * much work each sub-seed drew). Other tenants of a shared host only
 * ever add time, so the fastest repetition is the steadiest estimate
 * of the program's own cost. @p v holds whole rounds, scenario k at
 * every index i with i % scenarios == k.
 */
double
perScenario(const std::vector<IterResult> &v, double IterResult::*field,
            std::size_t scenarios)
{
    double sum = 0.0;
    for (std::size_t k = 0; k < scenarios; ++k) {
        double best = v[k].*field;
        for (std::size_t i = k; i < v.size(); i += scenarios)
            best = std::min(best, v[i].*field);
        sum += best;
    }
    return sum / static_cast<double>(scenarios);
}

/** One fingerprint over every scenario's simulated results. */
std::uint64_t
combinedFp(const std::vector<std::uint64_t> &fps)
{
    return fnv1a(kFnvBasis, fps.data(), fps.size() * sizeof fps[0]);
}

} // namespace

int
main(int argc, char **argv)
{
    Args args = parseArgs(argc, argv);
    Workload w;
    if (!parseWorkload(args.workload, w))
        usage("unknown workload '" + args.workload + "'");
    sim::setLogLevel(sim::LogLevel::Warn);

    const std::vector<Plan> plans = makePlans(w, args.seed);
    const unsigned threads = std::thread::hardware_concurrency();
    std::ostringstream stamp;
    stamp << "{\"workload\":" << jstr(args.workload)
          << ",\"seed\":" << args.seed << ",\"trace\":" << args.trace
          << ",\"scenarios\":" << plans.size()
          << ",\"git_sha\":" << jstr(args.gitSha)
          << ",\"src_digest\":" << jstr(args.srcDigest)
          << ",\"build_type\":" << jstr(PERFBENCH_BUILD_TYPE)
          << ",\"hardware_threads\":" << threads
          << ",\"run_seconds\":" << jnum(args.seconds) << "}";
    std::cout << "stamp " << stamp.str() << std::endl;

    // Rounds run every scenario once, until the requested host time
    // has passed. In traced mode untraced and traced rounds
    // alternate, so both see the same host conditions; every
    // repetition of a scenario must reproduce its simulated results.
    std::vector<IterResult> plain, traced;
    // Host-side per-layer timings of the traced repetitions (keys
    // exist even when round 0 fails before any traced round).
    std::map<std::string, std::vector<double>> layerHost;
    for (const char *k : {"ns_per_event", "submit_us", "release_us",
                          "host_simcore_self_s", "host_cloud_self_s",
                          "host_guest_self_s", "trace_spans"})
        layerHost[k];
    Probes lastSpans;
    std::vector<std::string> errors;
    std::vector<std::uint64_t> fps(plans.size(), 0);
    unsigned rounds = 0;
    // Warm-up: one untimed run of the first scenario fills the
    // allocator's pools and the caches before any timing counts. It
    // sets the reference fingerprint that scenario's later
    // repetitions must reproduce.
    {
        Probes spans;
        IterResult r = runIteration(plans[0], spans);
        for (const auto &e : r.errors)
            errors.push_back("warm-up: " + e);
        fps[0] = simFingerprint(r);
    }
    // Set-up alone, a few times per scenario, so setup_s is a median
    // over many builds even when the run has a single round.
    std::vector<double> setups;
    for (unsigned rep = 0; rep < kSetupReps; ++rep)
        for (const Plan &p : plans)
            setups.push_back(setupSeconds(p));
    auto t0 = std::chrono::steady_clock::now();
    for (;; ++rounds) {
        const bool tracing = args.trace && rounds % 2 == 1;
        for (std::size_t k = 0; k < plans.size(); ++k) {
            Probes spans;
            if (tracing)
                spans.arm();
            IterResult r = runIteration(plans[k], spans);
            const std::string where = "round " + std::to_string(rounds) +
                                      " scenario " + std::to_string(k);
            for (const auto &e : r.errors)
                errors.push_back(where + ": " + e);
            const std::uint64_t fp = simFingerprint(r);
            if (rounds == 0 && k > 0)
                fps[k] = fp;
            else if (fp != fps[k])
                errors.push_back(where + (tracing ? " (traced)" : "") +
                                 ": simulated results differ from round "
                                 "0 under the same seed");
            if (tracing && spans.dropped())
                errors.push_back(where + ": the trace ring overflowed");
            if (tracing) {
                layerHost["ns_per_event"].push_back(r.nsPerEvent);
                layerHost["submit_us"].push_back(
                    spans.meanUs("cloud.submitLease"));
                layerHost["release_us"].push_back(
                    spans.meanUs("cloud.release"));
                auto self = spans.selfNsByLayer();
                for (const char *l : {"simcore", "cloud", "guest"})
                    layerHost[std::string("host_") + l + "_self_s"]
                        .push_back(self[l] / 1e9);
                layerHost["trace_spans"].push_back(
                    static_cast<double>(spans.spanCount()));
                lastSpans = std::move(spans);
            }
            (tracing ? traced : plain).push_back(std::move(r));
        }
        const double el = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - t0)
                              .count();
        if (!errors.empty() ||
            (el >= args.seconds && (!args.trace || !traced.empty())))
            break;
    }

    std::vector<const IterResult *> firstRound;
    for (std::size_t k = 0; k < plans.size(); ++k)
        firstRound.push_back(&plain[k]);
    const Summary sum = summarize(firstRound);
    const std::map<std::string, double> &sim = sum.sim;
    std::map<std::string, double> host;
    const std::size_t nsc = plans.size();
    // Set-up is the median over the dedicated builds and every
    // untraced repetition's build.
    for (const IterResult &r : plain)
        setups.push_back(r.setupS);
    host["setup_s"] = median(setups);
    host["wall_s"] = perScenario(plain, &IterResult::wallS, nsc);
    host["peak_rss_mib"] = peakRssMib();
    if (args.trace) {
        for (const auto &[k, v] : layerHost)
            host[k] = median(v);
        // No traced round completes when round 0 already failed.
        host["trace_overhead_frac"] =
            traced.size() < nsc
                ? 0.0
                : perScenario(traced, &IterResult::wallS, nsc) /
                          host["wall_s"] -
                      1.0;
    }
    auto value = [&](const std::string &name) {
        auto h = host.find(name);
        return h != host.end() ? h->second : sim.at(name);
    };

    // Human-readable report.
    std::printf("workload %s seed %llu: %zu scenarios x %u rounds "
                "(%zu traced repetitions), simulated fingerprint %016llx\n",
                args.workload.c_str(),
                static_cast<unsigned long long>(args.seed), plans.size(),
                rounds + 1, traced.size(),
                static_cast<unsigned long long>(combinedFp(fps)));
    auto line = [&](const MetricDef &d) {
        std::printf("  %-28s %16.6g %s", d.name, value(d.name), d.unit);
        auto t = sum.tails.find(d.name);
        if (t != sum.tails.end() && t->second.count == 0)
            std::printf("  (no samples)");
        else if (t != sum.tails.end())
            std::printf("  (p%g of n=%zu)", t->second.percentile,
                        t->second.count);
        std::printf("\n");
    };
    std::printf("end-to-end:\n");
    for (const auto &d : kEndToEnd)
        line(d);
    for (const auto &d : kUnboundedEndToEnd)
        line(d);
    if (args.trace) {
        std::printf("per-layer:\n");
        for (const auto &d : kPerLayer)
            line(d);
    }
    for (const auto &e : errors)
        std::printf("ERROR %s\n", e.c_str());

    // Files: the full result record, and the traced run's spans.
    const bool correct = errors.empty();
    std::ostringstream metrics;
    metrics << "{";
    bool firstMetric = true;
    auto emit = [&](const MetricDef &d) {
        metrics << (firstMetric ? "" : ", ") << jstr(d.name)
                << ": {\"value\": " << jnum(value(d.name))
                << ", \"unit\": " << jstr(d.unit) << "}";
        firstMetric = false;
    };
    if (args.trace) {
        for (const auto &d : kUnboundedEndToEnd)
            emit(d);
        for (const auto &d : kPerLayer)
            emit(d);
    } else {
        for (const auto &d : kEndToEnd)
            emit(d);
    }
    metrics << "}";

    if (!args.out.empty()) {
        const std::string base = args.out + "/" + args.workload + "-seed" +
                                 std::to_string(args.seed) + "-trace" +
                                 std::to_string(args.trace);
        std::ofstream f(base + ".json");
        f << "{\"stamp\": " << stamp.str() << ",\n \"fingerprint\": \""
          << std::hex << combinedFp(fps) << std::dec
          << "\",\n \"simulated\": {";
        bool firstSim = true;
        for (const auto &[k, v] : sim) {
            f << (firstSim ? "" : ", ") << jstr(k) << ": " << jnum(v);
            firstSim = false;
        }
        f << "},\n \"tails\": {";
        bool firstTail = true;
        for (const auto &[k, t] : sum.tails) {
            f << (firstTail ? "" : ", ") << jstr(k)
              << ": {\"value\": " << jnum(t.value)
              << ", \"percentile\": " << jnum(t.percentile)
              << ", \"count\": " << t.count << "}";
            firstTail = false;
        }
        f << "},\n \"host\": {";
        bool firstHost = true;
        for (const auto &[k, v] : host) {
            f << (firstHost ? "" : ", ") << jstr(k) << ": " << jnum(v);
            firstHost = false;
        }
        f << "},\n \"rounds\": " << rounds + 1
          << ",\n \"correct\": " << (correct ? "true" : "false") << "}\n";
        if (args.trace)
            lastSpans.write(base);
    }

    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": %s}\n",
                correct ? "true" : "false",
                static_cast<unsigned long long>(sum.attempted),
                static_cast<unsigned long long>(sum.failed),
                metrics.str().c_str());
    return correct ? 0 : 1;
}
