/**
 * @file
 * Ablation: cost of the observability subsystem (sim::obs).
 *
 * Runs one full BMcast deployment per mode and enforces the obs
 * design contract:
 *
 *  - disarmed:  the instrumented build with no tracer armed. Every
 *               probe costs one branch on a cached bool.
 *  - disarmed2: a second disarmed run. Must finish at the exact same
 *               tick with the exact same kernel counters — the
 *               baseline for the identity check.
 *  - armed:     tracer + metrics registry armed for the whole run.
 *               Must STILL finish at the exact same tick with the
 *               exact same scheduled/executed counts: tracing
 *               observes the simulation without perturbing it
 *               (simulated overhead = 0, enforced; the binary exits
 *               nonzero on any divergence).
 *
 * The armed run's wall-clock delta over the disarmed one, divided by
 * the number of records written, gives the real-time cost per trace
 * event. Emits machine-readable BENCH_obs.json; `--smoke` shrinks
 * the image for the bench-smoke ctest label.
 */

#include <chrono>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench/harness.hh"
#include "simcore/table.hh"

namespace {

struct Result
{
    std::string name;
    bool ok = false;
    sim::Tick bareTick = 0;
    std::uint64_t scheduled = 0;
    std::uint64_t executed = 0;
    std::uint64_t wallNs = 0;
    std::uint64_t recorded = 0;
    std::uint64_t milestones = 0;
    std::uint64_t rttSamples = 0;

    /** Uniform cross-bench scaling record for trajectory tooling. */
    bench::ScaleRecord
    rec() const
    {
        bench::ScaleRecord s;
        s.nodes = 1;
        s.shards = 1;
        s.wallMs = static_cast<double>(wallNs) / 1e6;
        s.events = executed;
        s.eventsPerSec =
            wallNs > 0 ? static_cast<double>(executed) /
                             (static_cast<double>(wallNs) / 1e9)
                       : 0.0;
        return s;
    }
};

Result
runOnce(const char *name, bool armed, sim::Lba imageSectors)
{
    Result r;
    r.name = name;

    bench::Testbed tb(1, hw::StorageKind::Ahci, imageSectors);

    std::unique_ptr<obs::Tracer> tracer;
    obs::Registry reg;
    if (armed) {
        tracer = std::make_unique<obs::Tracer>();
        obs::arm(tracer.get());
        obs::setClock(
            [](const void *ctx) {
                return static_cast<const sim::EventQueue *>(ctx)
                    ->now();
            },
            &tb.eq);
        obs::setMetrics(&reg);
    }

    bmcast::BmcastDeployer dep(tb.eq, "dep", tb.machine(), tb.guest(),
                               {bench::kServerMac}, imageSectors,
                               bench::paperVmmParams(), false);
    dep.run([]() {});

    const auto t0 = std::chrono::steady_clock::now();
    bool done = tb.runUntil(500000 * sim::kSec,
                            [&]() { return dep.bareMetalReached(); });
    const auto t1 = std::chrono::steady_clock::now();

    r.ok = done &&
           tb.machine().disk().store().rangeHasBase(
               0, imageSectors, bench::kImageBase);
    r.bareTick = dep.timeline().bareMetal;
    r.scheduled = tb.eq.counters().scheduled;
    r.executed = tb.eq.counters().executed;
    r.wallNs = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
            .count());

    if (armed) {
        r.recorded = tracer->recorded();
        r.milestones = tracer->milestones().size();
        r.ok = r.ok && tracer->nestingViolations() == 0;
        if (const obs::Histogram *h =
                reg.findHistogram("aoe.rtt_ns", "dep.vmm.aoe"))
            r.rttSamples = h->count();
        obs::setMetrics(nullptr);
        obs::disarm();
    }
    return r;
}

} // namespace

int
main(int argc, char **argv)
{
    bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
    const sim::Lba image_sectors =
        (smoke ? 128 * sim::kMiB : 2 * sim::kGiB) / sim::kSectorSize;

    bench::figureHeader(
        "Ablation: observability overhead (sim::obs)");
    std::cout << "image: "
              << (image_sectors * sim::kSectorSize) / sim::kMiB
              << " MiB" << (smoke ? " (smoke)" : "") << "\n";

    std::vector<Result> rows;
    rows.push_back(runOnce("disarmed", false, image_sectors));
    rows.push_back(runOnce("disarmed2", false, image_sectors));
    rows.push_back(runOnce("armed", true, image_sectors));

    sim::Table t({"Mode", "OK", "Bare metal (s)", "Scheduled",
                  "Executed", "Wall (ms)", "Records"});
    for (const auto &r : rows)
        t.addRow({r.name, r.ok ? "yes" : "NO",
                  sim::Table::num(sim::toSeconds(r.bareTick), 2),
                  std::to_string(r.scheduled),
                  std::to_string(r.executed),
                  sim::Table::num(r.wallNs / 1e6, 1),
                  std::to_string(r.recorded)});
    t.print(std::cout);

    // The contract, enforced: neither a second disarmed run nor an
    // armed run may change a single simulated tick or event count.
    const Result &base = rows[0];
    const Result &rerun = rows[1];
    const Result &armed = rows[2];
    const bool repeatable = base.bareTick == rerun.bareTick &&
                            base.scheduled == rerun.scheduled &&
                            base.executed == rerun.executed;
    const bool transparent = base.bareTick == armed.bareTick &&
                             base.scheduled == armed.scheduled &&
                             base.executed == armed.executed;
    std::cout << "\ndisarmed runs identical:           "
              << (repeatable ? "yes" : "NO")
              << "\narmed run simulated-tick identical: "
              << (transparent ? "yes" : "NO") << "\n";

    const double wall_base =
        (static_cast<double>(base.wallNs) +
         static_cast<double>(rerun.wallNs)) /
        2.0;
    const double delta = static_cast<double>(armed.wallNs) - wall_base;
    const double per_event =
        armed.recorded > 0
            ? delta / static_cast<double>(armed.recorded)
            : 0.0;
    std::cout << "armed tracing recorded " << armed.recorded
              << " events (" << armed.milestones << " milestones, "
              << armed.rttSamples << " RTT samples), wall overhead "
              << sim::Table::num(delta / 1e6, 1) << " ms ("
              << sim::Table::num(per_event, 1) << " ns/event)\n";

    std::ofstream json("BENCH_obs.json");
    json << "{\n  \"bench\": \"abl_obs\",\n"
         << "  \"image_mib\": "
         << (image_sectors * sim::kSectorSize) / sim::kMiB << ",\n"
         << "  \"disarmed_repeatable\": "
         << (repeatable ? "true" : "false") << ",\n"
         << "  \"armed_tick_identical\": "
         << (transparent ? "true" : "false") << ",\n"
         << "  \"bare_metal_sec\": "
         << sim::toSeconds(base.bareTick) << ",\n"
         << "  \"events_recorded\": " << armed.recorded << ",\n"
         << "  \"milestones\": " << armed.milestones << ",\n"
         << "  \"rtt_samples\": " << armed.rttSamples << ",\n"
         << "  \"wall_ns_disarmed\": "
         << static_cast<std::uint64_t>(wall_base) << ",\n"
         << "  \"wall_ns_armed\": " << armed.wallNs << ",\n"
         << "  \"armed_overhead_ns_per_event\": "
         << sim::Table::num(per_event, 2) << ",\n";
    std::vector<bench::ScaleRecord> recs;
    for (const auto &r : rows)
        recs.push_back(r.rec());
    json << "  " << bench::scaleRecordsJson(recs, "  ") << "\n}\n";
    json.close();
    std::cout << "wrote BENCH_obs.json\n";

    bool ok = repeatable && transparent && armed.recorded > 0;
    for (const auto &r : rows)
        ok = ok && r.ok;
    return ok ? 0 : 1;
}
