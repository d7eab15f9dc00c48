/**
 * @file
 * Ablation: the bmcast::store tier under concurrent deployments.
 *
 * Three experiments on a Cloud region:
 *
 *  - scaling:  N in {1, 2, 4, 8} staggered deployments of one image,
 *              legacy single-server path vs the store tier (erasure
 *              stripe over the seed pool + peer-assisted streaming).
 *              The store's aggregate deployment throughput must scale
 *              superlinearly relative to the single-server baseline
 *              as N grows: the baseline serializes on one server
 *              while warm peers turn every finished node into a
 *              source.
 *  - degraded: one seed server down for the whole run; every
 *              deployment must complete via k-of-n reconstruction
 *              with byte-identical images.
 *  - disabled: store params touched but enabled=false must replay
 *              the legacy path tick for tick (the default-off
 *              contract the figure benches rely on).
 *
 * Every deployment is verified byte-identical against the image
 * catalog. Emits BENCH_store.json; `--smoke` shrinks the image for
 * the bench-smoke ctest label.
 */

#include <algorithm>
#include <chrono>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench/harness.hh"
#include "bmcast/cloud.hh"
#include "simcore/table.hh"
#include "store/streamer.hh"

namespace {

constexpr std::uint64_t kBase = 0xABCD000000000001ULL;
/** Deployment-storm arrivals: near-simultaneous, slightly staggered
 *  (the paper's elasticity scenario — many nodes at once). */
constexpr sim::Tick kArrivalStagger = 250 * sim::kMs;

struct FleetResult
{
    unsigned n = 0;
    bool ok = false;
    double makespanSec = 0.0; //!< first power-on to last bare-metal
    double aggTputMBps = 0.0; //!< N * image bytes / makespan
    std::uint64_t peerHits = 0;
    std::uint64_t seedFetches = 0;
    std::uint64_t reconstructions = 0;
    std::uint64_t executed = 0;
    sim::Tick endTick = 0;
    double wallMs = 0.0;
};

bmcast::CloudConfig
regionConfig(unsigned machines, bool store_on)
{
    bmcast::CloudConfig cfg;
    cfg.machines = machines;
    cfg.machineTemplate.disk.capacityBytes = 2 * sim::kGiB;
    // Keep fixed per-deployment costs (VMM boot, guest boot, write
    // pacing) small so the fetch path — the quantity this ablation
    // varies — bounds deployment time.
    cfg.vmm.bootTime = 500 * sim::kMs;
    cfg.vmm.moderation.vmmWriteInterval = 2 * sim::kMs;
    cfg.vmm.moderation.guestIoFreqThreshold = 1e9;
    cfg.guestTemplate.boot.loaderBytes = 512 * sim::kKiB;
    cfg.guestTemplate.boot.kernelBytes = 2 * sim::kMiB;
    cfg.guestTemplate.boot.numReads = 50;
    cfg.guestTemplate.boot.cpuTotal = 500 * sim::kMs;
    cfg.guestTemplate.boot.regionBytes = 8 * sim::kMiB;
    cfg.store.enabled = store_on;
    // BMCAST_CODE=flat-rs | lrc | hitchhiker swaps the stripe
    // algebra without a recompile; LRC widens the stripe (local
    // parities ride on top of the globals), so grow the seed pool to
    // fit the code's width.
    cfg.store.code =
        bench::envCodeKind("BMCAST_CODE", store::ec::CodeKind::FlatRs);
    const unsigned width =
        store::ec::makeCode(cfg.store.code,
                            store::ec::CodeParams{
                                cfg.store.dataShards,
                                cfg.store.parityShards,
                                cfg.store.lrcGroups,
                                store::kDecodePenalty})
            ->width();
    cfg.store.seedServers = std::max(cfg.store.seedServers, width);
    return cfg;
}

FleetResult
runFleet(unsigned n, bool store_on, bool kill_seed,
         sim::Bytes image_bytes)
{
    sim::EventQueue eq;
    bmcast::Cloud cloud(eq, "region", regionConfig(n, store_on));
    cloud.addImage("img", image_bytes, kBase);
    if (kill_seed)
        cloud
            .seedServer(
                static_cast<unsigned>(cloud.seedServerCount() - 1))
            .crash();

    std::vector<bmcast::Instance *> fleet(n, nullptr);
    for (unsigned i = 0; i < n; ++i) {
        eq.schedule(i * kArrivalStagger, [&cloud, &fleet, i]() {
            fleet[i] = cloud.provision("img", nullptr);
        });
    }

    auto all_bare = [&]() {
        for (unsigned i = 0; i < n; ++i) {
            if (!fleet[i] ||
                fleet[i]->state() != bmcast::Instance::State::BareMetal)
                return false;
        }
        return true;
    };
    auto t0 = std::chrono::steady_clock::now();
    eq.stepWhile(
        [&]() { return !all_bare() && eq.now() < 500000 * sim::kSec; });
    auto t1 = std::chrono::steady_clock::now();

    FleetResult r;
    r.n = n;
    r.wallMs =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    r.ok = all_bare();
    const sim::Lba image_sectors = image_bytes / sim::kSectorSize;
    sim::Tick last_bare = 0;
    for (unsigned i = 0; i < n && r.ok; ++i) {
        bmcast::Instance *inst = fleet[i];
        last_bare = std::max(last_bare,
                             inst->deployer().timeline().bareMetal);
        r.ok = r.ok && inst->machine().disk().store().rangeHasBase(
                           0, image_sectors, kBase);
        if (store::StoreFabric *f = cloud.storeFabric()) {
            r.ok = r.ok && f->catalog().verifyDisk(
                               "img", inst->machine().disk().store());
        }
        if (store::ChunkStreamer *s =
                inst->deployer().vmm().streamer()) {
            r.peerHits += s->peerHits();
            r.seedFetches += s->seedFetches();
            r.reconstructions += s->reconstructions();
        }
    }
    r.makespanSec = sim::toSeconds(last_bare);
    if (r.makespanSec > 0.0) {
        r.aggTputMBps =
            static_cast<double>(n) *
            (static_cast<double>(image_bytes) / sim::kMiB) /
            r.makespanSec;
    }
    r.executed = eq.executed();
    r.endTick = eq.now();
    return r;
}

/** Legacy run, optionally with every store knob touched while
 *  enabled stays false; touched and pristine runs must be
 *  tick-identical. */
FleetResult
runDisabled(sim::Bytes image_bytes, bool touched)
{
    sim::EventQueue eq;
    bmcast::CloudConfig cfg = regionConfig(1, false);
    if (touched) {
        cfg.store.seedServers = 5;
        cfg.store.dataShards = 3;
        cfg.store.parityShards = 1;
        cfg.store.shardMinTimeout = 7 * sim::kMs;
    }
    bmcast::Cloud cloud(eq, "region", cfg);
    cloud.addImage("img", image_bytes, kBase);
    bmcast::Instance *a = cloud.provision("img", nullptr);
    eq.stepWhile([&]() {
        return a->state() != bmcast::Instance::State::BareMetal &&
               eq.now() < 500000 * sim::kSec;
    });
    FleetResult r;
    r.n = 1;
    r.ok = a->state() == bmcast::Instance::State::BareMetal;
    r.executed = eq.executed();
    r.endTick = eq.now();
    return r;
}

} // namespace

int
main(int argc, char **argv)
{
    bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
    const sim::Bytes image_bytes =
        smoke ? 64 * sim::kMiB : 256 * sim::kMiB;

    bench::figureHeader(
        "Ablation: content-addressed store, erasure stripe and "
        "peer-assisted streaming");
    std::cout << "image: " << image_bytes / sim::kMiB << " MiB"
              << (smoke ? " (smoke)" : "") << ", arrival stagger: "
              << sim::toSeconds(kArrivalStagger) << " s, code: "
              << store::ec::codeKindName(bench::envCodeKind(
                     "BMCAST_CODE", store::ec::CodeKind::FlatRs))
              << "\n";

    // Fleet sizes come from the environment (BMCAST_NODES=16,32,...)
    // so storm sweeps need no recompile.
    const std::vector<unsigned> fleet_sizes =
        bench::envUnsignedList("BMCAST_NODES", {1, 2, 4, 8});
    std::vector<FleetResult> legacy, stored;
    for (unsigned n : fleet_sizes) {
        legacy.push_back(runFleet(n, false, false, image_bytes));
        stored.push_back(runFleet(n, true, false, image_bytes));
    }

    sim::Table t({"N", "legacy makespan (s)", "store makespan (s)",
                  "legacy MB/s", "store MB/s", "peer hits",
                  "seed fetches"});
    for (std::size_t i = 0; i < fleet_sizes.size(); ++i) {
        t.addRow({std::to_string(fleet_sizes[i]),
                  sim::Table::num(legacy[i].makespanSec, 2),
                  sim::Table::num(stored[i].makespanSec, 2),
                  sim::Table::num(legacy[i].aggTputMBps, 1),
                  sim::Table::num(stored[i].aggTputMBps, 1),
                  std::to_string(stored[i].peerHits),
                  std::to_string(stored[i].seedFetches)});
    }
    t.print(std::cout);

    bool all_ok = true;
    for (const auto &r : legacy)
        all_ok = all_ok && r.ok;
    for (const auto &r : stored)
        all_ok = all_ok && r.ok;

    // Superlinear scaling vs the single-server baseline: the store's
    // throughput advantage must widen as concurrency grows (warm
    // peers add capacity with every finished deployment, while the
    // legacy path queues on one server).
    const auto &lg1 = legacy.front(), &lgN = legacy.back();
    const auto &st1 = stored.front(), &stN = stored.back();
    double rel1 = st1.aggTputMBps / lg1.aggTputMBps;
    double relN = stN.aggTputMBps / lgN.aggTputMBps;
    bool superlinear = relN > rel1 * 1.25 && relN > 1.5;
    std::cout << "\nstore/legacy throughput ratio: N=1 "
              << rel1 << "  N=" << fleet_sizes.back() << " " << relN
              << "  (superlinear: " << (superlinear ? "yes" : "NO")
              << ")\n";

    // Degraded pool: one seed down, everything still deploys
    // byte-identical via k-of-n reconstruction.
    FleetResult degraded = runFleet(4, true, true, image_bytes);
    bool degraded_ok = degraded.ok && degraded.reconstructions > 0;
    std::cout << "degraded (1 seed down, N=4): "
              << (degraded.ok ? "complete" : "INCOMPLETE") << ", "
              << degraded.reconstructions << " reconstructions, "
              << sim::Table::num(degraded.makespanSec, 2)
              << " s makespan\n";

    // Default-off contract: touched-but-disabled store params replay
    // the legacy run tick for tick.
    FleetResult pristine = runDisabled(image_bytes, false);
    FleetResult touched = runDisabled(image_bytes, true);
    bool disabled_identical = pristine.ok && touched.ok &&
                              touched.executed == pristine.executed &&
                              touched.endTick == pristine.endTick;
    std::cout << "store-disabled run tick-identical to legacy: "
              << (disabled_identical ? "yes" : "NO") << "\n";

    // Uniform storm records (one per store-tier configuration), in
    // the same shape abl_scaleout and abl_storm emit.
    std::vector<bench::ScaleRecord> recs;
    for (std::size_t i = 0; i < fleet_sizes.size(); ++i) {
        bench::ScaleRecord rec;
        rec.nodes = fleet_sizes[i];
        rec.wallMs = stored[i].wallMs;
        rec.events = stored[i].executed;
        if (rec.wallMs > 0.0)
            rec.eventsPerSec =
                double(rec.events) / (rec.wallMs / 1000.0);
        recs.push_back(rec);
    }

    std::ofstream json("BENCH_store.json");
    json << "{\n  \"bench\": \"abl_store\",\n"
         << "  \"image_mib\": " << image_bytes / sim::kMiB << ",\n"
         << "  " << bench::scaleRecordsJson(recs, "  ") << ",\n"
         << "  \"superlinear_vs_single_server\": "
         << (superlinear ? "true" : "false") << ",\n"
         << "  \"degraded_ok\": " << (degraded_ok ? "true" : "false")
         << ",\n"
         << "  \"degraded_reconstructions\": "
         << degraded.reconstructions << ",\n"
         << "  \"disabled_tick_identical\": "
         << (disabled_identical ? "true" : "false") << ",\n"
         << "  \"fleets\": [\n";
    for (std::size_t i = 0; i < fleet_sizes.size(); ++i) {
        json << "    {\"n\": " << fleet_sizes[i]
             << ", \"legacy_makespan_sec\": " << legacy[i].makespanSec
             << ", \"store_makespan_sec\": " << stored[i].makespanSec
             << ", \"legacy_agg_mbps\": " << legacy[i].aggTputMBps
             << ", \"store_agg_mbps\": " << stored[i].aggTputMBps
             << ", \"peer_hits\": " << stored[i].peerHits
             << ", \"seed_fetches\": " << stored[i].seedFetches
             << ", \"ok\": "
             << (legacy[i].ok && stored[i].ok ? "true" : "false")
             << "}" << (i + 1 < fleet_sizes.size() ? "," : "")
             << "\n";
    }
    json << "  ]\n}\n";
    json.close();
    std::cout << "wrote BENCH_store.json\n";

    bool ok =
        all_ok && superlinear && degraded_ok && disabled_identical;
    return ok ? 0 : 1;
}
