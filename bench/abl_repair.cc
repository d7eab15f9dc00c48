/**
 * @file
 * Ablation: repair-bandwidth-aware erasure coding and the background
 * repair scheduler.
 *
 * Four gated experiments plus an elastic-transformation showcase:
 *
 *  - bandwidth: a Cloud region per code (flat-rs, lrc, hitchhiker)
 *               over the same 10-server seed pool loses one seed;
 *               the RepairScheduler must restore full stripe health,
 *               and the structured codes' *data-member* repair bytes
 *               (the classic repair-bandwidth metric) must come in
 *               at <= 50% of flat Reed-Solomon's.
 *  - goodput:   the sharded repair world (bench/repair_world.hh)
 *               loses a rack while every live rack pushes serving
 *               traffic; scavenger-paced repair must reach full
 *               health with serving goodput >= 90% of an idle run.
 *  - sharding:  the repair world's fingerprint must be identical
 *               across shard counts (BMCAST_SHARDS=1,2,4,8) and,
 *               under `--smoke`, equal the recorded one.
 *  - identity:  a store run with the repair knobs touched but
 *               disabled and the code pinned flat-rs must replay the
 *               default store path tick for tick.
 *  - transform: re-planning every stripe flat-rs -> lrc must move
 *               only the new parity members' build bytes, not a full
 *               re-encode read.
 *
 * BMCAST_CODE picks the world/goodput code; emits BENCH_repair.json;
 * `--smoke` shrinks the image and world for the bench-smoke label.
 */

#include <algorithm>
#include <chrono>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench/harness.hh"
#include "bench/repair_world.hh"
#include "bmcast/cloud.hh"
#include "simcore/table.hh"

namespace {

constexpr std::uint64_t kBase = 0xABCD000000000001ULL;
/** One pool for every code: same digests, same stripe slots, so the
 *  data-member repair byte counts compare like for like. */
constexpr unsigned kSeedPool = 10;
constexpr unsigned kCrashSeed = 2;

struct RepairResult
{
    bool healthy = false;
    std::uint64_t jobs = 0;
    std::uint64_t retries = 0;
    sim::Bytes repairedBytes = 0;
    sim::Bytes dataRepairedBytes = 0;
    sim::Bytes wireBytes = 0;
    double repairSec = 0.0;
};

bmcast::CloudConfig
repairRegionConfig(store::ec::CodeKind code)
{
    bmcast::CloudConfig cfg;
    cfg.machines = 1;
    cfg.store.enabled = true;
    cfg.store.code = code;
    cfg.store.seedServers = kSeedPool;
    cfg.store.repair.enabled = true;
    return cfg;
}

/** Kill one seed, let the scheduler heal the pool, read the bill. */
RepairResult
runRepair(store::ec::CodeKind code, sim::Bytes image_bytes)
{
    sim::EventQueue eq;
    bmcast::Cloud cloud(eq, "region", repairRegionConfig(code));
    cloud.addImage("img", image_bytes, kBase);
    store::RepairScheduler *sched = cloud.repairScheduler();
    cloud.seedServer(kCrashSeed).crash();

    auto healed = [&]() {
        return sched->idle() && sched->allHealthy();
    };
    eq.stepWhile(
        [&]() { return !healed() && eq.now() < 600 * sim::kSec; });

    RepairResult r;
    r.healthy = sched->allHealthy();
    r.jobs = sched->stats().jobsCompleted;
    r.retries = sched->stats().retries;
    r.repairedBytes = sched->stats().repairedBytes;
    r.dataRepairedBytes = sched->stats().dataRepairedBytes;
    r.wireBytes = sched->stats().wireBytes;
    r.repairSec = sim::toSeconds(eq.now());
    return r;
}

/** Store deployment with every repair knob touched while enabled
 *  stays false; must be tick-identical to the pristine store path. */
std::pair<std::uint64_t, sim::Tick>
runIdentity(sim::Bytes image_bytes, bool touched)
{
    sim::EventQueue eq;
    bmcast::CloudConfig cfg;
    cfg.machines = 2;
    cfg.machineTemplate.disk.capacityBytes = 2 * sim::kGiB;
    cfg.vmm.bootTime = 500 * sim::kMs;
    cfg.vmm.moderation.vmmWriteInterval = 2 * sim::kMs;
    cfg.vmm.moderation.guestIoFreqThreshold = 1e9;
    cfg.guestTemplate.boot.loaderBytes = 512 * sim::kKiB;
    cfg.guestTemplate.boot.kernelBytes = 2 * sim::kMiB;
    cfg.guestTemplate.boot.numReads = 50;
    cfg.guestTemplate.boot.cpuTotal = 500 * sim::kMs;
    cfg.guestTemplate.boot.regionBytes = 8 * sim::kMiB;
    cfg.store.enabled = true;
    if (touched) {
        cfg.store.code = store::ec::CodeKind::FlatRs;
        cfg.store.lrcGroups = 4;
        cfg.store.repair.probePeriod = 50 * sim::kMs;
        cfg.store.repair.maxConcurrent = 16;
        cfg.store.repair.retryDelay = 5 * sim::kMs;
        cfg.store.repair.wireBps = 2e9;
        cfg.store.repair.enabled = false; // the default-off contract
    }
    bmcast::Cloud cloud(eq, "region", cfg);
    cloud.addImage("img", image_bytes, kBase);
    std::vector<bmcast::Instance *> fleet(2, nullptr);
    for (unsigned i = 0; i < 2; ++i) {
        eq.schedule(i * 250 * sim::kMs, [&cloud, &fleet, i]() {
            fleet[i] = cloud.provision("img", nullptr);
        });
    }
    auto all_bare = [&]() {
        for (auto *inst : fleet)
            if (!inst ||
                inst->state() != bmcast::Instance::State::BareMetal)
                return false;
        return true;
    };
    eq.stepWhile(
        [&]() { return !all_bare() && eq.now() < 5000 * sim::kSec; });
    return {eq.executed(), eq.now()};
}

/** Elastic transformation: flat-rs -> lrc without a full re-read. */
struct TransformResult
{
    bool done = false;
    std::uint64_t transforms = 0;
    sim::Bytes transformBytes = 0;
    sim::Bytes naiveBytes = 0;
};

TransformResult
runTransform(sim::Bytes image_bytes)
{
    sim::EventQueue eq;
    bmcast::Cloud cloud(
        eq, "region", repairRegionConfig(store::ec::CodeKind::FlatRs));
    cloud.addImage("img", image_bytes, kBase);
    store::StoreFabric *fabric = cloud.storeFabric();
    store::RepairScheduler *sched = cloud.repairScheduler();

    // The naive alternative: re-encode every LRC parity member from
    // a full k-shard read of every chunk.
    const unsigned lrc_parity =
        store::ec::makeCode(store::ec::CodeKind::Lrc,
                            store::ec::CodeParams{
                                fabric->params().dataShards,
                                fabric->params().parityShards,
                                fabric->params().lrcGroups})
            ->parityMembers();
    TransformResult r;
    for (const auto &[name, desc] : fabric->catalog().images()) {
        for (store::Digest d : desc.chunks) {
            const store::ChunkPayload *p = fabric->chunkStore().find(d);
            r.naiveBytes += static_cast<sim::Bytes>(lrc_parity) *
                            p->sectors * sim::kSectorSize;
        }
    }

    sched->transformTo(store::ec::CodeKind::Lrc);
    eq.stepWhile(
        [&]() { return !sched->idle() && eq.now() < 600 * sim::kSec; });
    r.done = sched->idle() && sched->allHealthy() &&
             fabric->placement().code().kind() ==
                 store::ec::CodeKind::Lrc;
    r.transforms = sched->stats().transforms;
    r.transformBytes = sched->stats().transformBytes;
    return r;
}

bench::RepairWorldParams
worldParams(store::ec::CodeKind code, unsigned shards, bool kill,
            bool smoke)
{
    bench::RepairWorldParams p;
    p.racks = 8;
    p.shards = shards;
    p.code = code;
    p.chunks = smoke ? 16 : 48;
    p.runFor = smoke ? 4 * sim::kSec : 10 * sim::kSec;
    p.killRack = kill ? 5 : -1;
    return p;
}

} // namespace

int
main(int argc, char **argv)
{
    bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
    const sim::Bytes image_bytes =
        smoke ? 64 * sim::kMiB : 256 * sim::kMiB;
    const store::ec::CodeKind world_code = bench::envCodeKind(
        "BMCAST_CODE", store::ec::CodeKind::Lrc);

    bench::figureHeader(
        "Ablation: coding plans (LRC, Hitchhiker) and the background "
        "repair scheduler");
    std::cout << "image: " << image_bytes / sim::kMiB << " MiB"
              << (smoke ? " (smoke)" : "") << ", world code: "
              << store::ec::codeKindName(world_code) << "\n";

    // --- Repair bandwidth per code -------------------------------
    const std::vector<store::ec::CodeKind> codes = {
        store::ec::CodeKind::FlatRs, store::ec::CodeKind::Lrc,
        store::ec::CodeKind::Hitchhiker};
    std::vector<RepairResult> results;
    for (store::ec::CodeKind code : codes)
        results.push_back(runRepair(code, image_bytes));

    sim::Table t({"code", "healthy", "jobs", "repair MiB",
                  "data-repair MiB", "wire MiB"});
    for (std::size_t i = 0; i < codes.size(); ++i) {
        const RepairResult &r = results[i];
        t.addRow({store::ec::codeKindName(codes[i]),
                  r.healthy ? "yes" : "NO", std::to_string(r.jobs),
                  sim::Table::num(double(r.repairedBytes) / sim::kMiB,
                                  1),
                  sim::Table::num(
                      double(r.dataRepairedBytes) / sim::kMiB, 1),
                  sim::Table::num(double(r.wireBytes) / sim::kMiB,
                                  1)});
    }
    t.print(std::cout);

    const RepairResult &flat = results[0];
    const RepairResult &lrc = results[1];
    const RepairResult &hh = results[2];
    bool healed = flat.healthy && lrc.healthy && hh.healthy;
    // <= 50% of flat RS on the data-member repairs (+1% rounding
    // slack: Hitchhiker's half-shards round up per survivor).
    double lrc_ratio = double(lrc.dataRepairedBytes) /
                       double(flat.dataRepairedBytes);
    double hh_ratio = double(hh.dataRepairedBytes) /
                      double(flat.dataRepairedBytes);
    bool bandwidth_ok = healed && flat.dataRepairedBytes > 0 &&
                        lrc_ratio <= 0.505 && hh_ratio <= 0.505;
    std::cout << "\ndata-repair bytes vs flat-rs: lrc " << lrc_ratio
              << "  hitchhiker " << hh_ratio
              << "  (<= 0.505: " << (bandwidth_ok ? "yes" : "NO")
              << ")\n";

    // --- Goodput under scavenger-paced repair --------------------
    bench::RepairWorld idle(worldParams(world_code, 1, false, smoke));
    idle.run();
    bench::RepairWorld stressed(
        worldParams(world_code, 1, true, smoke));
    stressed.run();
    // Goodput over the survivors: the victim rack's serving dies
    // with it in the stressed run, which is the failure's cost, not
    // the repair traffic's.
    const int victim = stressed.prm.killRack;
    double goodput_ratio = double(stressed.servedBytes(victim)) /
                           double(idle.servedBytes(victim));
    bool goodput_ok = stressed.allHealthy() &&
                      stressed.stats().jobsCompleted > 0 &&
                      goodput_ratio >= 0.9;
    std::cout << "world repair: "
              << stressed.stats().jobsCompleted << " rebuilds, "
              << (stressed.allHealthy() ? "healthy" : "DEGRADED")
              << ", serving goodput " << goodput_ratio
              << " of idle (>= 0.9: " << (goodput_ok ? "yes" : "NO")
              << ")\n";

    // --- Fingerprint identity across shard counts ----------------
    // (pinned to the smoke fingerprint recorded for the LRC world)
    struct ShardRun
    {
        bench::ScaleRecord rec;
        bool healthy = false;
    };
    const auto sharded = bench::sweepShards(
        "repair world",
        bench::envUnsignedList("BMCAST_SHARDS", {1, 2, 4, 8}),
        smoke && world_code == store::ec::CodeKind::Lrc
            ? 0x996fabf92fc82a0aULL
            : 0,
        [&](unsigned s) {
            bench::RepairWorld w(worldParams(world_code, s, true, smoke));
            auto t0 = std::chrono::steady_clock::now();
            w.run();
            const double wall_ms = bench::msSince(t0);
            ShardRun r;
            r.rec = bench::makeRecord(w.prm.racks, s, wall_ms,
                                      w.region.totalExecuted(),
                                      w.fingerprint());
            r.healthy = w.allHealthy();
            return r;
        });
    bench::printRecords(sharded.records());
    bool sharding_ok = sharded.ok();
    for (const ShardRun &r : sharded.runs)
        sharding_ok = sharding_ok && r.healthy;
    std::cout << "fingerprint identical across shard counts: "
              << (sharding_ok ? "yes" : "NO") << "\n";

    // --- Flat-RS default-off tick identity -----------------------
    auto pristine = runIdentity(image_bytes, false);
    auto touched = runIdentity(image_bytes, true);
    bool identity_ok = pristine.first == touched.first &&
                       pristine.second == touched.second;
    std::cout << "repair-touched-but-disabled run tick-identical to "
                 "the store path: "
              << (identity_ok ? "yes" : "NO") << "\n";

    // --- Elastic transformation showcase -------------------------
    TransformResult tr = runTransform(image_bytes);
    double tr_ratio =
        tr.naiveBytes ? double(tr.transformBytes) / double(tr.naiveBytes)
                      : 1.0;
    bool transform_ok = tr.done && tr.transforms > 0 &&
                        tr.transformBytes > 0 &&
                        tr.transformBytes < tr.naiveBytes;
    std::cout << "elastic transform flat-rs -> lrc: "
              << (tr.done ? "complete" : "INCOMPLETE") << ", moved "
              << tr.transformBytes / sim::kMiB << " MiB vs "
              << tr.naiveBytes / sim::kMiB
              << " MiB naive re-encode (ratio " << tr_ratio << ")\n";

    std::ofstream json("BENCH_repair.json");
    json << "{\n  \"bench\": \"abl_repair\",\n"
         << "  \"image_mib\": " << image_bytes / sim::kMiB << ",\n"
         << "  \"world_code\": \""
         << store::ec::codeKindName(world_code) << "\",\n"
         << "  " << bench::scaleRecordsJson(sharded.records(), "  ")
         << ",\n"
         << "  \"codes\": [\n";
    for (std::size_t i = 0; i < codes.size(); ++i) {
        const RepairResult &r = results[i];
        json << "    {\"code\": \""
             << store::ec::codeKindName(codes[i])
             << "\", \"healthy\": " << (r.healthy ? "true" : "false")
             << ", \"jobs\": " << r.jobs
             << ", \"repaired_bytes\": " << r.repairedBytes
             << ", \"data_repaired_bytes\": " << r.dataRepairedBytes
             << ", \"wire_bytes\": " << r.wireBytes << "}"
             << (i + 1 < codes.size() ? "," : "") << "\n";
    }
    json << "  ],\n"
         << "  \"lrc_data_repair_ratio\": " << lrc_ratio << ",\n"
         << "  \"hitchhiker_data_repair_ratio\": " << hh_ratio
         << ",\n"
         << "  \"bandwidth_ok\": "
         << (bandwidth_ok ? "true" : "false") << ",\n"
         << "  \"serving_goodput_ratio\": " << goodput_ratio << ",\n"
         << "  \"goodput_ok\": " << (goodput_ok ? "true" : "false")
         << ",\n"
         << "  \"sharding_ok\": "
         << (sharding_ok ? "true" : "false") << ",\n"
         << "  \"identity_ok\": "
         << (identity_ok ? "true" : "false") << ",\n"
         << "  \"transform_bytes\": " << tr.transformBytes << ",\n"
         << "  \"transform_naive_bytes\": " << tr.naiveBytes << ",\n"
         << "  \"transform_ok\": "
         << (transform_ok ? "true" : "false") << "\n}\n";
    json.close();
    std::cout << "wrote BENCH_repair.json\n";

    bool ok = bandwidth_ok && goodput_ok && sharding_ok &&
              identity_ok && transform_ok;
    return ok ? 0 : 1;
}
