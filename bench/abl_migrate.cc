/**
 * @file
 * Ablation: malleable metal — re-virtualization, pre-copy live
 * migration and delta re-imaging. Three scenarios, all enforced by
 * exit code:
 *
 *  - downtime_vs_dirty: one instance on the serial Cloud migrates
 *    while a randomized disk-write workload races the pre-copy
 *    rounds, swept over memory re-dirty rates. Gates: every
 *    migration completes; the destination disk at handoff is
 *    byte-identical to the source's write history (shadow-model
 *    check) with zero writes lost in the quiesce; and the zero-dirty
 *    run hits the downtime floor exactly (downtime == handoff
 *    budget, one round, empty stop-and-copy).
 *  - overlay_reimage: a tenant dirties ~10% of its working set, is
 *    released through releaseToOverlay, and the overlay re-lease is
 *    compared against a full redeploy of a cold image. With a warm
 *    peer exporting the shared base chunks, the delta redeploy must
 *    pull < 50% of the full redeploy's bytes off the seed-server
 *    backbone (it lands near the dirty fraction).
 *  - sharded_determinism: the MigrateWorld — per-rack instances
 *    migrating to their neighbors over a shared fat-tree, shipments
 *    crossing shard mailboxes — must produce the identical result
 *    fingerprint on every shard count (under `--smoke`, the recorded
 *    one), with zero aborts.
 *
 * Emits BENCH_migrate.json. `--smoke` shrinks the sweeps for the
 * bench-smoke ctest label (and the TSan CI job).
 */

#include <chrono>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include "bench/harness.hh"
#include "bench/migrate_world.hh"
#include "bmcast/cloud.hh"
#include "hw/disk_store.hh"
#include "migrate/migration.hh"
#include "simcore/random.hh"
#include "simcore/table.hh"
#include "store/chunk.hh"

using namespace bench;

namespace {

constexpr std::uint64_t kImg = 0xBE9C000000000001ULL;
constexpr sim::Bytes kImageBytes = 32 * sim::kMiB;
constexpr sim::Lba kSectors = kImageBytes / sim::kSectorSize;

/** Small-image region tuned so a migration run takes seconds of
 *  simulated time, not the paper's 16 minutes. */
bmcast::CloudConfig
regionConfig(unsigned machines)
{
    bmcast::CloudConfig cfg;
    cfg.machines = machines;
    cfg.machineTemplate.disk.capacityBytes = 2 * sim::kGiB;
    cfg.vmm.bootTime = 5 * sim::kSec;
    cfg.vmm.moderation.vmmWriteInterval = 2 * sim::kMs;
    cfg.vmm.moderation.guestIoFreqThreshold = 1e9;
    cfg.guestTemplate.boot.loaderBytes = 1 * sim::kMiB;
    cfg.guestTemplate.boot.kernelBytes = 4 * sim::kMiB;
    cfg.guestTemplate.boot.numReads = 40;
    cfg.guestTemplate.boot.cpuTotal = 500 * sim::kMs;
    cfg.guestTemplate.boot.regionBytes = 16 * sim::kMiB;
    cfg.migrate.memoryBytes = 8 * sim::kMiB;
    cfg.migrate.memoryDirtyBytesPerSec = 1 * sim::kMiB;
    cfg.migrate.stopCopyThresholdBytes = 2 * sim::kMiB;
    cfg.migrate.maxRounds = 8;
    cfg.migrate.handoffTime = 50 * sim::kMs;
    return cfg;
}

bool
driveUntil(sim::EventQueue &eq, sim::Tick deadline,
           const std::function<bool()> &pred)
{
    eq.stepWhile([&]() { return !pred() && eq.now() <= deadline; });
    return pred();
}

/** Drive one provision to bare metal + a Serving lease. */
bmcast::Instance *
deployOne(sim::EventQueue &eq, bmcast::Cloud &cloud,
          const std::string &image)
{
    bmcast::Instance *inst = cloud.provision(image, nullptr);
    if (!inst)
        return nullptr;
    if (!driveUntil(eq, 40000 * sim::kSec, [&]() {
            return inst->state() ==
                       bmcast::Instance::State::BareMetal &&
                   inst->lease().state() == cloud::LeaseState::Serving;
        }))
        return nullptr;
    return inst;
}

/**
 * The racing workload: a self-rescheduling random writer on the
 * instance's guest, gated on the migration pause like real vCPUs.
 * Each write lands in its own 64-sector stripe and is mirrored into
 * a shadow disk at issue time, so the expected disk image is
 * order-independent: the golden image plus every issued write.
 */
struct Writer
{
    Writer(sim::EventQueue &eq, bmcast::Instance &inst,
           std::uint64_t seed)
        : eq(eq), inst(inst), rng(seed)
    {
        shadow.write(0, kSectors, kImg);
        arm();
    }

    void
    arm()
    {
        eq.schedule(3 * sim::kMs, [this]() {
            migrate::MigrationManager *mig = inst.migration();
            if (mig && mig->finished())
                return;
            if ((!mig || !mig->paused()) &&
                (writeSeq + 1) * 64 <= kSectors) {
                sim::Lba off = rng.uniformInt(0, 31);
                std::uint64_t burst = rng.uniformInt(1, 64 - off);
                sim::Lba lba = writeSeq * 64 + off;
                std::uint64_t base =
                    0xD000000000000000ULL | rng.next() >> 16;
                shadow.write(lba, burst, base);
                inst.guest().blk().write(
                    lba, static_cast<std::uint32_t>(burst), base,
                    [this]() { ++writesDone; });
                ++writeSeq;
                ++writesIssued;
            }
            arm();
        });
    }

    sim::EventQueue &eq;
    bmcast::Instance &inst;
    sim::Rng rng;
    hw::DiskStore shadow;
    std::uint64_t writeSeq = 0;
    std::uint64_t writesIssued = 0;
    std::uint64_t writesDone = 0;
};

struct DirtyRun
{
    sim::Bytes dirtyBps = 0;
    bool withWriter = false;
    double downtimeMs = 0.0;
    unsigned rounds = 0;
    sim::Bytes bytesShipped = 0;
    sim::Bytes finalBytes = 0;
    bool forcedStop = false;
    std::uint64_t writes = 0;
    bool ok = true;
    std::string detail;
};

void
fail(bool &ok, std::string &detail, const std::string &why)
{
    ok = false;
    if (detail.empty())
        detail = why;
}

/** One downtime_vs_dirty point: deploy, (optionally) race a writer,
 *  migrate to the other slot, gate identity + completion. */
DirtyRun
downtimePoint(sim::Bytes dirty_bps, bool with_writer)
{
    DirtyRun out;
    out.dirtyBps = dirty_bps;
    out.withWriter = with_writer;

    sim::EventQueue eq;
    bmcast::CloudConfig cfg = regionConfig(2);
    cfg.migrate.memoryDirtyBytesPerSec = dirty_bps;
    bmcast::Cloud cloud(eq, "region", cfg);
    cloud.addImage("img", kImageBytes, kImg);
    bmcast::Instance *inst = deployOne(eq, cloud, "img");
    if (!inst) {
        fail(out.ok, out.detail, "deployment never reached serving");
        return out;
    }

    std::unique_ptr<Writer> wr;
    if (with_writer)
        wr = std::make_unique<Writer>(eq, *inst, 1 + dirty_bps);

    const unsigned src_slot = inst->lease().slot();
    if (cloud.migrate(*inst, 1u - src_slot) !=
        cloud::MigrateReject::None) {
        fail(out.ok, out.detail, "migrate() refused");
        return out;
    }
    migrate::MigrationManager *mig = inst->migration();
    if (!driveUntil(eq, 40000 * sim::kSec,
                    [&]() { return mig->finished(); })) {
        fail(out.ok, out.detail, "migration never finished");
        return out;
    }

    const migrate::MigrateStats &st = mig->stats();
    out.downtimeMs = sim::toSeconds(st.downtime) * 1e3;
    out.rounds = st.rounds;
    out.bytesShipped = st.bytesShipped;
    out.finalBytes = st.finalBytes;
    out.forcedStop = st.forcedStop;
    if (st.aborted)
        fail(out.ok, out.detail, "migration aborted");
    if (inst->lease().state() != cloud::LeaseState::Serving ||
        inst->lease().slot() != 1u - src_slot)
        fail(out.ok, out.detail, "lease not serving on the dest slot");

    if (wr) {
        out.writes = wr->writesIssued;
        if (wr->writesIssued == 0)
            fail(out.ok, out.detail, "workload never wrote");
        if (wr->writesDone != wr->writesIssued)
            fail(out.ok, out.detail,
                 "writes lost in the handoff quiesce");
        // The tentpole gate: destination disk == image + every write
        // the guest ever issued, byte for byte.
        if (!migrate::diffDisks(inst->machine().disk().store(),
                                wr->shadow, 0, kSectors)
                 .empty())
            fail(out.ok, out.detail,
                 "migrated disk diverges from the write history");
    } else if (dirty_bps == 0) {
        // The downtime floor, exactly.
        if (st.rounds != 1 || st.finalBytes != 0 ||
            st.downtime != cfg.migrate.handoffTime)
            fail(out.ok, out.detail,
                 "zero-dirty downtime missed the handoff floor");
    }
    return out;
}

struct OverlayOut
{
    sim::Bytes overlayBytes = 0;
    sim::Bytes fullBytes = 0;
    double ratio = 0.0;
    std::uint64_t peerHits = 0;
    bool ok = true;
    std::string detail;
};

/**
 * overlay_reimage: warm peer serving the base image, tenant dirties
 * ~10% of its chunks, releaseToOverlay, re-lease from the overlay vs
 * a full redeploy of a cold image — seed-server egress compared.
 */
OverlayOut
overlayReimage()
{
    OverlayOut out;
    constexpr std::uint64_t kDirty = 0xDE17A00000000001ULL;
    constexpr std::uint64_t kCold = 0xC01D000000000001ULL;

    sim::EventQueue eq;
    bmcast::CloudConfig cfg = regionConfig(3);
    cfg.store.enabled = true;
    cfg.store.seedServers = 4;
    cfg.store.dataShards = 2;
    cfg.store.parityShards = 2;
    bmcast::Cloud cloud(eq, "region", cfg);
    cloud.addImage("img", kImageBytes, kImg);

    auto seedBytes = [&cloud]() {
        sim::Bytes b = 0;
        for (unsigned i = 0; i < cloud.seedServerCount(); ++i)
            b += cloud.seedServer(i).dataBytesOut();
        return b;
    };

    // The warm peer: stays leased, exporting every base chunk.
    bmcast::Instance *peer = deployOne(eq, cloud, "img");
    bmcast::Instance *tenant = peer ? deployOne(eq, cloud, "img")
                                    : nullptr;
    if (!tenant) {
        fail(out.ok, out.detail, "setup deployments failed");
        return out;
    }

    // Dirty ~10% of the working set: 13 of the 128 chunks.
    const std::size_t chunks = store::chunkCount(kSectors);
    std::vector<std::size_t> dirtied;
    for (std::size_t c = 3; c < chunks && dirtied.size() < 13; c += 9)
        dirtied.push_back(c);
    for (std::size_t c : dirtied)
        tenant->machine().disk().store().write(
            store::chunkStartLba(c), store::kChunkSectors,
            kDirty + c);

    const sim::Bytes s0 = seedBytes();
    cloud.releaseToOverlay(*tenant, "ovl");
    if (!driveUntil(eq, 40000 * sim::kSec,
                    [&]() { return cloud.freeMachines() == 2; })) {
        fail(out.ok, out.detail, "overlay release never reclaimed");
        return out;
    }

    bmcast::Instance *re = deployOne(eq, cloud, "ovl");
    if (!re) {
        fail(out.ok, out.detail, "overlay redeploy failed");
        return out;
    }
    out.overlayBytes = seedBytes() - s0;
    if (store::ChunkStreamer *st = re->deployer().vmm().streamer()) {
        out.peerHits = st->peerHits();
        if (st->peerHits() == 0)
            fail(out.ok, out.detail,
                 "overlay redeploy never used the warm peer");
    }

    // The redeployed disk is the tenant's exact working set.
    const hw::DiskStore &disk = re->machine().disk().store();
    if (!cloud.storeFabric()->catalog().verifyDisk("ovl", disk))
        fail(out.ok, out.detail, "overlay redeploy content mismatch");
    for (std::size_t c : dirtied)
        if (!disk.rangeHasBase(store::chunkStartLba(c),
                               store::kChunkSectors, kDirty + c))
            fail(out.ok, out.detail, "overlay delta chunk missing");

    // The comparison: a full redeploy of a cold image nobody holds.
    cloud.addImage("cold", kImageBytes, kCold);
    const sim::Bytes s1 = seedBytes();
    bmcast::Instance *full = deployOne(eq, cloud, "cold");
    if (!full) {
        fail(out.ok, out.detail, "full redeploy failed");
        return out;
    }
    out.fullBytes = seedBytes() - s1;

    if (out.fullBytes == 0)
        fail(out.ok, out.detail, "full redeploy shipped nothing");
    else
        out.ratio = double(out.overlayBytes) / double(out.fullBytes);
    if (out.overlayBytes * 2 >= out.fullBytes)
        fail(out.ok, out.detail,
             "overlay reimage bytes " +
                 std::to_string(out.overlayBytes) + " not < 50% of " +
                 std::to_string(out.fullBytes));
    return out;
}

struct ShardRun
{
    ScaleRecord rec;
    bool ok = true;
    std::string detail;
};

/** One sharded_determinism run: the MigrateWorld on @p shards
 *  shards, chaos disarmed (abl_faults covers armed plans). */
ShardRun
shardedRun(unsigned shards)
{
    MigrateWorldParams p;
    p.racks = 8;
    p.shards = shards;
    p.seed = 42;
    p.imageBytes = 8 * sim::kMiB;
    p.migrate.memoryBytes = 4 * sim::kMiB;
    p.migrate.memoryDirtyBytesPerSec = 512 * sim::kKiB;
    p.migrate.stopCopyThresholdBytes = 1 * sim::kMiB;
    p.migrate.handoffTime = 20 * sim::kMs;
    p.runFor = 5 * sim::kSec;

    MigrateWorld w(p);
    auto t0 = std::chrono::steady_clock::now();
    w.run();
    double wall_ms = msSince(t0);

    ShardRun out;
    out.rec = makeRecord(p.racks, shards, wall_ms,
                         w.region.totalExecuted(), w.fingerprint());
    if (w.migrationsDone() != p.racks)
        fail(out.ok, out.detail, "not every rack's migration completed");
    if (w.migrationsAborted() != 0)
        fail(out.ok, out.detail, "unexpected aborts");
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;

    figureHeader(
        std::string("Ablation: malleable metal (re-virtualization + "
                    "pre-copy migration + delta reimage") +
        (smoke ? ", smoke)" : ")"));

    // --- downtime vs dirty rate ---
    std::vector<sim::Bytes> rates;
    if (smoke)
        rates = {0, 2 * sim::kMiB};
    else
        rates = {0, 512 * sim::kKiB, 2 * sim::kMiB, 8 * sim::kMiB};

    std::vector<DirtyRun> sweep;
    bool sweep_ok = true;
    std::string sweep_detail;
    for (sim::Bytes bps : rates) {
        DirtyRun r = downtimePoint(bps, bps != 0);
        if (!r.ok)
            fail(sweep_ok, sweep_detail, r.detail);
        sweep.push_back(r);
    }

    {
        sim::Table t({"Dirty (MiB/s)", "Writer", "Downtime (ms)",
                      "Rounds", "Shipped (MiB)", "Final (KiB)",
                      "Forced", "OK"});
        for (const auto &r : sweep)
            t.addRow({sim::Table::num(
                          double(r.dirtyBps) / double(sim::kMiB), 2),
                      r.withWriter ? "yes" : "no",
                      sim::Table::num(r.downtimeMs, 2),
                      std::to_string(r.rounds),
                      sim::Table::num(double(r.bytesShipped) /
                                          double(sim::kMiB),
                                      2),
                      sim::Table::num(double(r.finalBytes) /
                                          double(sim::kKiB),
                                      1),
                      r.forcedStop ? "yes" : "no",
                      r.ok ? "yes" : "NO"});
        std::cout << "\n--- downtime_vs_dirty ---\n";
        t.print(std::cout);
        if (!sweep_ok)
            std::cout << "FAILED: " << sweep_detail << "\n";
    }

    // --- overlay reimage vs full redeploy ---
    OverlayOut ovl = overlayReimage();
    std::cout << "\n--- overlay_reimage ---\n"
              << "overlay redeploy backbone bytes: "
              << ovl.overlayBytes << "\nfull redeploy backbone bytes: "
              << ovl.fullBytes << "\nratio: "
              << sim::Table::num(ovl.ratio, 3)
              << " (gate < 0.50), warm-peer chunk hits: "
              << ovl.peerHits << "\n";
    if (!ovl.ok)
        std::cout << "FAILED: " << ovl.detail << "\n";

    // --- sharded determinism ---
    const auto sharded = sweepShards(
        "sharded_determinism",
        smoke ? std::vector<unsigned>{1, 2}
              : std::vector<unsigned>{1, 2, 4, 8},
        smoke ? 0x13461137b9d11ce6ULL : 0, shardedRun);
    bool sharded_ok = sharded.ok();
    std::string sharded_detail = sharded.failure();
    for (const ShardRun &r : sharded.runs)
        if (!r.ok)
            fail(sharded_ok, sharded_detail, r.detail);
    std::cout << "\n--- sharded_determinism ---\n";
    printRecords(sharded.records());
    if (!sharded_ok)
        std::cout << "FAILED: " << sharded_detail << "\n";

    bool ok = sweep_ok && ovl.ok && sharded_ok;

    std::ofstream json("BENCH_migrate.json");
    json << "{\n  \"bench\": \"abl_migrate\",\n"
         << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n"
         << "  \"scenarios\": {\n"
         << "    \"downtime_vs_dirty\": {\n"
         << "      \"gate\": " << (sweep_ok ? "true" : "false")
         << ",\n      \"points\": [\n";
    for (std::size_t i = 0; i < sweep.size(); ++i) {
        const DirtyRun &r = sweep[i];
        json << "        {\"dirty_bps\": " << r.dirtyBps
             << ", \"with_writer\": "
             << (r.withWriter ? "true" : "false")
             << ", \"downtime_ms\": "
             << sim::Table::num(r.downtimeMs, 3)
             << ", \"rounds\": " << r.rounds
             << ", \"bytes_shipped\": " << r.bytesShipped
             << ", \"final_bytes\": " << r.finalBytes
             << ", \"forced_stop\": "
             << (r.forcedStop ? "true" : "false")
             << ", \"writes\": " << r.writes << "}"
             << (i + 1 < sweep.size() ? "," : "") << "\n";
    }
    json << "      ]\n    },\n"
         << "    \"overlay_reimage\": {\n"
         << "      \"gate\": " << (ovl.ok ? "true" : "false") << ",\n"
         << "      \"overlay_backbone_bytes\": " << ovl.overlayBytes
         << ",\n      \"full_backbone_bytes\": " << ovl.fullBytes
         << ",\n      \"ratio\": " << sim::Table::num(ovl.ratio, 4)
         << ",\n      \"warm_peer_hits\": " << ovl.peerHits
         << "\n    },\n"
         << "    \"sharded_determinism\": {\n"
         << "      \"gate\": " << (sharded_ok ? "true" : "false")
         << ",\n      "
         << scaleRecordsJson(sharded.records(), "      ")
         << "\n    }\n  }\n}\n";
    json.close();
    std::cout << "\nwrote BENCH_migrate.json\n";

    if (!ok) {
        std::cout << "MIGRATE GATE FAILED:";
        if (!sweep_ok)
            std::cout << " [downtime_vs_dirty: " << sweep_detail
                      << "]";
        if (!ovl.ok)
            std::cout << " [overlay_reimage: " << ovl.detail << "]";
        if (!sharded_ok)
            std::cout << " [sharded_determinism: " << sharded_detail
                      << "]";
        std::cout << "\n";
    }
    return ok ? 0 : 1;
}
