/**
 * @file
 * Malleable-metal tests: re-virtualization + pre-copy live migration
 * end to end on the Cloud facade, the bitmap-persistence completion
 * contract the stop-and-copy handoff leans on, and cross-shard
 * determinism of the sharded migration world.
 *
 * The mobility correctness bar is byte identity: the destination
 * disk at handoff must equal the source disk at the pause instant,
 * for arbitrary write workloads racing the pre-copy rounds. The
 * determinism bar is the usual one — shard count must never change
 * a simulated outcome — applied to migrations whose shipments cross
 * shard mailboxes.
 */

#include <gtest/gtest.h>

#include "bench/migrate_world.hh"
#include "bmcast/cloud.hh"
#include "bmcast/deployer.hh"
#include "hw/disk_store.hh"
#include "migrate/migration.hh"
#include "simcore/random.hh"
#include "tests/test_util.hh"

namespace {

constexpr std::uint64_t kImg = 0xAAAA000000000001ULL;

bmcast::CloudConfig
migrateConfig(unsigned machines)
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
    // Fast pre-copy: a small working set at 1 Gbps wire speed.
    cfg.migrate.memoryBytes = 8 * sim::kMiB;
    cfg.migrate.memoryDirtyBytesPerSec = 1 * sim::kMiB;
    cfg.migrate.stopCopyThresholdBytes = 2 * sim::kMiB;
    cfg.migrate.maxRounds = 8;
    cfg.migrate.handoffTime = 50 * sim::kMs;
    return cfg;
}

/** Drive one instance to bare metal; returns it. */
bmcast::Instance *
deployOne(sim::EventQueue &eq, bmcast::Cloud &cloud,
          const std::string &image)
{
    bmcast::Instance *inst = cloud.provision(image, nullptr);
    EXPECT_NE(inst, nullptr);
    if (!inst)
        return nullptr;
    // Wait for the lease too: a fast copy reaches bare metal while
    // the guest is still booting, and migrate() needs Serving.
    EXPECT_TRUE(testutil::runUntil(eq, 40000 * sim::kSec, [&]() {
        return inst->state() == bmcast::Instance::State::BareMetal &&
               inst->lease().state() == cloud::LeaseState::Serving;
    }));
    return inst;
}

/** A self-rescheduling random write workload on @p inst's guest,
 *  gated on the migration pause exactly like a real guest: the
 *  simulated VM-pause stops the vCPUs, so no new commands issue.
 *
 *  Each write lands in its own 64-sector stripe (random offset,
 *  length and content within it), so writes never overlap and the
 *  expected disk image is order-independent: the golden image plus
 *  every issued write, mirrored into `shadow` at issue time. */
struct Writer
{
    Writer(sim::EventQueue &eq, bmcast::Instance &inst,
           std::uint64_t seed, sim::Lba sectors, std::uint64_t image)
        : eq(eq), inst(inst), rng(seed), sectors(sectors)
    {
        shadow.write(0, sectors, image);
        arm();
    }

    void
    arm()
    {
        eq.schedule(3 * sim::kMs, [this]() {
            migrate::MigrationManager *mig = inst.migration();
            if (mig && mig->finished())
                return; // instance moved (or rolled back for good)
            if ((!mig || !mig->paused()) &&
                (writeSeq + 1) * 64 <= sectors) {
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
    sim::Lba sectors;
    hw::DiskStore shadow;
    std::uint64_t writeSeq = 0;
    std::uint64_t writesIssued = 0;
    std::uint64_t writesDone = 0;
};

// The tentpole property: for randomized write workloads racing the
// pre-copy rounds, the destination disk at handoff is byte-identical
// to the source disk at the pause instant.
TEST(Migration, MigratedDiskByteIdenticalAtHandoff)
{
    const sim::Lba img_sectors = (32 * sim::kMiB) / sim::kSectorSize;
    for (std::uint64_t seed : {1ULL, 7ULL, 1234ULL}) {
        sim::EventQueue eq;
        bmcast::Cloud cloud(eq, "region", migrateConfig(2));
        cloud.addImage("img", 32 * sim::kMiB, kImg);
        bmcast::Instance *inst = deployOne(eq, cloud, "img");
        ASSERT_NE(inst, nullptr);

        hw::Machine &src = inst->machine();
        const unsigned src_slot = inst->lease().slot();
        Writer wr(eq, *inst, seed, img_sectors, kImg);

        ASSERT_EQ(cloud.migrate(*inst, 1u - src_slot),
                  cloud::MigrateReject::None);
        migrate::MigrationManager *mig = inst->migration();
        ASSERT_NE(mig, nullptr);

        ASSERT_TRUE(testutil::runUntil(
            eq, 40000 * sim::kSec,
            [&]() { return mig->finished(); }))
            << "seed " << seed;

        const migrate::MigrateStats &st = mig->stats();
        ASSERT_FALSE(st.aborted) << "seed " << seed;
        ASSERT_EQ(mig->phase(),
                  migrate::MigrationManager::Phase::Done);
        // The handoff quiesced the source: every issued write
        // completed before the copy — zero writes lost in flight.
        EXPECT_GT(wr.writesIssued, 0u);
        EXPECT_EQ(wr.writesDone, wr.writesIssued) << "seed " << seed;

        // The instance now runs on the other machine, bare-metal,
        // and its disk is exactly the image plus every write the
        // guest ever completed.
        EXPECT_NE(&inst->machine(), &src) << "seed " << seed;
        EXPECT_EQ(inst->state(),
                  bmcast::Instance::State::BareMetal);
        EXPECT_TRUE(migrate::diffDisks(inst->machine().disk().store(),
                                       wr.shadow, 0, img_sectors)
                        .empty())
            << "seed " << seed
            << ": migrated disk diverges from the source's history";

        // Downtime covers the final shipment, the drain tail and
        // the handoff budget.
        EXPECT_GE(st.downtime,
                  migrateConfig(2).migrate.handoffTime +
                      st.finalBytes * 8);

        // Control plane agreed: lease Serving on the new slot.
        EXPECT_EQ(inst->lease().state(), cloud::LeaseState::Serving);
        EXPECT_EQ(inst->lease().slot(), 1u - src_slot);
        EXPECT_EQ(cloud.plane().stats().migrated, 1u);
    }
}

// With nothing re-dirtying (idle guest, zero memory dirty rate) the
// stop-and-copy ships zero bytes and downtime is exactly the handoff
// budget — the floor of the downtime model.
TEST(Migration, ZeroDirtyDowntimeEqualsHandoffBudget)
{
    sim::EventQueue eq;
    bmcast::CloudConfig cfg = migrateConfig(2);
    cfg.migrate.memoryDirtyBytesPerSec = 0;
    bmcast::Cloud cloud(eq, "region", cfg);
    cloud.addImage("img", 32 * sim::kMiB, kImg);
    bmcast::Instance *inst = deployOne(eq, cloud, "img");
    ASSERT_NE(inst, nullptr);

    const unsigned src_slot = inst->lease().slot();
    ASSERT_EQ(cloud.migrate(*inst, 1u - src_slot),
              cloud::MigrateReject::None);
    migrate::MigrationManager *mig = inst->migration();
    ASSERT_TRUE(testutil::runUntil(
        eq, 40000 * sim::kSec, [&]() { return mig->finished(); }));

    const migrate::MigrateStats &st = mig->stats();
    ASSERT_FALSE(st.aborted);
    EXPECT_EQ(st.rounds, 1u);
    EXPECT_FALSE(st.forcedStop);
    EXPECT_EQ(st.finalBytes, 0u);
    EXPECT_EQ(st.downtime, cfg.migrate.handoffTime);
    EXPECT_GE(st.memoryBytesShipped, cfg.migrate.memoryBytes);
    EXPECT_EQ(inst->lease().state(), cloud::LeaseState::Serving);
    EXPECT_GT(inst->lease().migratedAt(), 0u);

    // The source machine scrubs and returns to the pool.
    sim::Tick horizon = eq.now() + 400 * sim::kSec;
    testutil::runUntil(eq, horizon,
                       [&]() { return cloud.freeMachines() == 1u; });
    EXPECT_EQ(cloud.freeMachines(), 1u);
}

// Convergence contract: an unforced stop-and-copy ships at most the
// threshold, and — idle guest at the pause, flat LAN, no congestion
// control — downtime is exactly the handoff budget plus the final
// shipment's wire time. The memory working set re-dirties during
// round 1's flight, so the final shipment is genuinely non-empty.
TEST(Migration, DowntimeWithinStopCopyBudget)
{
    sim::EventQueue eq;
    bmcast::CloudConfig cfg = migrateConfig(2);
    bmcast::Cloud cloud(eq, "region", cfg);
    cloud.addImage("img", 32 * sim::kMiB, kImg);
    bmcast::Instance *inst = deployOne(eq, cloud, "img");
    ASSERT_NE(inst, nullptr);

    ASSERT_EQ(cloud.migrate(*inst, 1u - inst->lease().slot()),
              cloud::MigrateReject::None);
    migrate::MigrationManager *mig = inst->migration();
    ASSERT_TRUE(testutil::runUntil(
        eq, 40000 * sim::kSec, [&]() { return mig->finished(); }));

    const migrate::MigrateStats &st = mig->stats();
    ASSERT_FALSE(st.aborted);
    if (!st.forcedStop) {
        EXPECT_LE(st.finalBytes,
                  cfg.migrate.stopCopyThresholdBytes);
    }
    EXPECT_GT(st.finalBytes, 0u);
    // 1 Gbps wire = 8 ns per byte, nothing else in the path.
    EXPECT_EQ(st.downtime,
              cfg.migrate.handoffTime + st.finalBytes * 8);
    EXPECT_GE(st.rounds, 1u);
    EXPECT_GT(st.bytesShipped, 0u);
}

using State = bmcast::Instance::State;

/** Run until @p done holds, appending every distinct state the
 *  instance shows between two events to @p seen. */
template <typename Pred>
bool
runLoggingState(sim::EventQueue &eq, bmcast::Instance &inst,
                std::vector<State> &seen, Pred &&done)
{
    return testutil::runUntil(eq, eq.now() + 40000 * sim::kSec, [&]() {
        if (seen.empty() || seen.back() != inst.state())
            seen.push_back(inst.state());
        return done();
    });
}

/** Provision, then start a migration once the instance is bare
 *  metal and Serving; returns the instance. The image is large
 *  enough that the guest boots before the copy lands, so the
 *  deployment passes through Serving. */
bmcast::Instance *
deployAndMigrate(sim::EventQueue &eq, bmcast::Cloud &cloud,
                 std::vector<State> &seen)
{
    cloud.addImage("img", 512 * sim::kMiB, kImg);
    bmcast::Instance *inst = cloud.provision("img", nullptr);
    EXPECT_NE(inst, nullptr);
    if (!inst)
        return nullptr;
    EXPECT_TRUE(runLoggingState(eq, *inst, seen, [&]() {
        return inst->state() == State::BareMetal &&
               inst->lease().state() == cloud::LeaseState::Serving;
    }));
    EXPECT_EQ(cloud.migrate(*inst, 1u - inst->lease().slot()),
              cloud::MigrateReject::None);
    return inst;
}

// The instance state machine across a migration: deployed, serving,
// bare metal; re-virtualized (mediated, so Serving) for the pre-copy;
// bare metal again on the destination after the handoff.
TEST(Migration, InstanceStateSequenceAcrossMigration)
{
    sim::EventQueue eq;
    bmcast::Cloud cloud(eq, "region", migrateConfig(2));
    std::vector<State> seen;
    bmcast::Instance *inst = deployAndMigrate(eq, cloud, seen);
    ASSERT_NE(inst, nullptr);
    ASSERT_TRUE(runLoggingState(eq, *inst, seen, [&]() {
        return inst->migration()->finished() &&
               inst->lease().state() == cloud::LeaseState::Serving;
    }));
    ASSERT_FALSE(inst->migration()->stats().aborted);
    EXPECT_EQ(seen, (std::vector<State>{State::Provisioning,
                                        State::Serving,
                                        State::BareMetal,
                                        State::Serving,
                                        State::BareMetal}));
}

// An aborted migration rolls the source back to bare metal.
TEST(Migration, InstanceStateSequenceAcrossAbortedMigration)
{
    sim::EventQueue eq;
    bmcast::Cloud cloud(eq, "region", migrateConfig(2));
    sim::FaultInjector fi(31);
    sim::SitePlan crash;
    crash.fireOn = {1};
    fi.arm(sim::FaultSite::MigrateDestCrash, crash);
    cloud.setFaultInjector(&fi);
    std::vector<State> seen;
    bmcast::Instance *inst = deployAndMigrate(eq, cloud, seen);
    ASSERT_NE(inst, nullptr);
    ASSERT_TRUE(runLoggingState(eq, *inst, seen, [&]() {
        return inst->migration()->finished() &&
               inst->lease().state() == cloud::LeaseState::Serving;
    }));
    ASSERT_TRUE(inst->migration()->stats().aborted);
    EXPECT_EQ(seen, (std::vector<State>{State::Provisioning,
                                        State::Serving,
                                        State::BareMetal,
                                        State::Serving,
                                        State::BareMetal}));
}

// A release racing the pre-copy wins: the instance ends Released.
TEST(Migration, InstanceStateSequenceReleasedDuringMigration)
{
    sim::EventQueue eq;
    bmcast::Cloud cloud(eq, "region", migrateConfig(2));
    std::vector<State> seen;
    bmcast::Instance *inst = deployAndMigrate(eq, cloud, seen);
    ASSERT_NE(inst, nullptr);
    ASSERT_TRUE(runLoggingState(eq, *inst, seen, [&]() {
        return inst->migration()->phase() ==
               migrate::MigrationManager::Phase::PreCopy;
    }));
    cloud.releaseLease(inst->lease());
    ASSERT_TRUE(runLoggingState(eq, *inst, seen, [&]() {
        return cloud.freeMachines() == 2u;
    }));
    EXPECT_EQ(inst->lease().state(), cloud::LeaseState::Released);
    EXPECT_EQ(seen, (std::vector<State>{State::Provisioning,
                                        State::Serving,
                                        State::BareMetal,
                                        State::Serving,
                                        State::Released}));
}

// Mobility machinery must be inert when unused: radically different
// migration tuning yields a tick-identical run as long as nobody
// calls migrate().
TEST(Migration, UnusedMigrationConfigIsInert)
{
    auto run = [](bmcast::CloudConfig cfg) {
        sim::EventQueue eq;
        bmcast::Cloud cloud(eq, "region", cfg);
        cloud.addImage("img", 32 * sim::kMiB, kImg);
        bmcast::Instance *inst = deployOne(eq, cloud, "img");
        EXPECT_NE(inst, nullptr);
        eq.stepWhile([&]() { return eq.now() < 40000 * sim::kSec; });
        return std::tuple<sim::Tick, sim::Tick, std::uint64_t>(
            inst->deployer().timeline().guestBootDone,
            inst->deployer().timeline().bareMetal, eq.executed());
    };

    bmcast::CloudConfig a = migrateConfig(2);
    bmcast::CloudConfig b = migrateConfig(2);
    b.migrate.memoryBytes = 4 * sim::kGiB;
    b.migrate.memoryDirtyBytesPerSec = 1 * sim::kGiB;
    b.migrate.stopCopyThresholdBytes = 1;
    b.migrate.maxRounds = 100;
    b.migrate.handoffTime = 7 * sim::kSec;
    EXPECT_EQ(run(a), run(b));
}

// Regression: a bitmap save requested while another save is in
// flight must not complete immediately — completion confirms
// durability of the *newest* bitmap state, which requires a fresh
// write after the in-flight one lands (the stop-and-copy handoff
// waits on exactly this).
TEST(Migration, PersistBitmapDefersCompletionToNewestToken)
{
    testutil::RigOptions opt;
    testutil::Rig rig(opt);
    bmcast::BmcastDeployer dep(rig.eq, "dep", *rig.machine,
                               *rig.guest, {testutil::kServerMac},
                               opt.imageSectors, rig.fastVmmParams(),
                               false);
    dep.run(nullptr);
    ASSERT_TRUE(testutil::runUntil(rig.eq, 4000 * sim::kSec, [&]() {
        return dep.vmm().phase() == bmcast::Vmm::Phase::Deployment;
    }));

    bool done1 = false, done2 = false;
    dep.vmm().saveBitmapNow([&]() { done1 = true; });

    // Newer state arrives while save #1 is in flight.
    const sim::Lba late = opt.imageSectors - 128;
    dep.vmm().bitmap().markFilled(late, 64);
    dep.vmm().saveBitmapNow([&]() { done2 = true; });
    EXPECT_FALSE(done2)
        << "second save completed synchronously against a stale "
           "in-flight token";

    ASSERT_TRUE(testutil::runUntil(rig.eq, 4000 * sim::kSec,
                                   [&]() { return done2; }));
    EXPECT_TRUE(done1);

    // The token on disk at completion reflects the late mark.
    std::uint64_t token = rig.machine->disk().store().baseAt(
        dep.vmm().bitmapHomeLba());
    bmcast::BlockBitmap restored(opt.imageSectors);
    ASSERT_TRUE(restored.restoreFromToken(token));
    EXPECT_TRUE(restored.isFilled(late, 64));
}

bench::MigrateWorldParams
worldParams(unsigned shards, std::uint64_t seed)
{
    bench::MigrateWorldParams p;
    p.racks = 8;
    p.shards = shards;
    p.seed = seed;
    p.imageBytes = 8 * sim::kMiB;
    p.migrate.memoryBytes = 4 * sim::kMiB;
    p.migrate.memoryDirtyBytesPerSec = 512 * sim::kKiB;
    p.migrate.stopCopyThresholdBytes = 1 * sim::kMiB;
    p.migrate.handoffTime = 20 * sim::kMs;
    p.runFor = 5 * sim::kSec;
    return p;
}

// The determinism gate: eight racks migrating to their neighbors
// over shared aggregation links produce the same fingerprint — every
// stat, both disks, every link meter — on 1, 2, 4 and 8 shards.
TEST(MigrateWorld, FingerprintIdenticalAcrossShardCounts)
{
    std::uint64_t serial_fp = 0;
    unsigned serial_done = 0;
    for (unsigned shards : {1u, 2u, 4u, 8u}) {
        bench::MigrateWorld w(worldParams(shards, 42));
        w.run();
        EXPECT_EQ(w.migrationsAborted(), 0u);
        if (shards == 1) {
            serial_fp = w.fingerprint();
            serial_done = w.migrationsDone();
            EXPECT_EQ(serial_done, w.prm.racks);
        } else {
            EXPECT_EQ(w.fingerprint(), serial_fp)
                << shards << " shards diverged from serial";
            EXPECT_EQ(w.migrationsDone(), serial_done);
        }
    }
}

// Byte identity holds in the sharded world too: every destination
// replica equals its source's (frozen-after-pause) disk.
TEST(MigrateWorld, ReplicasByteIdenticalToSources)
{
    bench::MigrateWorld w(worldParams(4, 7));
    w.run();
    ASSERT_EQ(w.migrationsDone(), w.prm.racks);
    for (unsigned r = 0; r < w.prm.racks; ++r) {
        unsigned dst = (r + 1) % w.prm.racks;
        EXPECT_TRUE(migrate::diffDisks(w.sourceDisk(r),
                                       w.destDisk(dst), 0,
                                       w.sectors())
                        .empty())
            << "rack " << r << " replica diverged";
        EXPECT_GT(w.stats(r).downtime, 0u);
    }
}

// And the fingerprint is seed-sensitive (the workload actually
// varies — a constant fingerprint would gate nothing).
TEST(MigrateWorld, FingerprintVariesWithSeed)
{
    bench::MigrateWorld a(worldParams(2, 1));
    a.run();
    bench::MigrateWorld b(worldParams(2, 2));
    b.run();
    EXPECT_NE(a.fingerprint(), b.fingerprint());
}

} // namespace
