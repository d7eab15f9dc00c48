/**
 * @file
 * A sharded malleable-metal world: per-rack instances live-migrating
 * to the neighbor rack over the region's aggregation fabric, driven
 * by deterministic dirty-write processes.
 *
 * The world exists to prove the mobility machinery deterministic
 * under the sharded kernel: R racks (bench/region.hh) each run one
 * source instance (a token disk plus a MigrationManager on the rack's
 * own EventQueue) that migrates to rack (r+1) % R. Every pre-copy
 * shipment is a region transfer() — split-charged, so each cross-rack
 * byte pays the same links a deployment would — acknowledged back to
 * the source through the mailbox. The whole schedule is a pure
 * function of (racks, seed), never of the shard count.
 *
 * fingerprint() folds every migration's stats, every disk's content
 * runs, the write-process counters and the topology byte meters into
 * one order-sensitive hash, which bench/abl_migrate gates on its exit
 * code and tests/migration_test.cc asserts directly.
 */

#ifndef BENCH_MIGRATE_WORLD_HH
#define BENCH_MIGRATE_WORLD_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench/region.hh"
#include "hw/disk_store.hh"
#include "migrate/migration.hh"
#include "simcore/logging.hh"
#include "simcore/random.hh"
#include "simcore/types.hh"

namespace bench {

struct MigrateWorldParams
{
    unsigned racks = 4;
    unsigned shards = 1;
    std::uint64_t seed = 1;

    sim::Bytes imageBytes = 32 * sim::kMiB;
    /** Aggregation fabric (shared; split-charged per rack). */
    double uplinkBps = 10e9;
    double oversubscription = 4.0;
    /** Cross-rack latency == the shard group's lookahead window. */
    sim::Tick uplinkLatency = sim::kMs;

    /** Dirty-write process: one burst every interval per rack. */
    sim::Tick writeInterval = 2 * sim::kMs;
    std::uint32_t writeBurstMax = 64; //!< sectors per burst, 1..max

    /** Every rack's migration starts here. */
    sim::Tick migrateAt = 50 * sim::kMs;
    sim::Tick runFor = 30 * sim::kSec;

    migrate::MigrateParams migrate;

    /** Armed on every rack's injector when probability/fireOn set. */
    sim::SitePlan streamDrop;
    sim::SitePlan destCrash;
};

class MigrateWorld
{
  public:
    explicit MigrateWorld(MigrateWorldParams p)
        : prm(p), region(p.racks, p.shards, p.uplinkLatency, p.seed),
          racks_(p.racks)
    {
        sim::fatalIf(prm.racks == 0, "migrate world needs racks");
        sectors_ = prm.imageBytes / sim::kSectorSize;
        region.buildFabric(prm.uplinkBps, prm.oversubscription);

        for (unsigned r = 0; r < prm.racks; ++r) {
            Rack &rk = racks_[r];
            sim::FaultInjector &fi = region.faults(r);
            if (armed(prm.streamDrop))
                fi.arm(sim::FaultSite::MigrateStreamDrop,
                       prm.streamDrop);
            if (armed(prm.destCrash))
                fi.arm(sim::FaultSite::MigrateDestCrash,
                       prm.destCrash);

            // The source instance's disk starts as a freshly landed
            // image; the write process dirties it from tick 0.
            rk.disk.write(0, sectors_, imageBase(r));
            rk.mgr = std::make_unique<migrate::MigrationManager>(
                region.queue(r), "rack" + std::to_string(r) + ".mig",
                prm.migrate, sectors_);
            rk.mgr->setFaultInjector(&fi);
            rk.wrRng =
                sim::Rng(sim::Rng::seedForShard("migw", prm.seed, r));
        }

        for (unsigned r = 0; r < prm.racks; ++r) {
            armWriter(r);
            region.queue(r).scheduleAt(
                prm.migrateAt, [this, r]() { startMigration(r); });
        }
    }

    /** Drive to runFor (window-aligned). */
    void run() { region.runTo(prm.runFor); }

    unsigned
    migrationsDone() const
    {
        unsigned n = 0;
        for (const Rack &rk : racks_)
            n += rk.mgr->phase() ==
                 migrate::MigrationManager::Phase::Done;
        return n;
    }
    unsigned
    migrationsAborted() const
    {
        unsigned n = 0;
        for (const Rack &rk : racks_)
            n += rk.mgr->stats().aborted;
        return n;
    }
    const migrate::MigrateStats &
    stats(unsigned rack) const
    {
        return racks_.at(rack).mgr->stats();
    }
    /** The migrated replica rack @p r received from its neighbor. */
    const hw::DiskStore &
    destDisk(unsigned r) const
    {
        return racks_.at(r).destDisk;
    }
    const hw::DiskStore &
    sourceDisk(unsigned r) const
    {
        return racks_.at(r).disk;
    }
    sim::Lba sectors() const { return sectors_; }

    /** Order-sensitive digest of every simulated outcome. */
    std::uint64_t
    fingerprint() const
    {
        std::uint64_t h = sim::kFingerprintSeed;
        for (unsigned r = 0; r < prm.racks; ++r) {
            const Rack &rk = racks_[r];
            const migrate::MigrateStats &st = rk.mgr->stats();
            h = sim::fingerprintMix(h, st.rounds);
            h = sim::fingerprintMix(h, st.bytesShipped);
            h = sim::fingerprintMix(h, st.diskBytesShipped);
            h = sim::fingerprintMix(h, st.memoryBytesShipped);
            h = sim::fingerprintMix(h, st.finalBytes);
            h = sim::fingerprintMix(h, st.forcedStop);
            h = sim::fingerprintMix(h, st.aborted);
            h = sim::fingerprintMix(h, st.abortAtRound);
            h = sim::fingerprintMix(h, st.startedAt);
            h = sim::fingerprintMix(h, st.pausedAt);
            h = sim::fingerprintMix(h, st.finishedAt);
            h = sim::fingerprintMix(h, st.downtime);
            h = sim::fingerprintMix(h, rk.writes);
            h = sim::fingerprintMix(h, rk.sectorsWritten);
            h = foldDisk(h, rk.disk);
            h = foldDisk(h, rk.destDisk);
            h = sim::fingerprintMix(h, region.topology().uplinkBytes(r));
            h = sim::fingerprintMix(h,
                                    region.topology().downlinkBytes(r));
            const sim::FaultInjector &fi = region.faults(r);
            h = sim::fingerprintMix(
                h, fi.triggers(sim::FaultSite::MigrateStreamDrop));
            h = sim::fingerprintMix(
                h, fi.triggers(sim::FaultSite::MigrateDestCrash));
        }
        return h;
    }

    const MigrateWorldParams prm;
    Region region;

  private:
    struct Rack
    {
        hw::DiskStore disk;     //!< the source instance's local disk
        hw::DiskStore destDisk; //!< replica arriving from rack r-1
        std::unique_ptr<migrate::MigrationManager> mgr;
        sim::Rng wrRng{0};
        std::uint64_t writes = 0;
        std::uint64_t sectorsWritten = 0;
        std::uint64_t nextBase = 1;
    };

    static bool
    armed(const sim::SitePlan &p)
    {
        return p.probability > 0.0 || !p.fireOn.empty();
    }

    static std::uint64_t
    imageBase(unsigned rack)
    {
        return 0xABCD000000000100ULL + rack;
    }

    std::uint64_t
    foldDisk(std::uint64_t h, const hw::DiskStore &d) const
    {
        d.forEachBase(0, sectors_,
                      [&h](sim::Lba lba, std::uint64_t count,
                           std::uint64_t base) {
                          h = sim::fingerprintMix(h, lba);
                          h = sim::fingerprintMix(h, count);
                          h = sim::fingerprintMix(h, base);
                      });
        return h;
    }

    /** The dirty-write process: one burst per interval, paused with
     *  the guest during stop-and-copy, retired once the instance has
     *  moved (an aborted migration keeps writing — the guest never
     *  stopped). */
    void
    armWriter(unsigned r)
    {
        region.queue(r).schedule(prm.writeInterval, [this, r]() {
            Rack &rk = racks_[r];
            using Phase = migrate::MigrationManager::Phase;
            if (rk.mgr->phase() == Phase::Done)
                return; // instance left this rack
            if (!rk.mgr->paused()) {
                sim::Lba lba = rk.wrRng.uniformInt(0, sectors_ - 1);
                std::uint64_t count =
                    rk.wrRng.uniformInt(1, prm.writeBurstMax);
                if (lba + count > sectors_)
                    count = sectors_ - lba;
                std::uint64_t base =
                    0xD000000000000000ULL |
                    (std::uint64_t(r) << 40) | rk.nextBase++;
                rk.disk.write(lba, count, base);
                rk.mgr->noteGuestWrite(
                    lba, static_cast<std::uint32_t>(count));
                ++rk.writes;
                rk.sectorsWritten += count;
            }
            armWriter(r);
        });
    }

    void
    startMigration(unsigned r)
    {
        const unsigned dst = (r + 1) % prm.racks;

        migrate::MigrationManager::Hooks hooks;
        // Re-virtualization is a fixed-cost stage here: the world
        // has no VMM, the tracker is live from tick 0 (equivalent to
        // seeding with the pre-migration dirty set).
        hooks.revirt = [this, r](std::function<void()> done) {
            region.queue(r).schedule(sim::kMs, std::move(done));
        };

        hooks.ship = [this, r, dst](sim::Bytes bytes,
                                    std::function<void()> done) {
            sim::EventQueue &q = region.queue(r);
            if (prm.racks == 1) {
                // Single-rack world: the up-link still books, but
                // there is no fabric to cross.
                q.scheduleAt(region.departUplink(r, bytes, q.now()),
                             std::move(done));
                return;
            }
            // Acknowledge back to the source shard once the replica
            // rack's down-link clears.
            region.transfer(
                r, dst, bytes, q.now(),
                [this, r, dst,
                 done = std::move(done)](sim::Tick clear) mutable {
                    region.group.postToRack(dst, r,
                                            clear + region.window(),
                                            std::move(done));
                });
        };

        hooks.handoff = [this, r, dst](std::function<void()> done) {
            // Apply the byte-identical replica on the destination
            // rack: snapshot by value, apply on its shard.
            std::vector<migrate::DirtyRun> runs;
            racks_[r].disk.forEachBase(
                0, sectors_,
                [&runs](sim::Lba lba, std::uint64_t count,
                        std::uint64_t base) {
                    if (base != 0)
                        runs.push_back({lba, count, base});
                });
            if (prm.racks == 1) {
                for (const auto &dr : runs)
                    racks_[r].destDisk.write(dr.lba, dr.count,
                                             dr.base);
            } else {
                region.post(r, dst, region.window(),
                            [this, dst, runs = std::move(runs)]() {
                                for (const auto &dr : runs)
                                    racks_[dst].destDisk.write(
                                        dr.lba, dr.count, dr.base);
                            });
            }
            done();
        };

        racks_[r].mgr->start(std::move(hooks));
    }

    sim::Lba sectors_ = 0;
    std::vector<Rack> racks_;
};

} // namespace bench

#endif // BENCH_MIGRATE_WORLD_HH
