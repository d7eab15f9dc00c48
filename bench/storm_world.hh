/**
 * @file
 * A datacenter-scale deploy storm on the sharded region.
 *
 * R racks (bench/region.hh: ToR segment, seed server and fault
 * stream per rack, no aggregation fabric), with nodes/R machines per
 * rack running the full BMcast pipeline — VMM, AoE initiator, guest
 * boot, background copy, devirtualization. Most nodes deploy from
 * their rack-local seed; every remoteEvery-th node deploys from the
 * *next* rack's seed, so real AoE requests and data responses cross
 * shard boundaries both ways for the whole run.
 *
 * fingerprint() must not depend on the shard count (abl_storm gates
 * it). With racks = 1 there are no channels and the group is the
 * serial kernel; abl_storm checks that against a plain EventQueue
 * drive of the same single-segment world.
 */

#ifndef BENCH_STORM_WORLD_HH
#define BENCH_STORM_WORLD_HH

#include <memory>
#include <string>
#include <vector>

#include "bench/harness.hh"
#include "bench/region.hh"
#include "bmcast/deployer.hh"
#include "guest/guest_os.hh"
#include "hw/machine.hh"

namespace bench {

struct StormParams
{
    unsigned nodes = 512;
    unsigned racks = 8;
    unsigned shards = 1;
    /** Inter-rack link latency == the conservative lookahead. */
    sim::Tick uplinkLatency = 1 * sim::kMs;
    sim::Bytes imageBytes = 16 * sim::kMiB;
    /** Every Nth node deploys from the next rack's seed (0 = all
     *  rack-local). */
    unsigned remoteEvery = 7;
    /** Provision arrival stagger between consecutive nodes. */
    sim::Tick stagger = 20 * sim::kMs;
    std::uint64_t seed = 1;
};

class StormWorld
{
  public:
    explicit StormWorld(StormParams p)
        : prm(p), region(p.racks, p.shards, p.uplinkLatency, p.seed),
          racks_(p.racks)
    {
        const sim::Lba sectors = prm.imageBytes / sim::kSectorSize;
        region.buildTors(1e9, sectors);

        // Machines, guests, deployers — round-robin across racks so
        // the storm lands rack-aware, like Cloud placement.
        for (unsigned i = 0; i < prm.nodes; ++i) {
            unsigned r = i % prm.racks;
            Rack &rack = racks_[r];
            sim::EventQueue &eq = region.queue(r);
            auto slot = static_cast<unsigned>(rack.machines.size());

            rack.machines.push_back(region.buildNode(
                r, slot, "machine" + std::to_string(slot),
                4 * prm.imageBytes));
            hw::Machine &m = *rack.machines.back();

            guest::GuestOsParams gp;
            gp.boot = stormBootTrace();
            gp.seed = sim::Rng::seedForShard(
                "guest" + std::to_string(slot), prm.seed, r);
            rack.guests.push_back(std::make_unique<guest::GuestOs>(
                eq, m.name() + ".guest", m, gp));

            // Cross-rack deployments exercise the mailbox path with
            // real AoE request/response streams.
            unsigned target_rack = r;
            if (prm.remoteEvery > 0 && prm.racks > 1 &&
                i % prm.remoteEvery == 0)
                target_rack = (r + 1) % prm.racks;
            rack.deps.push_back(
                std::make_unique<bmcast::BmcastDeployer>(
                    eq, m.name() + ".dep", m, *rack.guests.back(),
                    std::vector<net::MacAddr>{Region::serverMac(target_rack)},
                    sectors, stormVmmParams(), false));
        }
    }

    /** Stagger the provision arrivals and start every deployment. */
    void
    deployAll()
    {
        for (unsigned r = 0; r < prm.racks; ++r) {
            Rack &rack = racks_[r];
            for (std::size_t i = 0; i < rack.deps.size(); ++i) {
                // Global arrival order interleaves racks the way
                // round-robin placement filled them.
                sim::Tick at =
                    (i * prm.racks + r) * prm.stagger + 1;
                bmcast::BmcastDeployer *dep = rack.deps[i].get();
                Rack *rk = &rack;
                region.queue(r).scheduleAt(at, [dep, rk]() {
                    dep->onBareMetal([rk]() { ++rk->done; });
                    dep->run([]() {});
                });
            }
        }
    }

    bool
    allDone() const
    {
        for (const Rack &rack : racks_)
            if (rack.done != rack.deps.size())
                return false;
        return true;
    }

    /**
     * Deterministic fold of the simulated result stream, in rack
     * order: every deployment's timeline ticks, every seed server's
     * bytes shipped, every segment's forwarding counts, every rack
     * queue's event totals.
     */
    std::uint64_t
    fingerprint() const
    {
        std::uint64_t h = sim::kFingerprintSeed;
        for (unsigned r = 0; r < prm.racks; ++r) {
            for (const auto &dep : racks_[r].deps) {
                const auto &tl = dep->timeline();
                h = sim::fingerprintMix(h, tl.powerOn);
                h = sim::fingerprintMix(h, tl.vmmReady);
                h = sim::fingerprintMix(h, tl.guestBootDone);
                h = sim::fingerprintMix(h, tl.copyComplete);
                h = sim::fingerprintMix(h, tl.bareMetal);
            }
            h = sim::fingerprintMix(
                h, region.seedServer(r).dataBytesOut());
            h = sim::fingerprintMix(h, region.tor(r).framesForwarded());
            h = sim::fingerprintMix(h, region.tor(r).framesUplinked());
            h = sim::fingerprintMix(
                h, region.group.rackQueue(r).executed());
        }
        return h;
    }

    /** Every deployed disk carries the full golden image. */
    bool
    imagesIntact() const
    {
        const sim::Lba sectors = prm.imageBytes / sim::kSectorSize;
        for (const Rack &rack : racks_)
            for (const auto &m : rack.machines)
                if (!m->disk().store().rangeHasBase(0, sectors,
                                                    kImageBase))
                    return false;
        return true;
    }

    /** Small, fast boot working set: the storm varies fleet scale,
     *  not per-node boot cost. */
    static guest::BootTrace
    stormBootTrace()
    {
        guest::BootTrace b;
        b.loaderBytes = 256 * sim::kKiB;
        b.kernelBytes = 1 * sim::kMiB;
        b.numReads = 40;
        b.avgReadBytes = 8 * sim::kKiB;
        b.seqFraction = 0.35;
        b.cpuTotal = 400 * sim::kMs;
        b.regionBytes = 4 * sim::kMiB;
        return b;
    }

    static bmcast::VmmParams
    stormVmmParams()
    {
        bmcast::VmmParams p;
        p.bootTime = 500 * sim::kMs;
        p.moderation.vmmWriteInterval = 2 * sim::kMs;
        p.moderation.guestIoFreqThreshold = 1e9;
        return p;
    }

    StormParams prm;
    Region region;

  private:
    struct Rack
    {
        std::vector<std::unique_ptr<hw::Machine>> machines;
        std::vector<std::unique_ptr<guest::GuestOs>> guests;
        std::vector<std::unique_ptr<bmcast::BmcastDeployer>> deps;
        unsigned done = 0;
    };

    std::vector<Rack> racks_;
};

} // namespace bench

#endif // BENCH_STORM_WORLD_HH
