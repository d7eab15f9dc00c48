/**
 * @file
 * The sharded region every rack-scale bench world is built on.
 *
 * A Region is R racks on one sim::ShardGroup — one EventQueue and one
 * sim::FaultInjector stream per rack, cross-rack closures through the
 * group's bounded mailboxes, and a lookahead window equal to the
 * inter-rack link latency. A world adds what it needs on top:
 *
 *  - buildTors(): a ToR segment (net::Network) per rack with a seed
 *    aoe::AoeServer exporting the golden image. Frames addressed to
 *    another rack's MAC leave through the segment's uplink as a
 *    transfer() and are re-injected into the destination ToR on its
 *    own shard;
 *  - buildFabric(): one shared net::Topology — per-rack up and down
 *    aggregation links — and optionally a cloud::CongestionController
 *    over it.
 *
 * The storm, fleet, migrate and repair worlds are scenario code on
 * this scaffold: what runs on each rack and what their fingerprints
 * fold. Everything here is a pure function of (racks, window, seed);
 * the shard count only decides which thread runs a rack.
 *
 * Split-charge contract (transfer()). B bytes leaving rack s at tick
 * t book s's up-link at t, on s's shard. They reach rack d one
 * aggregation hop plus one link latency after the up-link clears,
 * through the s -> d mailbox. On arrival they book d's down-link, on
 * d's shard, and the caller gets the tick the down-link clears (never
 * earlier than the arrival). Each half touches only its own rack's
 * link, so every link meter has exactly one owning shard. Without a
 * fabric a transfer costs the bare link latency and clears on
 * arrival.
 */

#ifndef BENCH_REGION_HH
#define BENCH_REGION_HH

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "aoe/server.hh"
#include "bench/harness.hh"
#include "cloud/congestion.hh"
#include "hw/machine.hh"
#include "net/network.hh"
#include "net/topology.hh"
#include "simcore/fault_injector.hh"
#include "simcore/random.hh"
#include "simcore/shard_group.hh"

namespace bench {

class Region
{
  public:
    /** Station kinds of the MAC scheme. */
    enum Station : unsigned { kSeed = 0, kNode = 1, kMgmt = 2, kServing = 3 };

    /** MAC scheme: 0x5254 | rack (bits 24-31) | kind (bits 20-23) |
     *  station index (bits 0-19). The uplink routes on the rack
     *  field alone. */
    static net::MacAddr
    mac(unsigned rack, Station kind, unsigned i)
    {
        return 0x525400000000ULL + (net::MacAddr(rack) << 24) +
               (net::MacAddr(kind) << 20) + i;
    }
    static net::MacAddr
    serverMac(unsigned rack)
    {
        return mac(rack, kSeed, 1);
    }
    static unsigned
    rackOfMac(net::MacAddr m)
    {
        return static_cast<unsigned>((m >> 24) & 0xFF);
    }

    /** @p racks rack queues on @p shards threads; @p linkLatency is
     *  both the inter-rack latency and the lookahead window. */
    Region(unsigned racks, unsigned shards, sim::Tick linkLatency,
           std::uint64_t seed)
        : group(sim::ShardGroup::Params{racks, shards, linkLatency,
                                        4096}),
          seed_(seed)
    {
        for (unsigned r = 0; r < racks; ++r)
            faults_.push_back(
                std::make_unique<sim::FaultInjector>(seed, r));
    }

    unsigned racks() const { return group.racks(); }
    sim::Tick window() const { return group.window(); }
    sim::EventQueue &queue(unsigned r) { return group.rackQueue(r); }
    sim::FaultInjector &faults(unsigned r) { return *faults_.at(r); }
    const sim::FaultInjector &
    faults(unsigned r) const
    {
        return *faults_.at(r);
    }

    /**
     * Give every rack its ToR segment and a seed server on a
     * @p seedBps port exporting @p imageSectors of the golden image.
     */
    void
    buildTors(double seedBps, sim::Lba imageSectors)
    {
        for (unsigned r = 0; r < racks(); ++r) {
            sim::EventQueue &eq = queue(r);
            const std::string rack = "rack" + std::to_string(r);
            tors_.push_back(std::make_unique<net::Network>(
                eq, rack + ".tor", 4 * sim::kUs,
                sim::Rng::seedForShard("tor", seed_, r)));
            net::Network &tor = *tors_.back();
            tor.setFaultInjector(faults_[r].get());

            net::Port &sp = tor.attach(
                serverMac(r), net::PortConfig{seedBps, 9000, 0.0});
            aoe::ServerParams spar;
            spar.workers = 8;
            spar.cacheHitRate = 0.9;
            seeds_.push_back(std::make_unique<aoe::AoeServer>(
                eq, rack + ".seed", sp, spar));
            seeds_.back()->addTarget(0, 0, imageSectors, kImageBase);
            seeds_.back()->setFaultInjector(faults_[r].get());

            tor.setUplink([this, r](const net::Frame &f,
                                    sim::Tick depart) {
                unsigned dst = rackOfMac(f.dst);
                if (dst >= racks() || dst == r)
                    return; // not routable: drop at the spine
                transfer(r, dst, f.wireSize(), depart,
                         [this, dst, f](sim::Tick clear) {
                             sim::EventQueue &q = queue(dst);
                             net::Network *net = tors_[dst].get();
                             if (clear <= q.now())
                                 net->inject(f);
                             else
                                 q.scheduleAt(clear, [net, f]() {
                                     net->inject(f);
                                 });
                         });
            });
        }
    }
    net::Network &tor(unsigned r) { return *tors_.at(r); }
    const net::Network &tor(unsigned r) const { return *tors_.at(r); }
    const aoe::AoeServer &
    seedServer(unsigned r) const
    {
        return *seeds_.at(r);
    }

    /**
     * A deploy-target machine at station @p idx of rack @p r, both
     * NICs on the rack's ToR (after buildTors()), on the rack's fault
     * stream, its RNG stream named @p seedKey.
     */
    std::unique_ptr<hw::Machine>
    buildNode(unsigned r, unsigned idx, const std::string &seedKey,
              sim::Bytes diskBytes)
    {
        hw::MachineConfig mc;
        mc.name = "rack" + std::to_string(r) + ".node" +
                  std::to_string(idx);
        mc.storage = hw::StorageKind::Ahci;
        mc.disk.capacityBytes = diskBytes;
        mc.hasInfiniBand = false;
        mc.seed = sim::Rng::seedForShard(seedKey, seed_, r);
        auto m = std::make_unique<hw::Machine>(
            queue(r), mc, tor(r), mac(r, kNode, idx), tor(r),
            mac(r, kMgmt, idx));
        m->setFaultInjector(faults_[r].get());
        return m;
    }

    /** Add the shared aggregation fabric (@p uplinkBps trunks at
     *  @p oversubscription) and, given @p shaping, a congestion
     *  controller over it. */
    void
    buildFabric(double uplinkBps, double oversubscription,
                std::optional<cloud::CongestionParams> shaping = {})
    {
        net::TopologyConfig tc;
        tc.racks = racks();
        tc.uplinkBps = uplinkBps;
        tc.oversubscription = oversubscription;
        topo_ = std::make_unique<net::Topology>(tc);
        if (shaping)
            congestion_ = std::make_unique<cloud::CongestionController>(
                *shaping, racks(), topo_.get());
    }
    net::Topology &topology() { return *topo_; }
    const net::Topology &topology() const { return *topo_; }
    cloud::CongestionController *congestion() { return congestion_.get(); }
    const cloud::CongestionController *
    congestion() const
    {
        return congestion_.get();
    }

    /**
     * The source half of a transfer: book @p bytes on rack @p src's
     * up-link at @p depart (when there is a fabric) and return the
     * arrival tick at the far side. Source shard only.
     */
    sim::Tick
    departUplink(unsigned src, sim::Bytes bytes, sim::Tick depart)
    {
        sim::Tick at = depart;
        if (topo_)
            at = topo_->chargeUplink(src, bytes, depart) +
                 topo_->config().aggHopLatency;
        return at + window();
    }

    /**
     * One cross-rack transfer under the split-charge contract (file
     * comment): up-link on the source shard, a mailbox hop, down-link
     * on the destination shard, then @p onClear(clearTick) runs on
     * the destination shard.
     */
    template <typename F>
    void
    transfer(unsigned src, unsigned dst, sim::Bytes bytes,
             sim::Tick depart, F &&onClear)
    {
        group.postToRack(
            src, dst, departUplink(src, bytes, depart),
            [this, dst, bytes,
             cb = std::forward<F>(onClear)]() mutable {
                sim::Tick now = queue(dst).now();
                sim::Tick clear = now;
                if (topo_)
                    clear = std::max(
                        topo_->chargeDownlink(dst, bytes, now), now);
                cb(clear);
            });
    }

    /** How post() delivers when source and destination coincide. */
    enum class SameRack { Local, Mailbox };

    /**
     * Hand @p cb to rack @p dst, @p delay after rack @p src's now:
     * control-plane orders and notices to and from the plane rack.
     * A same-rack post is a local event unless @p same says Mailbox.
     */
    template <typename F>
    void
    post(unsigned src, unsigned dst, sim::Tick delay, F &&cb,
         SameRack same = SameRack::Local)
    {
        sim::EventQueue &q = queue(src);
        sim::Tick when = q.now() + delay;
        if (src == dst && same == SameRack::Local)
            q.scheduleAt(when, std::forward<F>(cb));
        else
            group.postToRack(src, dst, when, std::forward<F>(cb));
    }

    /**
     * Run the group in @p chunk steps (window-aligned) until @p pred
     * holds between steps or the first window boundary at or past
     * @p deadline. Chunking changes no simulated result, but where a
     * predicate stops the run does: keep a world's chunk fixed.
     */
    template <typename Pred>
    bool
    runUntil(sim::Tick deadline, Pred &&pred,
             sim::Tick chunk = 250 * sim::kMs)
    {
        const sim::Tick w = window();
        chunk = std::max(w, chunk - chunk % w);
        deadline = (deadline + w - 1) / w * w;
        while (!pred() && group.committed() < deadline)
            group.run(std::min(deadline, group.committed() + chunk));
        return pred();
    }
    /** Run to @p t (rounded up to the window grid). */
    void
    runTo(sim::Tick t)
    {
        runUntil(t, []() { return false; });
    }

    std::uint64_t totalExecuted() const { return group.totalExecuted(); }

    sim::ShardGroup group;

  private:
    std::uint64_t seed_;
    std::vector<std::unique_ptr<sim::FaultInjector>> faults_;
    std::vector<std::unique_ptr<net::Network>> tors_;
    std::vector<std::unique_ptr<aoe::AoeServer>> seeds_;
    std::unique_ptr<net::Topology> topo_;
    std::unique_ptr<cloud::CongestionController> congestion_;
};

} // namespace bench

#endif // BENCH_REGION_HH
