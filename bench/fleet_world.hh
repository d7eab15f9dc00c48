/**
 * @file
 * Fleet-scale control-plane world on the sharded region.
 *
 * The storm world's racks (bench/region.hh) plus the full control
 * stack and a shared aggregation fabric:
 *
 *  - a cloud::ControlPlane lives on rack 0's queue; its
 *    ProvisionerPort implementation (FleetPort) carries deployment
 *    and release orders to the owning rack as cross-shard messages
 *    and the completion notifications back, so lease admission,
 *    placement and teardown are exercised *through* the mailbox
 *    fabric rather than inline;
 *  - every cross-rack frame is split-charged on the region's
 *    net::Topology; links model FIFO occupancy, so deployment and
 *    serving flows genuinely queue behind each other;
 *  - an optional cloud::CongestionController shapes each lease's
 *    deployment fetches against its rack lane (linkShare of the
 *    effective aggregation capacity), which is what keeps serving
 *    headroom during a flash crowd;
 *  - per-rack serving traffic: rack r streams stamped frames to a
 *    sink in rack (r+1) % R, sharing the sink rack's down-link with
 *    deployment data. Goodput counts only frames delivered within
 *    the one-way latency SLO — the paper's agility claim is that
 *    provisioning storms must not break serving tenants.
 *
 * Deployments are deliberately cross-rack: rack r's nodes pull their
 * image from rack (r+1) % R's seed, so deployment data rides up_[r+1]
 * and down_[r] for the whole run. fingerprint() must not depend on
 * the shard count.
 */

#ifndef BENCH_FLEET_WORLD_HH
#define BENCH_FLEET_WORLD_HH

#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "bench/region.hh"
#include "bench/storm_world.hh"
#include "bmcast/deployer.hh"
#include "cloud/control_plane.hh"
#include "guest/guest_os.hh"
#include "hw/machine.hh"
#include "simcore/logging.hh"

namespace bench {

struct FleetParams
{
    unsigned nodes = 96; ///< must be a multiple of racks
    unsigned racks = 8;
    unsigned shards = 1;
    /** Inter-rack link latency == the conservative lookahead. */
    sim::Tick uplinkLatency = 1 * sim::kMs;
    sim::Bytes imageBytes = 16 * sim::kMiB;
    std::uint64_t seed = 1;

    /** @name Aggregation fabric */
    /// @{
    double uplinkBps = 4e9;
    double oversubscription = 4.0; ///< effective link = 1 Gb/s
    /// @}

    /** @name Deployment shaping (the congestion controller) */
    /// @{
    bool shaped = true;
    double linkShare = 0.6; ///< deployment's share of a rack link
    double tenantShare = 0.5; ///< per-tenant cap inside a lane
    /// @}

    /** @name Control plane */
    /// @{
    std::size_t queueCapacity = 4096;
    std::size_t perTenantQueueCap = 0;
    sim::Tick scrubTime = 0;
    /// @}

    /** @name Serving traffic (0 interval disables) */
    /// @{
    sim::Bytes servingPayload = 8 * sim::kKiB;
    sim::Tick servingInterval = 250 * sim::kUs;
    /**
     * One-way delivery SLO; later frames count as lost goodput. A
     * cross-rack serving frame traverses two aggregation links, and a
     * shaped deployment keeps at most one 1 MiB copy block in flight
     * per rack lane (8.4 ms of serialization at the 1 Gb/s effective
     * link), so the shaped worst case is one burst on each link:
     * ~17 ms. The SLO sits just above that. Unshaped deployment
     * stacks one burst per concurrent flow on the same links, so a
     * flash crowd pushes serving delay far past the SLO.
     */
    sim::Tick servingSlo = 20 * sim::kMs;
    /// @}
};

class FleetWorld
{
  public:
    /** EtherType of serving-traffic frames (sink filter). */
    static constexpr std::uint16_t kServEtherType = 0x88B5;

    explicit FleetWorld(FleetParams p)
        : prm(p), region(p.racks, p.shards, p.uplinkLatency, p.seed),
          port_(*this)
    {
        sim::fatalIf(prm.racks == 0 || prm.nodes % prm.racks != 0,
                     "fleet nodes must stripe evenly over racks");
        sectors_ = prm.imageBytes / sim::kSectorSize;

        std::optional<cloud::CongestionParams> shaping;
        if (prm.shaped) {
            shaping.emplace();
            shaping->enabled = true;
            shaping->linkShare = prm.linkShare;
            shaping->tenantShare = prm.tenantShare;
        }
        region.buildFabric(prm.uplinkBps, prm.oversubscription, shaping);
        // A 10G seed NIC: the aggregation fabric, not the seed port,
        // is the scarce resource the controller manages.
        region.buildTors(10e9, sectors_);

        activeDeploys_.assign(prm.racks, 0);
        racks_.resize(prm.racks);
        const unsigned per_rack = prm.nodes / prm.racks;
        for (unsigned r = 0; r < prm.racks; ++r) {
            Rack &rack = racks_[r];
            rack.slots.resize(per_rack);
            if (prm.servingInterval == 0 || prm.racks < 2)
                continue;
            net::Network &tor = region.tor(r);
            rack.servPort =
                &tor.attach(Region::mac(r, Region::kServing, 0),
                            net::PortConfig{1e9, 9000, 0.0});
            net::Port &sink =
                tor.attach(Region::mac(r, Region::kServing, 1),
                           net::PortConfig{1e9, 9000, 0.0});
            sink.onReceive([this, r](const net::Frame &f) {
                onServingFrame(r, f);
            });
        }

        // Machines: slot s lives in rack s % racks (the plane's
        // rackOfSlot contract), persistent across leases.
        for (unsigned s = 0; s < prm.nodes; ++s) {
            unsigned r = s % prm.racks;
            racks_[r].slots[s / prm.racks].machine = region.buildNode(
                r, s / prm.racks, "machine" + std::to_string(s),
                4 * prm.imageBytes);
        }

        cloud::ControlPlaneParams cpp;
        cpp.queue.capacity = prm.queueCapacity;
        cpp.queue.perTenantCap = prm.perTenantQueueCap;
        cpp.scrubTime = prm.scrubTime;
        plane_ = std::make_unique<cloud::ControlPlane>(
            region.queue(0), "fleet.cp", cpp, port_);
    }

    /** @name Control-plane surface (rack-0 context or between runs) */
    /// @{
    cloud::Lease *
    submitLease(cloud::LeaseRequest rq,
                cloud::Lease::ServingFn onServing = {},
                cloud::Lease::RejectedFn onRejected = {})
    {
        return plane_->submit(
            std::move(rq),
            [this, fn = std::move(onServing)](cloud::Lease &l) {
                if (activeDeploys_[l.rack()] > 0)
                    --activeDeploys_[l.rack()];
                deployDone_.insert(l.id());
                if (fn)
                    fn(l);
            },
            std::move(onRejected));
    }

    void releaseLease(cloud::Lease &l) { plane_->release(l); }
    cloud::ControlPlane &plane() { return *plane_; }
    /// @}

    /** @name Serving traffic */
    /// @{
    /** Start every rack's serving stream (slightly desynchronized)
     *  until @p until. Call before the first run. */
    void
    startServing(sim::Tick start, sim::Tick until)
    {
        if (prm.servingInterval == 0 || prm.racks < 2)
            return;
        for (unsigned r = 0; r < prm.racks; ++r) {
            sim::Tick t0 = start + r * 37 * sim::kUs;
            region.queue(r).scheduleAt(
                t0, [this, r, until]() { servTick(r, until); });
        }
    }

    /** Goodput bytes (within the SLO) summed over sinks; safe to
     *  read between runs — the window snapshots. */
    sim::Bytes
    servingGoodBytes() const
    {
        sim::Bytes b = 0;
        for (const Rack &r : racks_)
            b += r.servGoodBytes;
        return b;
    }
    /// @}

    /**
     * Deterministic fold of the simulated result stream: every
     * lease's recorded timeline and final state, every seed's bytes,
     * every link's occupancy counters, every sink's goodput, every
     * rack queue's event total.
     */
    std::uint64_t
    fingerprint() const
    {
        std::uint64_t h = sim::kFingerprintSeed;
        const net::Topology &topo = region.topology();
        const cloud::CongestionController *cc = region.congestion();
        for (unsigned r = 0; r < prm.racks; ++r) {
            const Rack &rack = racks_[r];
            h = sim::fingerprintMix(
                h, region.seedServer(r).dataBytesOut());
            h = sim::fingerprintMix(h, region.tor(r).framesForwarded());
            h = sim::fingerprintMix(h, region.tor(r).framesUplinked());
            h = sim::fingerprintMix(h, rack.servTx);
            h = sim::fingerprintMix(h, rack.servRxBytes);
            h = sim::fingerprintMix(h, rack.servGoodBytes);
            h = sim::fingerprintMix(h, topo.uplinkBytes(r));
            h = sim::fingerprintMix(h, topo.downlinkBytes(r));
            h = sim::fingerprintMix(h, topo.uplinkFrames(r));
            h = sim::fingerprintMix(h, topo.downlinkFrames(r));
            if (cc) {
                h = sim::fingerprintMix(h, cc->grantedBytes(r));
                h = sim::fingerprintMix(h, cc->throttleDelay(r));
            }
            h = sim::fingerprintMix(
                h, region.group.rackQueue(r).executed());
        }
        for (const auto &lp : plane_->leases()) {
            const cloud::Lease &l = *lp;
            h = sim::fingerprintMix(h, l.id());
            h = sim::fingerprintMix(
                h, static_cast<std::uint64_t>(l.state()));
            h = sim::fingerprintMix(
                h, static_cast<std::uint64_t>(l.rejectReason()));
            h = sim::fingerprintMix(h, l.slot());
            h = sim::fingerprintMix(h, l.rack());
            h = sim::fingerprintMix(h, l.submittedAt());
            h = sim::fingerprintMix(h, l.placedAt());
            h = sim::fingerprintMix(h, l.servingAt());
            h = sim::fingerprintMix(h, l.releasedAt());
        }
        const cloud::ControlPlaneStats &st = plane_->stats();
        h = sim::fingerprintMix(h, st.submitted);
        h = sim::fingerprintMix(h, st.placed);
        h = sim::fingerprintMix(h, st.served);
        h = sim::fingerprintMix(h, st.released);
        h = sim::fingerprintMix(h, st.canceled);
        for (std::uint64_t rej : st.rejected)
            h = sim::fingerprintMix(h, rej);
        return h;
    }

    FleetParams prm;
    Region region;

  private:
    /** One slot: a persistent machine plus the current lease's guest
     *  and deployer (retired pairs park in the rack graveyard). */
    struct Slot
    {
        std::unique_ptr<hw::Machine> machine;
        std::unique_ptr<guest::GuestOs> guest;
        std::unique_ptr<bmcast::BmcastDeployer> dep;
    };

    struct Rack
    {
        std::vector<Slot> slots;
        /** Halted guests/deployers of released leases: queued events
         *  may still reference them; they retire harmlessly. */
        std::vector<std::unique_ptr<guest::GuestOs>> oldGuests;
        std::vector<std::unique_ptr<bmcast::BmcastDeployer>> oldDeps;
        net::Port *servPort = nullptr;
        std::uint64_t servTx = 0;
        sim::Bytes servRxBytes = 0;
        sim::Bytes servGoodBytes = 0;
    };

    /** The plane's mechanism boundary: orders travel to the owning
     *  rack as cross-shard messages, completions travel back. */
    class FleetPort : public cloud::ProvisionerPort
    {
      public:
        explicit FleetPort(FleetWorld &w) : w_(w) {}

        unsigned slots() const override { return w_.prm.nodes; }
        unsigned
        rackOfSlot(unsigned slot) const override
        {
            return slot % w_.prm.racks;
        }
        void
        startDeployment(cloud::Lease &l) override
        {
            w_.beginDeploy(l);
        }
        void
        startRelease(cloud::Lease &l) override
        {
            w_.beginRelease(l);
        }
        /** In-flight deployments per rack — plane-shard state; the
         *  topology's link watermarks belong to other shards. */
        std::uint64_t
        rackScore(unsigned rack) const override
        {
            return w_.activeDeploys_[rack];
        }

      private:
        FleetWorld &w_;
    };

    /** Plane orders and completions travel one lookahead window;
     *  rack 0's own stay local events at the same delay, so rack 0
     *  is not privileged. */
    template <typename F>
    void
    postFromPlane(unsigned dstRack, F &&cb)
    {
        region.post(0, dstRack, region.window(), std::forward<F>(cb));
    }
    template <typename F>
    void
    postToPlane(unsigned srcRack, F &&cb)
    {
        region.post(srcRack, 0, region.window(), std::forward<F>(cb));
    }

    void
    beginDeploy(cloud::Lease &l)
    {
        ++activeDeploys_[l.rack()];
        unsigned slot = l.slot();
        std::uint64_t id = l.id();
        cloud::TenantId tenant = l.tenant();
        postFromPlane(l.rack(), [this, slot, id, tenant]() {
            rackStartDeploy(slot, id, tenant);
        });
    }

    void
    beginRelease(cloud::Lease &l)
    {
        // A lease torn down mid-deployment still holds a rack score
        // credit; give it back (Serving leases already did).
        if (deployDone_.count(l.id()) == 0 &&
            activeDeploys_[l.rack()] > 0)
            --activeDeploys_[l.rack()];
        unsigned slot = l.slot();
        std::uint64_t id = l.id();
        postFromPlane(l.rack(), [this, slot, id]() {
            rackStartRelease(slot, id);
        });
    }

    void
    rackStartDeploy(unsigned slot, std::uint64_t id,
                    cloud::TenantId tenant)
    {
        unsigned r = slot % prm.racks;
        Slot &sl = racks_[r].slots[slot / prm.racks];
        sim::EventQueue &eq = region.queue(r);

        guest::GuestOsParams gp;
        gp.boot = StormWorld::stormBootTrace();
        gp.seed = sim::Rng::seedForShard(
            "guest" + std::to_string(slot) + "." +
                std::to_string(id),
            prm.seed, r);
        sl.guest = std::make_unique<guest::GuestOs>(
            eq, sl.machine->name() + ".guest", *sl.machine, gp);

        // Deployment data always crosses the fabric: the image comes
        // from the next rack's seed.
        unsigned target = (r + 1) % prm.racks;
        sl.dep = std::make_unique<bmcast::BmcastDeployer>(
            eq, sl.machine->name() + ".dep", *sl.machine, *sl.guest,
            std::vector<net::MacAddr>{Region::serverMac(target)},
            sectors_, StormWorld::stormVmmParams(), false);
        if (cloud::CongestionController *cc = region.congestion())
            sl.dep->setRateGate(cc->gateFor(r, tenant));
        sl.dep->run([this, r, id]() {
            postToPlane(r,
                        [this, id]() { plane_->noteServing(id); });
        });
    }

    void
    rackStartRelease(unsigned slot, std::uint64_t id)
    {
        unsigned r = slot % prm.racks;
        Rack &rack = racks_[r];
        Slot &sl = rack.slots[slot / prm.racks];

        if (sl.dep)
            sl.dep->vmm().powerOff();
        if (sl.guest)
            sl.guest->halt();
        sl.machine->disk().store().clear();
        sl.machine->clearProfile();
        if (sl.guest)
            rack.oldGuests.push_back(std::move(sl.guest));
        if (sl.dep)
            rack.oldDeps.push_back(std::move(sl.dep));

        postToPlane(r, [this, id]() { plane_->noteReleased(id); });
    }

    void
    servTick(unsigned r, sim::Tick until)
    {
        Rack &rack = racks_[r];
        sim::EventQueue &q = region.queue(r);
        sim::Tick now = q.now();
        if (now >= until)
            return;
        net::Frame f;
        f.dst = Region::mac((r + 1) % prm.racks, Region::kServing, 1);
        f.etherType = kServEtherType;
        f.payload.resize(8);
        for (unsigned i = 0; i < 8; ++i)
            f.payload[i] =
                static_cast<std::uint8_t>((now >> (8 * i)) & 0xFF);
        f.padding = prm.servingPayload - f.payload.size();
        rack.servPort->send(f);
        ++rack.servTx;
        q.scheduleAt(now + prm.servingInterval,
                     [this, r, until]() { servTick(r, until); });
    }

    void
    onServingFrame(unsigned r, const net::Frame &f)
    {
        if (f.etherType != kServEtherType || f.payload.size() != 8)
            return; // segment broadcast noise, not serving traffic
        sim::Tick sent = 0;
        for (unsigned i = 0; i < 8; ++i)
            sent |= sim::Tick(f.payload[i]) << (8 * i);
        Rack &rack = racks_[r];
        rack.servRxBytes += f.wirePayload();
        if (region.queue(r).now() - sent <= prm.servingSlo)
            rack.servGoodBytes += f.wirePayload();
    }

    sim::Lba sectors_ = 0;
    FleetPort port_;
    std::vector<Rack> racks_;
    std::unique_ptr<cloud::ControlPlane> plane_;
    /** In-flight deployments per rack (plane-shard state, mirrors
     *  what the rack shards are doing for placement scoring). */
    std::vector<std::uint64_t> activeDeploys_;
    /** Leases whose deployment reached serving (score bookkeeping). */
    std::set<std::uint64_t> deployDone_;
};

} // namespace bench

#endif // BENCH_FLEET_WORLD_HH
