/**
 * @file
 * Global deployment congestion controller.
 *
 * The paper moderates background copy *per node* (write interval +
 * guest-I/O suspension). At fleet scale the scarce resource is the
 * shared aggregation link, not the node disk: a flash-crowd of
 * deployments can fill a rack's downlink and starve serving traffic
 * no matter how polite each node is locally. The controller promotes
 * the moderation budget to a hierarchy of deterministic rate buckets:
 *
 *   per-rack lane  (share of that rack's aggregation capacity)
 *     -> per-tenant bucket inside the lane
 *
 * Each rack's link is split into one such lane per traffic class
 * (Traffic): Deploy for image transfer, Serving for guest traffic on
 * the shared NIC, Scavenger for background repair. A class can never
 * book another class's capacity.
 *
 * Deployment engines (bmcast::BackgroundCopy, store::ChunkStreamer)
 * draw tokens through a RateGate before issuing each fetch: admit()
 * books the transfer's serialization time on the rack lane and the
 * tenant bucket and returns the earliest issue tick. The invariant:
 * the sum of deployment bytes granted against rack r per unit time
 * never exceeds lane r's rate, which is configured strictly below
 * the rack's aggregation capacity — the headroom is what serving
 * traffic rides on.
 *
 * Shard safety by partitioning: budgets are divided statically
 * across racks at construction and every mutable bucket lives in
 * exactly one rack's lanes, so in a sharded world each lane is only
 * ever touched by the shard that owns its rack — no locks, and the
 * grant stream is a pure function of the per-rack demand sequence
 * (deterministic for any shard count).
 */

#ifndef CLOUD_CONGESTION_HH
#define CLOUD_CONGESTION_HH

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "cloud/types.hh"
#include "net/topology.hh"
#include "obs/registry.hh"

namespace cloud {

/** The traffic classes a rack's aggregation link is split into. */
enum class Traffic { Deploy, Serving, Scavenger };

struct CongestionParams
{
    bool enabled = false;
    /** Fraction of a rack's aggregation capacity deployment may
     *  book; the rest is serving-traffic headroom. */
    double linkShare = 0.7;
    /** Per-tenant cap as a fraction of the deploy lane (0 = no
     *  cap). The serving and scavenger lanes have no tenant cap. */
    double tenantShare = 0.5;
    /** Rack aggregation capacity used when no topology is attached. */
    double rackLinkBps = 1e9;
    /**
     * Fraction of a rack's aggregation capacity reserved for guest
     * *serving* traffic (the netmed shared-NIC tier draws here). 0 =
     * no serving lane: Serving bookings are granted immediately, so
     * nodes without a serving contract behave exactly as before.
     * When set, linkShare + servingShare must not exceed 1.
     */
    double servingShare = 0.0;
    /**
     * Fraction of a rack's aggregation capacity the Scavenger class
     * may book — background repair / healing traffic
     * (store::RepairScheduler draws here).  0 = no scavenger lane:
     * Scavenger bookings are granted immediately, so runs without a
     * repair contract behave exactly as before.  When set, linkShare
     * + servingShare + scavengerShare must not exceed 1.
     */
    double scavengerShare = 0.0;
};

class CongestionController
{
  public:
    /** @p racks lanes; capacities from @p topo when given. */
    CongestionController(CongestionParams p, unsigned racks,
                         const net::Topology *topo = nullptr);

    const CongestionParams &params() const { return prm_; }
    /** Deploy lane rate for @p rack in bits/sec. */
    double laneBps(unsigned rack) const;

    /**
     * Book @p bytes of @p cls traffic for (rack, tenant) at @p now;
     * returns the earliest tick the transfer may be issued. A class
     * without a lane (share 0) returns @p now, unshaped. Must be
     * called from the shard owning @p rack.
     */
    sim::Tick admit(unsigned rack, TenantId tenant, sim::Bytes bytes,
                    sim::Tick now, Traffic cls = Traffic::Deploy);

    /** A RateGate bound to (rack, tenant, cls), ready to hand to
     *  BackgroundCopy / ChunkStreamer (Deploy),
     *  netmed::NetMediationCore::setGuestGate() (Serving) or
     *  store::RepairScheduler::setRateGate() (Scavenger). */
    sim::RateGate
    gateFor(unsigned rack, TenantId tenant,
            Traffic cls = Traffic::Deploy)
    {
        return [this, rack, tenant, cls](sim::Bytes bytes,
                                         sim::Tick now) {
            return admit(rack, tenant, bytes, now, cls);
        };
    }

    /** @name Telemetry (read after the run, or from the owning shard) */
    /// @{
    sim::Bytes grantedBytes(unsigned rack,
                            Traffic cls = Traffic::Deploy) const;
    std::uint64_t grants(unsigned rack) const;
    /** Total issue-delay imposed on rack @p rack's @p cls flows. */
    sim::Tick throttleDelay(unsigned rack,
                            Traffic cls = Traffic::Deploy) const;
    /** Deploy bytes granted to @p tenant in rack @p rack. */
    sim::Bytes tenantBytes(unsigned rack, TenantId tenant) const;
    /** Total issue-delay imposed on rack @p rack's scavenger flows. */
    sim::Tick
    scavengerDelay(unsigned rack) const
    {
        return throttleDelay(rack, Traffic::Scavenger);
    }
    /** Snapshot "<prefix>congestion.*" counters into @p reg. */
    void publish(obs::Registry &reg,
                 const std::string &prefix = "") const;
    /// @}

  private:
    struct Bucket
    {
        sim::Tick freeAt = 0;
        sim::Bytes bytes = 0;
        std::uint64_t grants = 0;
        sim::Tick delaySum = 0;
    };

    /** One class's share of a rack link (0 bps = unshaped). */
    struct Lane
    {
        double bps = 0.0;
        double tenantBps = 0.0;
        Bucket all;
        std::map<TenantId, Bucket> tenants;
    };

    /** A rack's lanes, indexed by Traffic. */
    using RackLanes = std::array<Lane, 3>;

    const Lane &
    lane(unsigned rack, Traffic cls) const
    {
        return racks_.at(rack)[static_cast<std::size_t>(cls)];
    }

    CongestionParams prm_;
    std::vector<RackLanes> racks_;
};

} // namespace cloud

#endif // CLOUD_CONGESTION_HH
