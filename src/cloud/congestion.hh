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
 *   region deployment budget
 *     -> per-rack lane  (share of that rack's aggregation capacity)
 *        -> per-tenant bucket inside the lane
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
 * exactly one rack's lane, so in a sharded world each lane is only
 * ever touched by the shard that owns its rack — no locks, and the
 * grant stream is a pure function of the per-rack demand sequence
 * (deterministic for any shard count).
 */

#ifndef CLOUD_CONGESTION_HH
#define CLOUD_CONGESTION_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "cloud/types.hh"
#include "net/topology.hh"
#include "obs/registry.hh"

namespace cloud {

struct CongestionParams
{
    bool enabled = false;
    /**
     * Region-wide deployment budget in bits/sec, divided evenly
     * across racks. 0 derives each rack's lane from the topology
     * (or rackLinkBps) via linkShare instead.
     */
    double deployBudgetBps = 0.0;
    /** Fraction of a rack's aggregation capacity deployment may
     *  book; the rest is serving-traffic headroom. */
    double linkShare = 0.7;
    /** Per-tenant cap as a fraction of the rack lane (0 = no cap). */
    double tenantShare = 0.5;
    /** Rack aggregation capacity used when no topology is attached. */
    double rackLinkBps = 1e9;
    /**
     * Fraction of a rack's aggregation capacity reserved for guest
     * *serving* traffic (the netmed shared-NIC tier draws here). 0 =
     * no serving lane: admitServing() grants immediately, so nodes
     * without a serving contract behave exactly as before. When set,
     * linkShare + servingShare must not exceed 1.
     */
    double servingShare = 0.0;
    /** Per-tenant cap inside the serving lane (0 = no cap). */
    double servingTenantShare = 0.0;
    /**
     * Fraction of a rack's aggregation capacity the Scavenger class
     * may book — background repair / healing traffic
     * (store::RepairScheduler draws here).  0 = no scavenger lane:
     * admitScavenger() grants immediately, so runs without a repair
     * contract behave exactly as before.  When set, linkShare +
     * servingShare + scavengerShare must not exceed 1.
     */
    double scavengerShare = 0.0;
    /** Per-tenant cap inside the scavenger lane (0 = no cap). */
    double scavengerTenantShare = 0.0;
};

class CongestionController
{
  public:
    /** @p racks lanes; capacities from @p topo when given. */
    CongestionController(CongestionParams p, unsigned racks,
                         const net::Topology *topo = nullptr);

    const CongestionParams &params() const { return prm_; }
    /** Lane rate for @p rack in bits/sec. */
    double laneBps(unsigned rack) const;

    /**
     * Book @p bytes of deployment transfer for (rack, tenant) at
     * @p now; returns the earliest tick the transfer may be issued.
     * Must be called from the shard owning @p rack.
     */
    sim::Tick admit(unsigned rack, TenantId tenant, sim::Bytes bytes,
                    sim::Tick now);

    /** A RateGate bound to (rack, tenant), ready to hand to
     *  BackgroundCopy / ChunkStreamer. */
    sim::RateGate
    gateFor(unsigned rack, TenantId tenant)
    {
        return [this, rack, tenant](sim::Bytes bytes, sim::Tick now) {
            return admit(rack, tenant, bytes, now);
        };
    }

    /**
     * Book @p bytes of guest *serving* traffic for (rack, tenant) at
     * @p now — the netmed tier's draw. Separate lane from deployment:
     * a deploy storm can never book serving capacity and vice versa.
     * With servingShare == 0 this returns @p now (unshaped).
     */
    sim::Tick admitServing(unsigned rack, TenantId tenant,
                           sim::Bytes bytes, sim::Tick now);

    /** Serving lane rate for @p rack in bits/sec (0 = unshaped). */
    double servingBps(unsigned rack) const;

    /** A RateGate over the serving lane, ready to hand to
     *  netmed::NetMediationCore::setGuestGate(). */
    sim::RateGate
    servingGateFor(unsigned rack, TenantId tenant)
    {
        return [this, rack, tenant](sim::Bytes bytes, sim::Tick now) {
            return admitServing(rack, tenant, bytes, now);
        };
    }

    /**
     * Book @p bytes of Scavenger-class background traffic (repair /
     * healing) for (rack, tenant) at @p now.  Its own lane: repair
     * can never book deployment or serving capacity and vice versa.
     * With scavengerShare == 0 this returns @p now (unshaped).
     */
    sim::Tick admitScavenger(unsigned rack, TenantId tenant,
                             sim::Bytes bytes, sim::Tick now);

    /** Scavenger lane rate for @p rack in bits/sec (0 = unshaped). */
    double scavengerBps(unsigned rack) const;

    /** A RateGate over the scavenger lane, ready to hand to
     *  store::RepairScheduler::setRateGate(). */
    sim::RateGate
    scavengerGateFor(unsigned rack, TenantId tenant)
    {
        return [this, rack, tenant](sim::Bytes bytes, sim::Tick now) {
            return admitScavenger(rack, tenant, bytes, now);
        };
    }

    /** @name Telemetry (read after the run, or from the owning shard) */
    /// @{
    sim::Bytes grantedBytes(unsigned rack) const;
    std::uint64_t grants(unsigned rack) const;
    /** Total issue-delay imposed on rack @p rack's flows. */
    sim::Tick throttleDelay(unsigned rack) const;
    /** Bytes granted to @p tenant in rack @p rack. */
    sim::Bytes tenantBytes(unsigned rack, TenantId tenant) const;
    /** Serving-lane bytes granted against rack @p rack. */
    sim::Bytes servingBytes(unsigned rack) const;
    /** Total issue-delay imposed on rack @p rack's serving flows. */
    sim::Tick servingDelay(unsigned rack) const;
    /** Scavenger-lane bytes granted against rack @p rack. */
    sim::Bytes scavengerBytes(unsigned rack) const;
    /** Total issue-delay imposed on rack @p rack's scavenger flows. */
    sim::Tick scavengerDelay(unsigned rack) const;
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

    struct Lane
    {
        double rackBps = 0.0;
        double tenantBps = 0.0;
        Bucket all;
        std::map<TenantId, Bucket> tenants;
        /** Serving lane (0 bps = unshaped). */
        double servingBps = 0.0;
        double servingTenantBps = 0.0;
        Bucket serving;
        std::map<TenantId, Bucket> servingTenants;
        /** Scavenger (background repair) lane (0 bps = unshaped). */
        double scavBps = 0.0;
        double scavTenantBps = 0.0;
        Bucket scav;
        std::map<TenantId, Bucket> scavTenants;
    };

    CongestionParams prm_;
    std::vector<Lane> lanes_;
};

} // namespace cloud

#endif // CLOUD_CONGESTION_HH
