/**
 * @file
 * Oversubscribed fat-tree topology: per-link capacity accounting
 * above the flat segment model.
 *
 * The historical net::Network is one switched segment — a ToR with
 * infinite backplane. A Topology lifts that into the explicit
 * datacenter shape: stations are *placed* either in a rack (behind
 * that rack's ToR) or at the core (aggregation-attached seed servers,
 * ingest clients, anything above the ToRs). A frame whose endpoints
 * sit in different placement domains traverses the rack's
 * aggregation links — up from the source rack and/or down into the
 * destination rack — and each traversed link charges serialization
 * at its *effective* capacity, uplinkBps / oversubscription. Links
 * model FIFO occupancy exactly like port serialization (a freeAt
 * watermark), so concurrent deployment and serving flows sharing one
 * aggregation link genuinely queue behind each other.
 *
 * Same-domain traffic (both endpoints in one rack, or both at the
 * core) never touches an aggregation link: the flat-segment model is
 * the intra-rack model, which is what keeps a Network with no
 * topology attached — or one whose stations are all co-located —
 * byte-identical to the historical behavior.
 *
 * Shard safety by partitioning: all mutable state is per-rack (the
 * up/down link pair). In a sharded world where each rack's segment
 * only ever carries frames whose endpoints map to that rack or to
 * the core, rack r's links are touched exclusively by rack r's
 * shard, so one Topology may be shared across rack Networks without
 * synchronization and without perturbing cross-shard determinism.
 */

#ifndef NET_TOPOLOGY_HH
#define NET_TOPOLOGY_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "net/frame.hh"
#include "simcore/types.hh"

namespace net {

/** Fat-tree shape and capacity knobs. */
struct TopologyConfig
{
    /** Racks (ToRs) under the aggregation tier; 0 disables. */
    unsigned racks = 0;
    /** Raw ToR-to-aggregation trunk capacity in bits per second. */
    double uplinkBps = 40e9;
    /**
     * Oversubscription ratio: effective aggregation capacity per
     * rack is uplinkBps / oversubscription (1.0 = full bisection).
     */
    double oversubscription = 4.0;
    /** Extra one-way latency for a frame that climbs to the
     *  aggregation/core tier (on top of the segment switch). */
    sim::Tick aggHopLatency = 8 * sim::kUs;
};

class Topology
{
  public:
    /** Placement domain for stations above the ToRs. */
    static constexpr unsigned kCore = ~0u;

    explicit Topology(TopologyConfig cfg);

    const TopologyConfig &config() const { return cfg_; }
    /** Effective per-rack aggregation capacity (bits/sec). */
    double effectiveUplinkBps() const { return linkBps_; }

    /** Place @p mac behind rack @p rack's ToR. */
    void placeNode(MacAddr mac, unsigned rack);
    /** Place @p mac at the aggregation/core tier. */
    void placeAtCore(MacAddr mac);
    /** Rack of @p mac; kCore when core-attached or never placed
     *  (unknown stations live above the ToRs). */
    unsigned rackOf(MacAddr mac) const;

    /**
     * Route one frame of @p wireBytes departing the source port at
     * @p depart: charges every traversed aggregation link (source
     * rack up-link, destination rack down-link) and returns the
     * extra delay — hop latency plus link serialization and
     * queueing — beyond the flat segment. Same-domain routes return
     * 0 and charge nothing.
     */
    sim::Tick charge(MacAddr src, MacAddr dst, sim::Bytes wireBytes,
                     sim::Tick depart);

    /**
     * @name Split charging (sharded worlds)
     *
     * A sharded fleet keeps one Network per rack, so a cross-rack
     * frame is charged in two halves from two execution contexts:
     * the source shard books the source rack's up-link at hand-off,
     * the destination shard books its down-link at arrival. Each
     * half touches only that rack's link, preserving the
     * partitioned-ownership contract. Both return the tick the last
     * bit clears the link (>= ready).
     */
    /// @{
    sim::Tick chargeUplink(unsigned rack, sim::Bytes wireBytes,
                           sim::Tick ready);
    sim::Tick chargeDownlink(unsigned rack, sim::Bytes wireBytes,
                             sim::Tick ready);
    /// @}

    /** @name Per-link telemetry and placement-headroom scoring */
    /// @{
    sim::Bytes uplinkBytes(unsigned rack) const;
    sim::Bytes downlinkBytes(unsigned rack) const;
    std::uint64_t uplinkFrames(unsigned rack) const;
    std::uint64_t downlinkFrames(unsigned rack) const;
    /** Ticks rack @p rack's down-link is booked beyond @p now
     *  (0 = idle: full headroom). */
    sim::Tick downlinkBacklog(unsigned rack, sim::Tick now) const;
    /// @}

  private:
    /** One aggregation link's occupancy watermark and counters. */
    struct Link
    {
        sim::Tick freeAt = 0;
        sim::Bytes bytes = 0;
        std::uint64_t frames = 0;
    };

    /** Serialize @p wireBytes on @p link no earlier than @p ready;
     *  returns the tick the last bit clears the link. */
    sim::Tick serialize(Link &link, sim::Bytes wireBytes,
                        sim::Tick ready);

    TopologyConfig cfg_;
    double linkBps_;
    std::vector<Link> up_;
    std::vector<Link> down_;
    std::map<MacAddr, unsigned> place_;
};

} // namespace net

#endif // NET_TOPOLOGY_HH
