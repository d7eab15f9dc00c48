#include "net/topology.hh"

#include <algorithm>

#include "simcore/logging.hh"

namespace net {

Topology::Topology(TopologyConfig cfg) : cfg_(cfg)
{
    sim::fatalIf(cfg_.racks == 0, "topology needs at least one rack");
    sim::fatalIf(cfg_.uplinkBps <= 0.0,
                 "topology uplink capacity must be positive");
    sim::fatalIf(cfg_.oversubscription < 1.0,
                 "oversubscription ratio below 1 is not a fat-tree");
    linkBps_ = cfg_.uplinkBps / cfg_.oversubscription;
    up_.resize(cfg_.racks);
    down_.resize(cfg_.racks);
}

void
Topology::placeNode(MacAddr mac, unsigned rack)
{
    sim::fatalIf(rack >= cfg_.racks,
                 "placing station in nonexistent rack ", rack);
    place_[mac] = rack;
}

void
Topology::placeAtCore(MacAddr mac)
{
    place_[mac] = kCore;
}

unsigned
Topology::rackOf(MacAddr mac) const
{
    auto it = place_.find(mac);
    return it == place_.end() ? kCore : it->second;
}

sim::Tick
Topology::serialize(Link &link, sim::Bytes wire_bytes, sim::Tick ready)
{
    double bits = static_cast<double>(wire_bytes) * 8.0;
    auto ser = static_cast<sim::Tick>(
        bits / linkBps_ * static_cast<double>(sim::kSec));
    sim::Tick start = std::max(ready, link.freeAt);
    sim::Tick done = start + ser;
    link.freeAt = done;
    link.bytes += wire_bytes;
    ++link.frames;
    return done;
}

sim::Tick
Topology::charge(MacAddr src, MacAddr dst, sim::Bytes wire_bytes,
                 sim::Tick depart)
{
    unsigned src_rack = rackOf(src);
    unsigned dst_rack = rackOf(dst);
    if (src_rack == dst_rack)
        return 0; // never leaves the ToR (or the core tier)

    sim::Tick at = depart;
    if (src_rack != kCore)
        at = serialize(up_[src_rack], wire_bytes, at);
    at += cfg_.aggHopLatency;
    if (dst_rack != kCore)
        at = serialize(down_[dst_rack], wire_bytes, at);
    return at - depart;
}

sim::Tick
Topology::chargeUplink(unsigned rack, sim::Bytes wire_bytes,
                       sim::Tick ready)
{
    return serialize(up_.at(rack), wire_bytes, ready);
}

sim::Tick
Topology::chargeDownlink(unsigned rack, sim::Bytes wire_bytes,
                         sim::Tick ready)
{
    return serialize(down_.at(rack), wire_bytes, ready);
}

sim::Bytes
Topology::uplinkBytes(unsigned rack) const
{
    return up_.at(rack).bytes;
}

sim::Bytes
Topology::downlinkBytes(unsigned rack) const
{
    return down_.at(rack).bytes;
}

std::uint64_t
Topology::uplinkFrames(unsigned rack) const
{
    return up_.at(rack).frames;
}

std::uint64_t
Topology::downlinkFrames(unsigned rack) const
{
    return down_.at(rack).frames;
}

sim::Tick
Topology::downlinkBacklog(unsigned rack, sim::Tick now) const
{
    const Link &l = down_.at(rack);
    return l.freeAt > now ? l.freeAt - now : 0;
}

} // namespace net
