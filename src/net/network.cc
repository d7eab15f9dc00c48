#include "net/network.hh"

#include <algorithm>

#include "net/topology.hh"
#include "simcore/logging.hh"

namespace net {

void
Port::send(Frame frame)
{
    frame.src = mac_;
    net_.transmit(*this, std::move(frame));
}

Network::Network(sim::EventQueue &eq, std::string name,
                 sim::Tick switchLatency, std::uint64_t seed)
    : sim::SimObject(eq, std::move(name)),
      switchLat(switchLatency),
      rng(sim::Rng::seedFrom(this->name(), seed)),
      obsTrack_(this->name())
{
}

Port &
Network::attach(MacAddr mac, PortConfig cfg)
{
    sim::fatalIf(ports.count(mac) > 0,
                 "duplicate MAC on network ", name(), ": ", mac);
    sim::fatalIf(mac == kBroadcastMac, "cannot attach broadcast MAC");
    auto port = std::unique_ptr<Port>(new Port(*this, mac, cfg));
    Port &ref = *port;
    ports.emplace(mac, std::move(port));
    return ref;
}

Port *
Network::findPort(MacAddr mac)
{
    auto it = ports.find(mac);
    return it == ports.end() ? nullptr : it->second.get();
}

void
Network::transmit(Port &from, Frame frame)
{
    if (frame.wirePayload() > from.cfg.mtu) {
        // Oversize frames never make it onto the wire.
        ++from.numDropped;
        if (obs::armed()) {
            obs::Tracer &t = obs::tracer();
            t.instant(obsTrack_.id(t), "net", "drop_oversize",
                      now());
        }
        sim::debug(name(), ": oversize frame dropped (",
                   frame.wirePayload(), " > mtu ", from.cfg.mtu, ")");
        return;
    }

    // Serialize on the sender's line.
    double bits = static_cast<double>(frame.wireSize()) * 8.0;
    auto tx_time = static_cast<sim::Tick>(
        bits / from.cfg.bitsPerSec * static_cast<double>(sim::kSec));
    sim::Tick start = std::max(now(), from.txFreeAt);
    sim::Tick depart = start + tx_time;
    from.txFreeAt = depart;
    from.bytesSent += frame.wireSize();

    if (from.cfg.lossProbability > 0.0 &&
        rng.chance(from.cfg.lossProbability)) {
        ++from.numDropped;
        if (obs::armed()) {
            obs::Tracer &t = obs::tracer();
            t.instant(obsTrack_.id(t), "net", "drop_loss", now());
        }
        return;
    }

    // Injected faults, decided once per frame on the wire.  The wire
    // time above is already charged, so a dropped frame still consumes
    // sender bandwidth, just like a real collision or FCS failure.
    bool duplicate = false;
    sim::Tick extraDelay = 0;
    if (faults && faults->anyActive()) {
        if (faults->shouldFire(sim::FaultSite::NetDrop)) {
            ++from.numDropped;
            if (obs::armed()) {
                obs::Tracer &t = obs::tracer();
                t.instant(obsTrack_.id(t), "net", "drop_fault",
                          now());
            }
            return;
        }
        if (faults->shouldFire(sim::FaultSite::NetCorrupt)) {
            // Damaged payload fails the receiver's FCS check; the
            // frame is never handed to the rx handler.
            ++from.numDropped;
            if (obs::armed()) {
                obs::Tracer &t = obs::tracer();
                t.instant(obsTrack_.id(t), "net", "drop_corrupt",
                          now());
            }
            return;
        }
        duplicate = faults->shouldFire(sim::FaultSite::NetDuplicate);
        if (faults->shouldFire(sim::FaultSite::NetReorder))
            extraDelay = faults->magnitude(sim::FaultSite::NetReorder,
                                           150 * sim::kUs);
    }

    if (frame.dst == kBroadcastMac) {
        for (auto &[mac, port] : ports) {
            if (mac != from.mac())
                deliverTo(*port, frame, depart, extraDelay);
        }
        return;
    }

    Port *dst = findPort(frame.dst);
    if (!dst) {
        if (uplink) {
            // Non-local unicast leaves the segment through the
            // uplink; sender-side serialization is already charged.
            ++numUplinked;
            uplink(frame, depart);
            return;
        }
        // Unknown unicast: a real switch floods; we drop and count,
        // which is sufficient for these experiments.
        ++from.numDropped;
        return;
    }
    if (topo_) {
        // Endpoints in different placement domains climb to the
        // aggregation tier; the traversed links charge serialization
        // and queueing on top of the segment model.
        extraDelay += topo_->charge(frame.src, frame.dst,
                                    frame.wireSize(), depart);
    }
    deliverTo(*dst, frame, depart, extraDelay);
    if (duplicate) {
        // The duplicate trails the original by one switch traversal.
        deliverTo(*dst, frame, depart, extraDelay + switchLat);
    }
}

void
Network::inject(const Frame &frame)
{
    Port *dst = findPort(frame.dst);
    if (!dst) {
        ++numUplinkDrops;
        return;
    }
    deliverTo(*dst, frame, now());
}

void
Network::deliverTo(Port &dst, const Frame &frame, sim::Tick depart,
                   sim::Tick extraDelay)
{
    double bits = static_cast<double>(frame.wireSize()) * 8.0;
    auto rx_time = static_cast<sim::Tick>(
        bits / dst.cfg.bitsPerSec * static_cast<double>(sim::kSec));
    sim::Tick arrive = depart + switchLat + extraDelay;
    sim::Tick start = std::max(arrive, dst.rxFreeAt);
    sim::Tick done = start + rx_time;
    dst.rxFreeAt = done;
    ++numForwarded;

    // Wire-occupancy span, recorded entirely at schedule time (the
    // end timestamp is already known), so the delivery closure below
    // keeps its exact capture size whether or not tracing is armed.
    if (obs::armed()) {
        obs::Tracer &t = obs::tracer();
        const std::uint32_t track = obsTrack_.id(t);
        const std::uint64_t id = ++obsFrameSeq_;
        t.asyncBegin(track, "net", "frame", id, depart);
        t.asyncEnd(track, "net", "frame", id, done);
    }

    Frame copy = frame;
    Port *dst_p = &dst;
    eventQueue().scheduleAt(done, [dst_p, f = std::move(copy)]() {
        dst_p->bytesReceived += f.wireSize();
        if (dst_p->rx)
            dst_p->rx(f);
    });
}

} // namespace net
