#include "store/fabric.hh"

#include "simcore/logging.hh"

namespace store {

StoreFabric::StoreFabric(sim::EventQueue &eq, std::string name,
                         StoreParams params,
                         std::vector<net::MacAddr> seed_macs)
    : sim::SimObject(eq, std::move(name)), params_(params),
      catalog_(chunks_),
      placement_(ec::makeCode(params.code,
                              ec::CodeParams{params.dataShards,
                                             params.parityShards,
                                             params.lrcGroups,
                                             kDecodePenalty}),
                 std::move(seed_macs)),
      obsTrack_(this->name())
{
}

void
StoreFabric::bindSeedServer(net::MacAddr mac, aoe::AoeServer *server)
{
    seedServers_[mac] = server;
}

aoe::AoeServer &
StoreFabric::attachPeer(net::Network &lan, net::MacAddr mac,
                        const std::string &label)
{
    auto it = peerServers_.find(mac);
    if (it == peerServers_.end()) {
        net::Port *port = lan.findPort(mac);
        if (!port)
            port = &lan.attach(mac, net::PortConfig{1e9, 9000, 0.0});
        auto server = std::make_unique<aoe::AoeServer>(
            eventQueue(), label, *port, aoe::ServerParams{});
        if (faults_)
            server->setFaultInjector(faults_);
        it = peerServers_.emplace(mac, std::move(server)).first;
    } else if (!it->second->online()) {
        // Recycled machine slot: the export server comes back cold
        // and empty (clearTargets ran at release).
        it->second->restart();
    }
    peers_.registerPeer(mac);
    return *it->second;
}

aoe::AoeServer *
StoreFabric::peerServer(net::MacAddr mac)
{
    auto it = peerServers_.find(mac);
    return it == peerServers_.end() ? nullptr : it->second.get();
}

void
StoreFabric::noteChunkLanded(net::MacAddr mac, const std::string &image,
                             std::size_t chunk_idx)
{
    if (!peers_.known(mac))
        return;
    const ImageDesc *desc = catalog_.find(image);
    sim::panicIfNot(desc != nullptr, "chunk landed for unknown image");
    Digest d = desc->chunks[chunk_idx];
    if (peers_.holds(mac, d))
        return;
    sim::panicIfNot(peerServer(mac) != nullptr,
                    "chunk landed without a peer");
    // Peer sourcing is digest-addressed, but the AoE wire addresses
    // (major, lba): mirror the payload under every catalog image that
    // references this digest, so a deployment of any family member
    // (e.g. an overlay sharing the base's untouched chunks) can fetch
    // it from this peer.
    for (const auto &[img_name, idesc] : catalog_.images())
        for (std::size_t j = 0; j < idesc.chunks.size(); ++j)
            if (idesc.chunks[j] == d)
                mirrorChunkExport(mac, img_name, j);
    peers_.addChunk(mac, d);
    chunks_.refReplica(d);
    ++stats_.registeredChunks;
    if (obs::armed()) {
        obs::Tracer &t = obs::tracer();
        t.milestone(obsTrack_.id(t), "store.chunk_registered", now(),
                    static_cast<double>(stats_.registeredChunks));
    }
}

void
StoreFabric::mirrorChunkExport(net::MacAddr mac,
                               const std::string &image,
                               std::size_t chunk_idx)
{
    const ImageDesc *desc = catalog_.find(image);
    aoe::AoeServer *server = peerServer(mac);
    sim::panicIfNot(desc != nullptr && server != nullptr,
                    "mirroring a chunk export without image/peer");
    aoe::AoeTarget *target = server->findTarget(desc->major, 0);
    if (!target)
        target = &server->addTarget(desc->major, 0, desc->sectors, 0);
    catalog_.fillChunk(image, chunk_idx, target->store);
}

void
StoreFabric::noteImageAdded(const std::string &image)
{
    const ImageDesc *desc = catalog_.find(image);
    sim::panicIfNot(desc != nullptr, "unknown image added");
    // A new image (typically an overlay folded from a released
    // tenant's writes) shares digests with chunks warm peers already
    // hold: give those peers an export target under the new image's
    // major so its deployments fetch the shared chunks peer-assisted
    // instead of off the seed backbone.
    for (const auto &[mac, srv] : peerServers_) {
        if (!peers_.known(mac))
            continue;
        for (std::size_t j = 0; j < desc->chunks.size(); ++j)
            if (peers_.holds(mac, desc->chunks[j]))
                mirrorChunkExport(mac, image, j);
    }
}

void
StoreFabric::dropChunk(net::MacAddr mac, const std::string &image,
                       std::size_t chunk_idx)
{
    const ImageDesc *desc = catalog_.find(image);
    if (!desc)
        return;
    Digest d = desc->chunks[chunk_idx];
    if (!peers_.holds(mac, d))
        return;
    // Deregister only: the export target keeps the pristine payload so
    // a fetch already in flight still reads correct content.
    peers_.removeChunk(mac, d);
    chunks_.unrefReplica(d);
}

void
StoreFabric::nodeReleased(net::MacAddr mac)
{
    std::vector<Digest> held = peers_.deregisterPeer(mac);
    for (Digest d : held)
        chunks_.unrefReplica(d);
    stats_.releasedChunks += held.size();
    if (aoe::AoeServer *server = peerServer(mac)) {
        server->clearTargets();
        server->crash();
    }
    if (obs::armed()) {
        obs::Tracer &t = obs::tracer();
        t.milestone(obsTrack_.id(t), "store.node_released", now(),
                    static_cast<double>(held.size()));
    }
}

bool
StoreFabric::sourceUp(net::MacAddr mac)
{
    if (aoe::AoeServer *peer = peerServer(mac))
        return peer->online();
    auto it = seedServers_.find(mac);
    if (it != seedServers_.end())
        return it->second->online();
    return true;
}

void
StoreFabric::setFaultInjector(sim::FaultInjector *fi)
{
    faults_ = fi;
    for (auto &[mac, server] : peerServers_)
        server->setFaultInjector(fi);
}

} // namespace store
