#include "store/peer_registry.hh"

#include <algorithm>

#include "simcore/logging.hh"

namespace store {

void
PeerRegistry::registerPeer(net::MacAddr mac)
{
    peers_.emplace(mac, Peer{});
}

bool
PeerRegistry::known(net::MacAddr mac) const
{
    return peers_.count(mac) != 0;
}

std::vector<Digest>
PeerRegistry::deregisterPeer(net::MacAddr mac)
{
    auto it = peers_.find(mac);
    if (it == peers_.end())
        return {};
    std::vector<Digest> held(it->second.chunks.begin(),
                             it->second.chunks.end());
    for (Digest d : held)
        removeChunk(mac, d);
    std::erase_if(claims_,
                  [mac](const auto &kv) { return kv.second == mac; });
    peers_.erase(it);
    return held;
}

void
PeerRegistry::addChunk(net::MacAddr mac, Digest d)
{
    auto it = peers_.find(mac);
    sim::panicIfNot(it != peers_.end(),
                    "chunk registered for unknown peer");
    unclaim(d, mac);
    if (!it->second.chunks.insert(d).second)
        return;
    holders_[d].push_back(mac);
    ++registrations_;
}

void
PeerRegistry::removeChunk(net::MacAddr mac, Digest d)
{
    unclaim(d, mac);
    auto it = peers_.find(mac);
    if (it == peers_.end() || it->second.chunks.erase(d) == 0)
        return;
    auto hit = holders_.find(d);
    if (hit == holders_.end())
        return;
    auto &v = hit->second;
    v.erase(std::remove(v.begin(), v.end(), mac), v.end());
    if (v.empty())
        holders_.erase(hit);
}

bool
PeerRegistry::holds(net::MacAddr mac, Digest d) const
{
    auto it = peers_.find(mac);
    return it != peers_.end() && it->second.chunks.count(d) != 0;
}

std::vector<net::MacAddr>
PeerRegistry::sourcesFor(Digest d, net::MacAddr self) const
{
    auto hit = holders_.find(d);
    if (hit == holders_.end())
        return {};
    std::vector<net::MacAddr> out;
    out.reserve(hit->second.size());
    for (net::MacAddr mac : hit->second) {
        if (mac != self)
            out.push_back(mac);
    }
    std::stable_sort(out.begin(), out.end(),
                     [this](net::MacAddr a, net::MacAddr b) {
                         const Peer &pa = peers_.at(a);
                         const Peer &pb = peers_.at(b);
                         if (pa.active != pb.active)
                             return pa.active < pb.active;
                         if (pa.served != pb.served)
                             return pa.served < pb.served;
                         return a < b;
                     });
    return out;
}

bool
PeerRegistry::claim(Digest d, net::MacAddr mac)
{
    if (!known(mac))
        return false;
    return claims_.emplace(d, mac).first->second == mac;
}

void
PeerRegistry::unclaim(Digest d, net::MacAddr mac)
{
    auto it = claims_.find(d);
    if (it != claims_.end() && it->second == mac)
        claims_.erase(it);
}

bool
PeerRegistry::claimedElsewhere(Digest d, net::MacAddr self) const
{
    auto it = claims_.find(d);
    return it != claims_.end() && it->second != self &&
           holders_.count(d) == 0;
}

void
PeerRegistry::noteFetchStart(net::MacAddr mac)
{
    auto it = peers_.find(mac);
    if (it != peers_.end())
        ++it->second.active;
}

void
PeerRegistry::noteFetchEnd(net::MacAddr mac)
{
    auto it = peers_.find(mac);
    if (it == peers_.end())
        return;
    if (it->second.active > 0)
        --it->second.active;
    ++it->second.served;
}

} // namespace store
