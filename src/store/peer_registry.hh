/**
 * @file
 * Registry of deployed nodes acting as secondary chunk sources.
 *
 * As a deployment lands chunks on a node's disk, the node registers
 * as a peer source for them; later deployments of images sharing
 * those chunks can stream from warm peers instead of the seed pool.
 * Ranking prefers idle peers (fewest active fetches), then spreads
 * load by total chunks served.
 *
 * The registry also keeps a claim table for the nodes of one deploy
 * wave: a background retriever claims a whole chunk when it starts
 * fetching it, and the others put that chunk last until some peer
 * holds it. Claims are hints for ordering work, never for
 * correctness: a claimed chunk is still fetched by anyone who has
 * nothing else left.
 */

#ifndef STORE_PEER_REGISTRY_HH
#define STORE_PEER_REGISTRY_HH

#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include "net/frame.hh"
#include "store/chunk.hh"

namespace store {

class PeerRegistry
{
  public:
    /** Add @p mac as a (chunk-less) peer; idempotent. */
    void registerPeer(net::MacAddr mac);

    bool known(net::MacAddr mac) const;

    /** Remove @p mac entirely (chunks and claims); returns the
     *  digests it held. */
    std::vector<Digest> deregisterPeer(net::MacAddr mac);

    /** Record that @p mac can now serve chunk @p d (drops its claim
     *  on @p d). */
    void addChunk(net::MacAddr mac, Digest d);

    /** Stop offering chunk @p d from @p mac (poisoned / dropped);
     *  drops its claim on @p d. */
    void removeChunk(net::MacAddr mac, Digest d);

    bool holds(net::MacAddr mac, Digest d) const;

    /**
     * Peers able to serve @p d, best first, excluding @p self.
     * Ranking: fewest active fetches, then fewest chunks served,
     * then MAC for determinism.
     */
    std::vector<net::MacAddr> sourcesFor(Digest d,
                                         net::MacAddr self) const;

    /**
     * @p mac starts fetching all of chunk @p d. The first claimer
     * wins; later claims by others change nothing. Unknown MACs
     * cannot claim (they never become a source for the chunk).
     * @return true if @p mac holds the claim afterwards.
     */
    bool claim(Digest d, net::MacAddr mac);

    /** Drop @p mac's claim on @p d, if it has one. */
    void unclaim(Digest d, net::MacAddr mac);

    /** Another node than @p self claimed @p d and no peer holds it
     *  yet, so fetching it now would likely repeat that node's seed
     *  fetch. */
    bool claimedElsewhere(Digest d, net::MacAddr self) const;

    void noteFetchStart(net::MacAddr mac);
    void noteFetchEnd(net::MacAddr mac);

    std::size_t peerCount() const { return peers_.size(); }

    /** Total (peer, chunk) registrations ever made. */
    std::uint64_t chunkRegistrations() const { return registrations_; }

  private:
    struct Peer
    {
        std::set<Digest> chunks;
        unsigned active = 0;       //!< in-flight fetches from us
        std::uint64_t served = 0;  //!< completed fetches, for spread
    };

    std::map<net::MacAddr, Peer> peers_;
    std::map<Digest, std::vector<net::MacAddr>> holders_;
    std::map<Digest, net::MacAddr> claims_; //!< chunk -> first claimer
    std::uint64_t registrations_ = 0;
};

} // namespace store

#endif // STORE_PEER_REGISTRY_HH
