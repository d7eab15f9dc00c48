/**
 * @file
 * StoreFabric: the control plane of the bmcast::store subsystem.
 *
 * Owns the content-addressed chunk store, the image catalog, the
 * erasure-coded placement over the seed-server pool, and the peer
 * registry.  Deployment-side data movement lives in ChunkStreamer;
 * the fabric answers "who can serve chunk d right now" and keeps the
 * replica bookkeeping honest as nodes join (attachPeer), land chunks
 * (noteChunkLanded), dirty them (dropChunk) and leave (nodeReleased).
 */

#ifndef STORE_FABRIC_HH
#define STORE_FABRIC_HH

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "aoe/server.hh"
#include "net/network.hh"
#include "obs/obs.hh"
#include "simcore/sim_object.hh"
#include "store/catalog.hh"
#include "store/chunk_store.hh"
#include "store/ec/code.hh"
#include "store/peer_registry.hh"
#include "store/placement.hh"

namespace store {

/** Background repair service configuration (see repair_scheduler.hh;
 *  defined here so StoreParams can embed it without a header cycle). */
struct RepairParams
{
    /** Master switch; false = no scheduler, bit-identical runs. */
    bool enabled = false;

    /** Seed-pool liveness probe period. */
    sim::Tick probePeriod = 500 * sim::kMs;

    /** Rebuild jobs in flight at once. */
    unsigned maxConcurrent = 4;

    /** Back-off before re-planning a failed rebuild. */
    sim::Tick retryDelay = 100 * sim::kMs;

    /** Serialization rate of repair traffic into the new home. */
    double wireBps = 1e9;
};

/** Modeled Reed–Solomon decode cost when parity substitutes for a
 *  dead data member. */
inline constexpr sim::Tick kDecodePenalty = 2 * sim::kMs;

/** Store subsystem configuration (all-default = legacy behaviour). */
struct StoreParams
{
    /** Master switch; false keeps the single-server legacy path. */
    bool enabled = false;

    /** Stripe algebra (flat-rs reproduces the legacy path exactly). */
    ec::CodeKind code = ec::CodeKind::FlatRs;

    /** Erasure code: any k of k+m stripe members reconstruct.  For
     *  Lrc, parityShards counts the global parities and lrcGroups
     *  local parities come on top. */
    unsigned dataShards = 4;
    unsigned parityShards = 2;
    unsigned lrcGroups = 2;

    /** Background repair service (off by default). */
    RepairParams repair;

    /** Seed AoE servers in the pool. */
    unsigned seedServers = 6;

    /** Routed-read timeout floor (see InitiatorParams). */
    sim::Tick shardMinTimeout = 40 * sim::kMs;
};

/** Counters the fabric aggregates across all deployments. */
struct FabricStats
{
    std::uint64_t registeredChunks = 0; //!< noteChunkLanded calls
    std::uint64_t releasedChunks = 0;   //!< returned by nodeReleased
};

class ChunkStreamer;

/** Deployment binding handed to a VMM (empty = store off). */
struct DeploySpec
{
    class StoreFabric *fabric = nullptr;
    std::string image;
    net::MacAddr peerMac = 0; //!< this node's chunk-export MAC
};

class StoreFabric : public sim::SimObject
{
  public:
    StoreFabric(sim::EventQueue &eq, std::string name,
                StoreParams params, std::vector<net::MacAddr> seedMacs);

    const StoreParams &params() const { return params_; }
    const ChunkStore &chunkStore() const { return chunks_; }
    ImageCatalog &catalog() { return catalog_; }
    const ImageCatalog &catalog() const { return catalog_; }
    Placement &placement() { return placement_; }
    PeerRegistry &peers() { return peers_; }
    const PeerRegistry &peerRegistry() const { return peers_; }
    const FabricStats &stats() const { return stats_; }

    /** Bind a pre-existing seed server so liveness queries and fault
     *  wiring can reach it. */
    void bindSeedServer(net::MacAddr mac, aoe::AoeServer *server);

    /**
     * Attach (or re-arm, for a recycled slot) the chunk-export server
     * of a node at @p mac, creating its LAN port on first use, and
     * register the node as a peer.
     */
    aoe::AoeServer &attachPeer(net::Network &lan, net::MacAddr mac,
                               const std::string &label);

    /** The peer export server at @p mac (nullptr if never attached). */
    aoe::AoeServer *peerServer(net::MacAddr mac);

    /**
     * A full chunk of @p image landed on the node at @p mac: register
     * it as a secondary source and mirror the chunk's content into
     * the node's export target.
     */
    void noteChunkLanded(net::MacAddr mac, const std::string &image,
                         std::size_t chunkIdx);

    /**
     * A new image entered the catalog: retro-mirror every digest it
     * shares with chunks warm peers already hold into export targets
     * under the new image's major (peer sourcing is digest-addressed,
     * the AoE wire is (major, lba)-addressed).
     */
    void noteImageAdded(const std::string &image);

    /** The node at @p mac dirtied chunk @p chunkIdx (tenant write):
     *  stop offering it.  The export content stays untouched so any
     *  in-flight fetch still serves the pristine payload. */
    void dropChunk(net::MacAddr mac, const std::string &image,
                   std::size_t chunkIdx);

    /**
     * The node at @p mac was released back to the cloud: deregister
     * every chunk it offered, return the replica references to the
     * store, and take its export server offline (in-flight fetches
     * fail over to the erasure stripe).
     */
    void nodeReleased(net::MacAddr mac);

    /** Is the source at @p mac currently answering? (Unknown MACs
     *  are presumed live seed members.) */
    bool sourceUp(net::MacAddr mac);

    /** Forward to current and future peer export servers. */
    void setFaultInjector(sim::FaultInjector *fi);

  private:
    /** Fill @p image's chunk @p chunkIdx into @p mac's export target
     *  for the image's major (created on first use). */
    void mirrorChunkExport(net::MacAddr mac, const std::string &image,
                           std::size_t chunkIdx);

    StoreParams params_;
    ChunkStore chunks_;
    ImageCatalog catalog_;
    Placement placement_;
    PeerRegistry peers_;
    FabricStats stats_;
    sim::FaultInjector *faults_ = nullptr;

    std::map<net::MacAddr, aoe::AoeServer *> seedServers_;
    std::map<net::MacAddr, std::unique_ptr<aoe::AoeServer>> peerServers_;

    obs::Track obsTrack_;
};

} // namespace store

#endif // STORE_FABRIC_HH
