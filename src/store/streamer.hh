/**
 * @file
 * ChunkStreamer: per-deployment chunk fetch engine.
 *
 * Sits between the VMM's copy-on-read / background-copy machinery and
 * the store fabric.  A fetch resolves block ranges to chunks, ranks
 * sources (warm peers first, then the erasure stripe of seed
 * servers), issues digest-checked routed reads, and reroutes on
 * timeout, error or corruption — a dead source degrades throughput
 * instead of stalling the deployment.
 *
 * The streamer also tracks which chunks have fully landed on the
 * local disk (noteLocalWrite) to register this node as a peer source,
 * and which chunks the tenant has dirtied (notePoisoned) so they are
 * never offered.
 *
 * A background fetch claims every chunk it covers whole in the peer
 * registry's claim table, so the other retrievers of a deploy wave
 * can put that chunk last (claimedElsewhere) and take it from this
 * node once it lands instead of from the seed stripe.
 */

#ifndef STORE_STREAMER_HH
#define STORE_STREAMER_HH

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "aoe/initiator.hh"
#include "obs/obs.hh"
#include "simcore/sim_object.hh"
#include "store/fabric.hh"

namespace store {

class ChunkStreamer : public sim::SimObject
{
  public:
    using FetchDone =
        std::function<void(const std::vector<std::uint64_t> &tokens)>;

    ChunkStreamer(sim::EventQueue &eq, std::string name,
                  aoe::AoeInitiator &aoe, StoreFabric &fabric,
                  std::string image, net::MacAddr selfMac,
                  sim::Lba imageSectors);

    /**
     * Deployment-bandwidth token gate. Applies only to fetches marked
     * background — copy-on-read stays latency-critical and unshaped.
     */
    void setRateGate(sim::RateGate g) { gate_ = std::move(g); }

    /** Fetch [lba, lba+count) of the image through the store tier.
     *  @p done receives one token per sector, digest-verified.
     *  @p background marks bulk background-copy traffic, which draws
     *  issue tokens from the rate gate when one is bound, and claims
     *  each chunk it covers whole (at the call, before any gate
     *  delay, so retrievers picking in the same tick see it). */
    void fetch(sim::Lba lba, std::uint32_t count, FetchDone done,
               bool background = false);

    /** [lba, lba+count) of pristine image content landed on the local
     *  disk; chunks that become fully resident register this node as
     *  a peer source. */
    void noteLocalWrite(sim::Lba lba, std::uint32_t count);

    /** The tenant dirtied [lba, lba+count): stop offering (or never
     *  offer) the covered chunks, and drop the claims on those not
     *  yet landed. */
    void notePoisoned(sim::Lba lba, std::uint32_t count);

    /** Another node is fetching the chunk holding @p lba and no peer
     *  can serve it yet: a background pick should take it last.
     *  Counts a deferred pick when true. */
    bool claimedElsewhere(sim::Lba lba);

    /** Stop all retries and drop pending completions (power-off). */
    void shutdown() { halted_ = true; }

    /** @name Telemetry */
    /// @{
    std::uint64_t peerHits() const { return peerHits_; }
    std::uint64_t seedFetches() const { return seedFetches_; }
    std::uint64_t reconstructions() const { return reconstructions_; }
    std::uint64_t sourceFailures() const { return sourceFailures_; }
    std::uint64_t noSourceStalls() const { return stalls_; }
    /** Pieces the rate gate pushed into the future. */
    std::uint64_t gateWaits() const { return gateWaits_; }
    /** Background pieces covering a whole chunk that the seed stripe
     *  served (the part of seedFetches() a deploy wave can share). */
    std::uint64_t chunkSeedFetches() const { return chunkSeedFetches_; }
    /** Times claimedElsewhere() turned a background pick away. */
    std::uint64_t deferredPicks() const { return deferredPicks_; }
    /** Background whole-chunk pieces issued while another node held
     *  the chunk's claim (the retriever had nothing else left). */
    std::uint64_t fallbackPicks() const { return fallbackPicks_; }
    /// @}

  private:
    /** One multi-chunk fetch in flight. */
    struct FetchOp
    {
        sim::Lba lba = 0;
        std::uint32_t count = 0;
        std::vector<std::uint64_t> tokens;
        std::size_t remaining = 0; //!< pieces outstanding
        FetchDone done;
    };

    /** The part of an op inside one chunk. */
    struct Piece
    {
        sim::Lba lba = 0;
        std::uint32_t count = 0;
        std::size_t chunkIdx = 0;
        bool wholeBackground = false; //!< background, whole chunk
    };

    void startPiece(const std::shared_ptr<FetchOp> &op, Piece piece,
                    unsigned attempts);
    void fetchFromPeer(const std::shared_ptr<FetchOp> &op, Piece piece,
                       unsigned attempts, net::MacAddr peer);
    void fetchFromSeeds(const std::shared_ptr<FetchOp> &op, Piece piece,
                        unsigned attempts);
    void commit(const std::shared_ptr<FetchOp> &op, const Piece &piece,
                const std::vector<std::uint64_t> &tokens);
    void suspect(net::MacAddr mac);
    bool live(net::MacAddr mac);
    /** A background piece covers chunk @p idx whole: claim it. */
    void claim(std::size_t idx);
    /** Sectors of chunk @p idx inside the image (the last is short). */
    std::uint32_t chunkSpan(std::size_t idx) const;

    aoe::AoeInitiator &aoe_;
    StoreFabric &fabric_;
    std::string image_;
    net::MacAddr self_;
    sim::Lba imageSectors_;
    bool halted_ = false;
    sim::RateGate gate_;

    /** Per-chunk lifecycle: sectors landed; 0 filling, 1 registered,
     *  2 poisoned. */
    struct ChunkState
    {
        std::uint32_t landed = 0;
        std::uint8_t state = 0;
    };
    std::map<std::size_t, ChunkState> chunkState_;

    /** Sources deprioritized until a deadline after a failure. */
    std::map<net::MacAddr, sim::Tick> suspectUntil_;

    std::uint64_t peerHits_ = 0;
    std::uint64_t seedFetches_ = 0;
    std::uint64_t reconstructions_ = 0;
    std::uint64_t sourceFailures_ = 0;
    std::uint64_t stalls_ = 0;
    std::uint64_t gateWaits_ = 0;
    std::uint64_t chunkSeedFetches_ = 0;
    std::uint64_t deferredPicks_ = 0;
    std::uint64_t fallbackPicks_ = 0;

    obs::Track obsTrack_;
};

} // namespace store

#endif // STORE_STREAMER_HH
