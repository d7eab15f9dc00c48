/**
 * @file
 * AoE initiator: the client side used by the BMcast VMM (copy-on-read
 * redirection and background copy) and by the image-copying baseline.
 *
 * Large transfers split into requests of at most 2048 sectors
 * (1 MiB); each request's data moves in MTU-sized
 * fragments. Lost frames are recovered by whole-request
 * retransmission with exponential backoff (the paper's extension for
 * loss tolerance).
 */

#ifndef AOE_INITIATOR_HH
#define AOE_INITIATOR_HH

#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "net/l2.hh"
#include "aoe/protocol.hh"
#include "obs/obs.hh"
#include "simcore/random.hh"
#include "simcore/sim_object.hh"

namespace aoe {

/** Initiator tuning. */
struct InitiatorParams
{
    std::uint16_t major = 0;
    std::uint8_t minor = 0;
    /** Floor for the retransmission timeout (well above a loaded
     *  server's worst-case service time; retransmission is for
     *  loss, not for pacing). */
    sim::Tick minTimeout = 80 * sim::kMs;
    /**
     * Retry budget per request: once exhausted the error handler
     * decides (default: drop the request and surface a terminal
     * DeployError).  At the backoff cap one full budget spans
     * minutes, so this only trips when the server is really gone —
     * not under heavy random loss.  Negative = retry forever (the
     * pre-budget behaviour).
     */
    int maxRetries = 24;
    /** Seed for the retransmission-jitter stream. */
    std::uint64_t seed = 1;
    /**
     * Routed (store) reads fail fast instead of retrying forever: the
     * streamer has other sources to try.  Timeout floor of that
     * separate, two-retry budget.
     */
    sim::Tick shardMinTimeout = 40 * sim::kMs;
};

/** A request that exhausted its retry budget. */
struct DeployError
{
    bool isWrite = false;
    sim::Lba lba = 0;
    std::uint32_t count = 0;
    int retries = 0;
    /** The server that stopped answering. */
    net::MacAddr server = 0;
};

/** What the error handler wants done with the doomed request. */
enum class ErrorAction {
    Drop,  ///< Abandon it; its completion callback never fires.
    Retry, ///< Reset the budget and keep trying (e.g. after failover).
};

/** Outcome of a routed (store) read. */
enum class RoutedStatus {
    Ok,        ///< Tokens delivered and digest-verified.
    Timeout,   ///< Source never answered within the shard budget.
    Error,     ///< Source answered with an AoE error.
    BadDigest, ///< Payload did not match its carried digest.
};

/** The initiator. */
class AoeInitiator : public sim::SimObject
{
  public:
    using ReadCallback =
        std::function<void(const std::vector<std::uint64_t> &tokens)>;
    using WriteCallback = std::function<void()>;
    using DiscoverCallback = std::function<void(bool found)>;
    using RoutedReadCallback = std::function<void(
        RoutedStatus, const std::vector<std::uint64_t> &tokens)>;

    AoeInitiator(sim::EventQueue &eq, std::string name,
                 net::L2Endpoint &nic, net::MacAddr serverMac,
                 InitiatorParams params = InitiatorParams{});

    /** Read [lba, lba+count); completion delivers one token/sector. */
    void readSectors(sim::Lba lba, std::uint32_t count,
                     ReadCallback done);

    /** Write tokens to [lba, lba+count). */
    void writeSectors(sim::Lba lba,
                      std::vector<std::uint64_t> tokens,
                      WriteCallback done);

    /** Write a whole range sharing one content base. */
    void writeRange(sim::Lba lba, std::uint32_t count,
                    std::uint64_t contentBase, WriteCallback done);

    /**
     * Read [lba, lba+count) from an explicit @p source (a peer node
     * or an erasure-stripe member) instead of the default server.
     * Uses kCmdShardRead: digest-checked payloads, a short timeout,
     * and a small retry budget — on failure the callback reports why
     * and the store tier picks another source.  Never retargeted by
     * retarget().
     */
    void readSectorsVia(net::MacAddr source, sim::Lba lba,
                        std::uint32_t count, RoutedReadCallback done);

    /** Probe the server. */
    void discover(DiscoverCallback done);

    /**
     * Cancel all outstanding requests and timers (power-off /
     * teardown). Completion callbacks of in-flight requests are
     * dropped.
     */
    void shutdown();

    /**
     * Handler invoked when a request exhausts its retry budget; its
     * return value decides the request's fate.  The handler may call
     * retarget() first (multi-server failover) and then return Retry.
     * Without a handler, doomed requests are dropped.
     */
    using ErrorHandler = std::function<ErrorAction(const DeployError &)>;
    void setErrorHandler(ErrorHandler h) { errorHandler = std::move(h); }

    /**
     * Switch to a different server and immediately retransmit every
     * outstanding request to it with a fresh retry budget (deployment
     * failover: the old server's in-flight responses are stale).
     */
    void retarget(net::MacAddr newServer);

    /** The server currently targeted. */
    net::MacAddr serverMac() const { return server; }

    /** @name Telemetry */
    /// @{
    std::uint64_t requestsIssued() const { return numRequests; }
    std::uint64_t retransmissions() const { return numRetx; }
    /** Requests that exhausted their retry budget. */
    std::uint64_t terminalErrors() const { return numErrors; }
    sim::Bytes dataBytesRead() const { return bytesRead; }
    std::size_t inflight() const { return pending.size(); }
    sim::Tick rttEstimate() const { return rttEma; }
    /** Routed reads rejected for a digest mismatch. */
    std::uint64_t shardDigestMismatches() const
    {
        return numDigestMismatches;
    }
    /// @}

  private:
    struct Call
    {
        std::vector<std::uint64_t> tokens;
        std::size_t remainingRequests = 0;
        ReadCallback readDone;
        WriteCallback writeDone;
    };

    struct Pending
    {
        bool isWrite = false;
        sim::Lba lba = 0;
        std::uint32_t count = 0;
        std::shared_ptr<Call> call;
        std::uint32_t callOffset = 0;

        std::vector<std::uint64_t> rxTokens;
        std::vector<bool> got;
        std::uint32_t numGot = 0;
        bool acked = false;

        sim::Tick lastSent = 0;
        int retries = 0;
        sim::EventId timer;

        /** Routed reads only: explicit source (0 = default server). */
        net::MacAddr dest = 0;
        RoutedReadCallback routedDone;
    };

    void issue(bool isWrite, sim::Lba lba, std::uint32_t count,
               std::shared_ptr<Call> call, std::uint32_t offset);
    void sendRequest(std::uint32_t tag, Pending &p);
    void failRouted(std::uint32_t tag, RoutedStatus status);
    void armTimer(std::uint32_t tag, Pending &p);
    void onTimeout(std::uint32_t tag);
    void onFrame(const net::Frame &frame);
    void completeRequest(std::uint32_t tag, Pending &p);
    sim::Tick timeout(Pending &p);

    net::L2Endpoint &nic;
    net::MacAddr server;
    InitiatorParams params;
    sim::Rng rng;
    ErrorHandler errorHandler;

    std::uint32_t nextTag = 1;
    std::map<std::uint32_t, Pending> pending;
    std::map<std::uint32_t, DiscoverCallback> discoverPending;

    sim::Tick rttEma = 0;
    std::uint64_t numRequests = 0;
    std::uint64_t numRetx = 0;
    std::uint64_t numErrors = 0;
    std::uint64_t numDigestMismatches = 0;
    sim::Bytes bytesRead = 0;

    /** Flow/async correlation id shared with the server side: both
     *  ends derive it from (client MAC, tag) alone. */
    std::uint64_t
    obsFlowId(std::uint32_t tag) const
    {
        return aoeFlowId(nic.localMac(), tag);
    }

    obs::Track obsTrack_;
    obs::Histogram *rttHist_ = nullptr;
    std::uint64_t rttHistEpoch_ = 0;
};

} // namespace aoe

#endif // AOE_INITIATOR_HH
