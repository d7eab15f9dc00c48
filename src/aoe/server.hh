/**
 * @file
 * The AoE storage server ("vblade" with the paper's thread-pool
 * extension, §4.2).
 *
 * The original vblade is single-threaded and bottlenecks when the VMM
 * issues a large volume of read requests; the paper adds a thread
 * pool. Both configurations are modelled: `workers = 1` reproduces
 * the original, larger values the extension. Workers share the
 * server's backing store bandwidth.
 */

#ifndef AOE_SERVER_HH
#define AOE_SERVER_HH

#include <deque>
#include <map>
#include <vector>

#include "aoe/protocol.hh"
#include "hw/disk_store.hh"
#include "net/network.hh"
#include "obs/obs.hh"
#include "simcore/fault_injector.hh"
#include "simcore/random.hh"
#include "simcore/sim_object.hh"

namespace aoe {

/** Server service-model parameters. */
struct ServerParams
{
    /** Worker threads (1 = original vblade). */
    unsigned workers = 4;
    /** CPU per request: parse, lookup, syscall setup. */
    sim::Tick cpuPerRequest = 30 * sim::kUs;
    /** CPU per response/ack frame prepared. */
    sim::Tick cpuPerFragment = 6 * sim::kUs;
    /**
     * Probability that a read is served from the server's page
     * cache. Zero for the raw block-device vblade of the prototype;
     * file-level servers (the NFS baselines) benefit from host
     * caching.
     */
    double cacheHitRate = 0.0;
};

/** One exported target (a disk image). */
struct AoeTarget
{
    std::uint16_t major = 0;
    std::uint8_t minor = 0;
    sim::Lba capacity = 0;
    hw::DiskStore store;
};

/** The server, attached directly to a switch port. */
class AoeServer : public sim::SimObject
{
  public:
    AoeServer(sim::EventQueue &eq, std::string name, net::Port &port,
              ServerParams params = ServerParams{});

    /**
     * Export a target whose every sector initially holds content
     * derived from @p imageBase (the "golden image").
     */
    AoeTarget &addTarget(std::uint16_t major, std::uint8_t minor,
                         sim::Lba capacity, std::uint64_t imageBase);

    AoeTarget *findTarget(std::uint16_t major, std::uint8_t minor);

    /** Drop every exported target (node release: the machine's disk
     *  no longer backs any chunk exports). */
    void clearTargets() { targets.clear(); }

    /** @name Telemetry */
    /// @{
    std::uint64_t requestsServed() const { return numServed; }
    sim::Bytes dataBytesOut() const { return bytesOut; }
    /** Aggregate worker busy time (utilization across the pool). */
    sim::Tick workerBusyTime() const { return busyTime; }
    const ServerParams &params() const { return params_; }
    std::uint64_t crashes() const { return numCrashes; }
    std::uint64_t restarts() const { return numRestarts; }
    /** Frames that arrived while the server was offline. */
    std::uint64_t framesDroppedOffline() const { return offlineDrops; }
    /** Re-sent legacy read requests dropped because the original's
     *  response was still going out. */
    std::uint64_t duplicatesSuppressed() const { return numDupsSuppressed; }
    /// @}

    /** @name Failure model */
    /// @{
    bool online() const { return online_; }

    /**
     * Take the server down hard: the request queue, in-progress
     * responses, write reassembly state and not-yet-committed
     * write-back data are all lost.  Frames arriving while offline
     * are dropped (and counted).
     */
    void crash();

    /** Bring a crashed server back with cold worker/cache state. */
    void restart();

    /** Freeze request processing for @p d (GC pause, overload). */
    void stallFor(sim::Tick d);

    /**
     * Attach a fault injector (nullptr detaches).  Consulted per
     * arriving request frame for ServerCrash (with an optional
     * auto-restart after the plan magnitude) and ServerStall.
     */
    void setFaultInjector(sim::FaultInjector *fi) { faults = fi; }
    /// @}

  private:
    struct Job
    {
        Message request;
        net::MacAddr client;
    };

    /** Write-reassembly / live-read key: (client MAC, tag). */
    using RxKey = std::pair<net::MacAddr, std::uint32_t>;

    /** A legacy read whose response fragments are still going out. */
    struct LiveRead
    {
        sim::Lba lba = 0;
        std::uint32_t totalSectors = 0;
        sim::Tick lastFragment = 0;
    };

    struct WriteAssembly
    {
        std::vector<std::uint64_t> tokens;
        std::vector<bool> got;
        std::uint32_t numGot = 0;
        sim::Lba lba = 0;
    };

    void onFrame(const net::Frame &frame);
    void enqueue(Job job);
    void dispatch();
    void serve(unsigned worker, Job job);
    sim::Tick diskOccupy(sim::Lba lba, std::uint32_t sectors,
                         bool isWrite, sim::Tick earliest,
                         bool *cacheHit = nullptr,
                         bool shardStream = false);

    net::Port &port;
    ServerParams params_;
    sim::Rng rng;
    sim::FaultInjector *faults = nullptr;
    std::map<std::pair<std::uint16_t, std::uint8_t>, AoeTarget> targets;

    std::deque<Job> queue;
    std::vector<sim::Tick> workerFreeAt;
    sim::Tick diskFreeAt = 0;
    sim::Lba diskHead = 0;
    std::map<RxKey, WriteAssembly> assemblies;
    /**
     * kCmdAta reads being answered. A re-request of the same read
     * (the initiator timed out while the original sat behind the
     * disk) is dropped until the last fragment leaves; the one
     * re-sent after it is served, so loss recovery still works.
     * Shard reads are exempt: their short budget and reroute, not a
     * duplicate, decide how a slow source is handled.
     */
    std::map<RxKey, LiveRead> liveReads;

    /**
     * Liveness epoch: bumped on every crash.  Response and write-back
     * commit events capture the epoch they were scheduled under and
     * become no-ops if the server crashed in between — a crash loses
     * everything in flight.
     */
    std::uint64_t epoch_ = 0;
    bool online_ = true;
    sim::Tick stallUntil_ = 0;

    std::uint64_t numServed = 0;
    sim::Bytes bytesOut = 0;
    sim::Tick busyTime = 0;
    std::uint64_t numCrashes = 0;
    std::uint64_t numRestarts = 0;
    std::uint64_t offlineDrops = 0;
    std::uint64_t numDupsSuppressed = 0;

    obs::Track obsTrack_;
};

} // namespace aoe

#endif // AOE_SERVER_HH
