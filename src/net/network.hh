/**
 * @file
 * A switched Ethernet segment.
 *
 * Each attached Port has its own line rate, MTU and (for fault
 * injection) loss probability. The model charges transmit
 * serialization at the sender, a fixed switch latency, and receive
 * serialization at the destination, which reproduces both sender-side
 * and receiver-side (e.g. storage-server) saturation.
 */

#ifndef NET_NETWORK_HH
#define NET_NETWORK_HH

#include <functional>
#include <map>
#include <memory>
#include <string>

#include "net/frame.hh"
#include "obs/obs.hh"
#include "simcore/fault_injector.hh"
#include "simcore/random.hh"
#include "simcore/sim_object.hh"
#include "simcore/stats.hh"

namespace net {

class Network;
class Topology;

/** Configuration of one switch port / attached station. */
struct PortConfig
{
    /** Line rate in bits per second (default: gigabit Ethernet). */
    double bitsPerSec = 1e9;
    /** Maximum payload size; 9000 enables jumbo frames. */
    sim::Bytes mtu = 1500;
    /** Probability that a frame transmitted by this port is lost. */
    double lossProbability = 0.0;
};

/**
 * A station attached to the network. Deliveries arrive through the
 * registered receive handler.
 */
class Port
{
  public:
    using RxHandler = std::function<void(const Frame &)>;

    MacAddr mac() const { return mac_; }
    const PortConfig &config() const { return cfg; }

    /** Install the frame delivery callback. */
    void onReceive(RxHandler handler) { rx = std::move(handler); }

    /** Transmit a frame (src is filled in automatically). */
    void send(Frame frame);

    /** Frames from this port dropped (loss or oversize). */
    std::uint64_t framesDropped() const { return numDropped; }
    /** Wire bytes (incl. preamble/IFG) transmitted by this port. */
    sim::Bytes bytesSentOnWire() const { return bytesSent; }
    /** Wire bytes delivered to this port's handler. */
    sim::Bytes bytesReceivedOnWire() const { return bytesReceived; }

  private:
    friend class Network;

    Port(Network &net, MacAddr mac, PortConfig cfg)
        : net_(net), mac_(mac), cfg(cfg) {}

    Network &net_;
    MacAddr mac_;
    PortConfig cfg;
    RxHandler rx;

    sim::Tick txFreeAt = 0;
    sim::Tick rxFreeAt = 0;
    std::uint64_t numDropped = 0;
    sim::Bytes bytesSent = 0;
    sim::Bytes bytesReceived = 0;
};

/** The switch plus all attached ports. */
class Network : public sim::SimObject
{
  public:
    Network(sim::EventQueue &eq, std::string name,
            sim::Tick switchLatency = 4 * sim::kUs,
            std::uint64_t seed = 1);

    /** Attach a new station; the network keeps ownership. */
    Port &attach(MacAddr mac, PortConfig cfg = PortConfig{});

    /** Look up a port by MAC (nullptr if absent). */
    Port *findPort(MacAddr mac);

    /** Fixed one-way switch traversal latency. */
    sim::Tick switchLatency() const { return switchLat; }

    /** Total frames forwarded. */
    std::uint64_t framesForwarded() const { return numForwarded; }

    /**
     * @name Inter-segment uplink (shard/link boundary routing)
     *
     * A segment that is part of a larger topology (e.g. one rack of
     * a sharded experiment) installs an uplink handler: a unicast
     * frame whose destination MAC is not attached locally is handed
     * to the handler — after the sender's serialization has been
     * charged — instead of being dropped. The handler forwards it
     * across the inter-rack link (typically via
     * sim::ShardGroup::postToRack with the link's latency) to the
     * destination segment, which re-injects it with inject().
     * Broadcast stays a segment-local domain. With no handler
     * installed, behavior is exactly the historical drop-and-count.
     */
    /// @{
    using UplinkHandler =
        std::function<void(const Frame &, sim::Tick depart)>;

    /** Install the non-local unicast handler (empty to remove). */
    void setUplink(UplinkHandler h) { uplink = std::move(h); }

    /**
     * Deliver a frame arriving from another segment: charges the
     * switch traversal and the destination port's receive
     * serialization, exactly like a locally forwarded frame. An
     * unknown destination is counted as an uplink drop.
     */
    void inject(const Frame &frame);

    /** Frames handed to the uplink handler. */
    std::uint64_t framesUplinked() const { return numUplinked; }
    /** Injected frames whose destination was unknown here. */
    std::uint64_t uplinkDrops() const { return numUplinkDrops; }
    /// @}

    /**
     * Attach a fault injector (nullptr detaches).  Consulted per
     * transmitted frame for the NetDrop / NetDuplicate / NetReorder /
     * NetCorrupt sites; corruption is modeled as a receiver-side FCS
     * drop (the frame never reaches the handler).
     */
    void setFaultInjector(sim::FaultInjector *fi) { faults = fi; }

    /**
     * Attach a fat-tree topology (nullptr detaches). Unicast frames
     * whose endpoints are placed in different domains (rack vs rack,
     * or rack vs core) additionally traverse and charge the
     * aggregation links (net::Topology::charge); co-located and
     * broadcast traffic is untouched. With no topology attached the
     * transmit path is byte-identical to the flat-segment model.
     * The topology may be shared between several segments (one per
     * rack) provided each segment only carries frames whose
     * endpoints map to its own rack or the core.
     */
    void setTopology(Topology *topo) { topo_ = topo; }
    Topology *topology() { return topo_; }

  private:
    friend class Port;

    void transmit(Port &from, Frame frame);
    void deliverTo(Port &dst, const Frame &frame, sim::Tick depart,
                   sim::Tick extraDelay = 0);

    sim::Tick switchLat;
    sim::Rng rng;
    sim::FaultInjector *faults = nullptr;
    Topology *topo_ = nullptr;
    std::map<MacAddr, std::unique_ptr<Port>> ports;
    std::uint64_t numForwarded = 0;
    UplinkHandler uplink;
    std::uint64_t numUplinked = 0;
    std::uint64_t numUplinkDrops = 0;

    obs::Track obsTrack_;
    std::uint64_t obsFrameSeq_ = 0; //!< per-frame wire-span id
};

} // namespace net

#endif // NET_NETWORK_HH
