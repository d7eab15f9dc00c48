/**
 * @file
 * NetMediationCore: the controller-agnostic heart of the shared-NIC
 * mediation tier.
 *
 * One core multiplexes one physical NIC (behind an E1000RingPort)
 * among the VMM and N guests (each behind an E1000GuestPort), in one
 * of three modes:
 *
 *  - Trap: shadow rings, every doorbell access exits (paper §6).
 *  - Exitless: shadow rings, doorbells in shared memory, a sidecore
 *    poll loop does the moving; the guest's data path never exits.
 *  - Passthrough: the (single) guest owns the real rings; the VMM
 *    keeps only a software tap on the device for TX pacing and RX
 *    steering, and sends its own frames around the rings.
 *
 * TX scheduling across guests is deficit-round-robin weighted by
 * GuestQos::weight, with a per-guest token bucket (rateBps/burstBytes)
 * in front and an optional RateGate behind it (the hook through which
 * guest serving traffic draws on the cluster CongestionController).
 * A frame is charged against the gate exactly once (gates book on
 * call); a frame that fails admission stays in the guest's ring and
 * is retried on the next service.
 *
 * RX demultiplexing: frames of the VMM's ether type go to the VMM;
 * broadcast goes to every guest; otherwise the destination MAC picks
 * the guest, falling back to the catch-all guest (mac == 0) — which
 * is exactly the legacy single-guest promiscuous behaviour.
 *
 * Fault sites: nic.ring_stall freezes service for `magnitude` ticks;
 * nic.frame_drop (keyed by slot) loses one frame at a copy point.
 * Both draw nothing when unarmed.
 */

#ifndef NETMED_NET_MEDIATION_CORE_HH
#define NETMED_NET_MEDIATION_CORE_HH

#include <memory>
#include <string>
#include <vector>

#include "hw/interrupts.hh"
#include "hw/io_bus.hh"
#include "hw/mem_arena.hh"
#include "hw/nic.hh"
#include "hw/phys_mem.hh"
#include "net/l2.hh"
#include "netmed/e1000_guest_port.hh"
#include "netmed/e1000_ring_port.hh"
#include "netmed/types.hh"
#include "obs/obs.hh"
#include "simcore/fault_injector.hh"
#include "simcore/sim_object.hh"

namespace netmed {

/** The core: also the VMM's L2 endpoint on the shared NIC. */
class NetMediationCore : public sim::SimObject, public net::L2Endpoint
{
  public:
    /** How one guest attaches. */
    struct GuestConfig
    {
        /** Register window; 0 = the physical NIC's own window. */
        sim::Addr windowBase = 0;
        /** Demux address; 0 = catch-all (receives unmatched frames). */
        net::MacAddr mac = 0;
        /** Exitless doorbell page (0 = trapped doorbells). */
        sim::Addr doorbell = 0;
        /** Virtual interrupt path (required for virtual windows). */
        hw::InterruptController *intc = nullptr;
        unsigned irqVector = 0;
        GuestQos qos;
    };

    NetMediationCore(sim::EventQueue &eq, std::string name,
                     hw::IoBus &bus, hw::PhysMem &mem,
                     hw::E1000Nic &nic, hw::MemArena &vmmArena,
                     MedMode mode, std::uint16_t vmmEtherType);

    /** Register a guest (before install). @return slot index. */
    unsigned addGuest(const GuestConfig &cfg);

    void setGuestQos(unsigned slot, const GuestQos &qos);

    /** Cluster bandwidth gate for one guest's TX (may be empty). */
    void setGuestGate(unsigned slot, sim::RateGate gate);

    /** Seize the NIC: shadow rings + intercepts (or taps). */
    void install();

    /** De-virtualize: drain, hand the device to the real-window
     *  guest's configuration, drop every intercept. */
    void uninstall();

    /** Tear down intercepts without reprogramming (machine death). */
    void powerOff();

    /** VMM-side service: reap TX, sync doorbells, drain RX, pump. */
    void poll();

    /** Trap-mode ICR path: sync shadow RX before the guest looks. */
    void syncGuestRx();

    /** @name net::L2Endpoint (the VMM's network path). */
    /// @{
    void sendFrame(net::Frame frame) override;
    net::MacAddr localMac() const override;
    sim::Bytes mtu() const override;
    void setRxHandler(RxHandler handler) override
    {
        vmmRxH = std::move(handler);
    }
    /// @}

    /** Consulted at nic.ring_stall / nic.frame_drop (null detaches). */
    void setFaultInjector(sim::FaultInjector *fi) { faults = fi; }

    MedMode mode() const { return mode_; }
    const NetMedStats &stats() const { return stats_; }
    const GuestStats &guestStats(unsigned slot) const;
    E1000GuestPort &guestPort(unsigned slot);

  private:
    struct Slot
    {
        GuestConfig cfg;
        std::unique_ptr<E1000GuestPort> port; //!< null in passthrough
        GuestStats gstats;
        double tokens = 0.0;     //!< token-bucket fill (bytes)
        sim::Tick lastRefill = 0;
        double deficit = 0.0;    //!< DRR deficit (wire bytes)
        sim::RateGate gate;
        bool gateCharged = false;
        sim::Tick gateReadyAt = 0;
        bool deferred = false; //!< head frame already counted throttled
        bool rxPosted = false; //!< RX delivered since last cause post
        bool txPosted = false; //!< TX pumped since last cause post
        bool visited = false;  //!< quantum granted this DRR visit
    };

    void drainRx();
    void deliver(const net::Frame &frame);
    void tryDeliver(unsigned idx, const net::Frame &frame);
    void pumpGuests();
    void refill(Slot &s, sim::Tick t);
    bool admitTx(Slot &s, sim::Bytes wire);
    bool deferTx(Slot &s);
    void installTaps();

    hw::IoBus &bus;
    hw::PhysMem &mem;
    hw::E1000Nic &nic_;
    MedMode mode_;
    std::uint16_t vmmEtherType;

    std::unique_ptr<E1000RingPort> ringPort;
    std::vector<Slot> slots_;
    unsigned rrNext_ = 0; //!< persistent DRR rotation cursor
    bool installed_ = false;
    RxHandler vmmRxH;

    sim::FaultInjector *faults = nullptr;
    sim::Tick stallUntil = 0;

    NetMedStats stats_;
    obs::Track track_;
};

} // namespace netmed

#endif // NETMED_NET_MEDIATION_CORE_HH
