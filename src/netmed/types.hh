/**
 * @file
 * Shared types for the NIC mediation tier (src/netmed).
 *
 * netmed is the network analogue of the storage MediationCore: a
 * controller-agnostic multiplexing layer that lets one physical NIC
 * serve the VMM and any number of guests at once, with per-guest QoS.
 * It deliberately has no dependency on the control plane: its
 * sim::RateGate lets a CongestionController be handed in as a plain
 * function, without linking cloudctl.
 */

#ifndef NETMED_TYPES_HH
#define NETMED_TYPES_HH

#include <cstdint>
#include <functional>

#include "simcore/types.hh"

namespace netmed {

/** How a guest reaches the shared NIC. */
enum class MedMode {
    /**
     * Every doorbell register access is intercepted: the classic
     * shadow-ring mediator (paper §6). Highest exit rate.
     */
    Trap,
    /**
     * Shadow rings, but steady-state doorbells (TDT/RDT/ICR) travel
     * through a shared-memory page polled by a VMM sidecore; the
     * guest's hot path never exits.
     */
    Exitless,
    /**
     * The guest owns the real descriptor rings; the VMM retains only
     * a software tap on the device (TX pacing, RX steering). Single
     * guest only.
     */
    Passthrough,
};

const char *medModeName(MedMode mode);

/** Per-guest traffic contract. */
struct GuestQos
{
    /** Token-bucket rate in bits/s; 0 disables the bucket. */
    double rateBps = 0.0;
    /** Token-bucket depth. */
    sim::Bytes burstBytes = 64 * 1024;
    /** Deficit-round-robin weight for the shared TX path. */
    unsigned weight = 1;
};

/** Tier-wide counters. */
struct NetMedStats
{
    std::uint64_t guestTx = 0;   //!< guest frames copied to the wire
    std::uint64_t guestRx = 0;   //!< frames copied into guest rings
    std::uint64_t vmmTx = 0;     //!< VMM frames sent via the tier
    std::uint64_t vmmRx = 0;     //!< frames demuxed to the VMM
    std::uint64_t copies = 0;    //!< descriptor/buffer copies
    std::uint64_t polls = 0;     //!< service-loop invocations
    std::uint64_t txThrottled = 0; //!< sends delayed by QoS
    std::uint64_t ringStalls = 0;  //!< injected nic.ring_stall events
    std::uint64_t injectedDrops = 0; //!< injected nic.frame_drop events
};

/** Per-guest counters. */
struct GuestStats
{
    std::uint64_t txFrames = 0;
    std::uint64_t txWireBytes = 0; //!< on-wire bytes (QoS accounting)
    std::uint64_t rxFrames = 0;
};

/** A guest's virtualized e1000-style ring-register file. */
struct GuestRingState
{
    std::uint32_t tdbal = 0, tdlen = 0, tdh = 0, tdt = 0;
    std::uint32_t rdbal = 0, rdlen = 0, rdh = 0, rdt = 0;
    std::uint32_t rctl = 0, tctl = 0, ims = 0, icr = 0;
};

} // namespace netmed

#endif // NETMED_TYPES_HH
