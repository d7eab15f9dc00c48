/**
 * @file
 * Control-plane vocabulary: tenants, QoS classes, lease lifecycle
 * states and typed admission rejections.
 */

#ifndef CLOUD_TYPES_HH
#define CLOUD_TYPES_HH

#include <cstdint>

#include "simcore/types.hh"

namespace cloud {

/** Tenant identity; 0 is the anonymous/legacy tenant. */
using TenantId = std::uint32_t;

/** Admission priority classes, highest first. Placement is strict
 *  priority across classes, FIFO within one. */
enum class QosClass : std::uint8_t {
    Critical = 0, ///< serving-capacity restoration, repairs
    Standard,     ///< ordinary tenant leases
    Scavenger,    ///< preemptible batch / spot capacity
};

constexpr unsigned kNumQosClasses = 3;

/** Typed admission backpressure. */
enum class RejectReason : std::uint8_t {
    None = 0,
    QueueFull,      ///< region-wide admission queue at capacity
    TenantQueueCap, ///< this tenant's queued share at its cap
    RegionFull,     ///< fail-fast lease and no free machine
    NoUsableRack,   ///< free machines exist, all in failed racks
};

/** Async lease lifecycle. */
enum class LeaseState : std::uint8_t {
    Queued = 0, ///< admitted, waiting for capacity
    Placing,    ///< slot selection in progress
    Deploying,  ///< BMcast pipeline running on the chosen node
    Serving,    ///< guest up (bare metal may still be pending)
    Migrating,  ///< live migration to a reserved destination slot
    Releasing,  ///< teardown + scrub in progress
    Released,   ///< slot returned to the pool (terminal)
    Rejected,   ///< admission backpressure (terminal)
};

/**
 * Typed migration refusal. Separate from RejectReason: admission
 * rejections are terminal lease outcomes, a refused migrate leaves
 * the lease Serving untouched.
 */
enum class MigrateReject : std::uint8_t {
    None = 0,
    NotServing,   ///< lease is not currently Serving
    DestBusy,     ///< destination slot is occupied (or scrubbing)
    DestRackDown, ///< destination rack drained by the health probe
    SameSlot,     ///< destination is the lease's current slot
};

const char *rejectReasonName(RejectReason r);
const char *leaseStateName(LeaseState s);
const char *migrateRejectName(MigrateReject r);

} // namespace cloud

#endif // CLOUD_TYPES_HH
