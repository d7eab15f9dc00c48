/**
 * @file
 * Event-driven lease control plane for a bare-metal region.
 *
 * Replaces the blocking provision/release call path with an
 * admission-queued, failure-domain-aware state machine:
 *
 *   submit -> [AdmissionQueue: bounded, QoS priority, typed
 *   backpressure] -> place (spread across usable racks, tiebreak on
 *   the port's congestion score) -> deploy (through the
 *   ProvisionerPort, asynchronously) -> serving -> release -> scrub
 *   -> slot free -> pump the queue again.
 *
 * The plane owns slot occupancy and rack load; the ProvisionerPort
 * is the mechanism boundary: bmcast::Cloud implements it inline on
 * one EventQueue (the legacy synchronous shim), while a sharded
 * fleet world implements it with cross-shard messages — the plane
 * itself never assumes either. All plane entry points must be called
 * from its own queue's execution context.
 *
 * Rack outages ride the PR-3 fault machinery: armRackHealthProbe
 * polls the sim::FaultSite::RackOutage site periodically; a fired
 * outage takes the keyed rack out of placement for the plan's
 * magnitude, then recovery is recorded as the derived RackRecover
 * site. Unarmed plans keep the probe drawing nothing, preserving the
 * bit-identical-when-unarmed contract.
 */

#ifndef CLOUD_CONTROL_PLANE_HH
#define CLOUD_CONTROL_PLANE_HH

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cloud/admission_queue.hh"
#include "cloud/lease.hh"
#include "obs/obs.hh"
#include "simcore/fault_injector.hh"
#include "simcore/sim_object.hh"

namespace cloud {

/**
 * The mechanism the plane drives. Implementations must eventually
 * answer startDeployment with noteServing(id) and startRelease with
 * noteReleased(id) (on the plane's queue context).
 */
class ProvisionerPort
{
  public:
    virtual ~ProvisionerPort() = default;

    /** Pool size; slots are identified by [0, slots()). */
    virtual unsigned slots() const = 0;
    /** Failure domain of @p slot. */
    virtual unsigned rackOfSlot(unsigned slot) const = 0;

    /** Begin deploying @p lease's image on its assigned slot. */
    virtual void startDeployment(Lease &lease) = 0;
    /** Begin tearing down @p lease's slot (power off + scrub I/O). */
    virtual void startRelease(Lease &lease) = 0;

    /**
     * Begin live-migrating @p lease from its current slot to
     * @p destSlot (already reserved by the plane). Must eventually
     * answer with noteMigrated(id) or noteMigrationFailed(id). The
     * default implementation is fatal: ports that never see
     * ControlPlane::migrate need not implement it.
     */
    virtual void startMigration(Lease &lease, unsigned destSlot);

    /**
     * Placement tiebreak after rack load: a congestion figure for
     * @p rack, lower = roomier (e.g. aggregation-link backlog, or
     * in-flight deployments). Must only read state owned by the
     * plane's shard.
     */
    virtual std::uint64_t
    rackScore(unsigned rack) const
    {
        (void)rack;
        return 0;
    }
};

struct ControlPlaneParams
{
    AdmissionQueue::Params queue;
    /**
     * Post-release scrub time before the slot re-enters the pool.
     * 0 keeps the legacy synchronous contract: the slot is free the
     * moment the port's release path finishes, with no extra events.
     */
    sim::Tick scrubTime = 0;
};

/** Aggregate plane counters. */
struct ControlPlaneStats
{
    std::uint64_t submitted = 0;
    std::uint64_t placed = 0;
    std::uint64_t served = 0;
    std::uint64_t released = 0;
    std::uint64_t canceled = 0; ///< released while still queued
    std::array<std::uint64_t, 5> rejected{}; ///< by RejectReason
    std::uint64_t migrated = 0;      ///< live migrations completed
    std::uint64_t migrateFailed = 0; ///< aborted, rolled back
    std::array<std::uint64_t, 5> migrateRejected{}; ///< MigrateReject
};

class ControlPlane : public sim::SimObject
{
  public:
    ControlPlane(sim::EventQueue &eq, std::string name,
                 ControlPlaneParams params, ProvisionerPort &port);

    /**
     * Submit a lease request. Always returns a valid handle: check
     * state() — Rejected (typed backpressure, also reported through
     * @p onRejected), Queued (waiting for capacity), or Deploying
     * (placed immediately). @p onServing fires when the port reports
     * the guest up.
     */
    Lease *submit(LeaseRequest rq, Lease::ServingFn onServing,
                  Lease::RejectedFn onRejected = {});

    /**
     * Release @p l: cancels a Queued lease outright; a Deploying,
     * Serving, or Migrating lease transitions to Releasing and tears
     * down through the port (a Migrating lease's reserved destination
     * slot is freed with it). Releasing a terminal lease is fatal.
     */
    void release(Lease &l);

    /**
     * Live-migrate lease @p leaseId onto free slot @p destSlot.
     * Serving leases only — a Deploying lease is refused NotServing
     * (migrate-during-deploy resolves by finishing the deploy first).
     * On None the destination slot is reserved, the lease turns
     * Migrating, and the port's startMigration runs; any other value
     * leaves the lease and the pool untouched.
     */
    MigrateReject migrate(std::uint64_t leaseId, unsigned destSlot);

    /** @name Migration completion notifications (plane-queue context)
     *  Both are ignored unless the lease is still Migrating (a
     *  release that raced the migration wins). */
    /// @{
    /** Destination is serving: the lease moves to the destination
     *  slot/rack and the old slot scrubs back into the pool. */
    void noteMigrated(std::uint64_t leaseId);
    /** Migration aborted: the lease stays Serving on its source slot
     *  and the reserved destination scrubs back into the pool. */
    void noteMigrationFailed(std::uint64_t leaseId);
    /// @}

    /** @name Port completion notifications (plane-queue context) */
    /// @{
    /** The deployment on @p leaseId's slot reached a serving guest.
     *  Ignored if the lease was released meanwhile. */
    void noteServing(std::uint64_t leaseId);
    /** The port finished @p leaseId's teardown; after scrubTime the
     *  slot re-enters the pool and the queue is pumped. */
    void noteReleased(std::uint64_t leaseId);
    /// @}

    /** @name Failure domains */
    /// @{
    void setRackUsable(unsigned rack, bool usable);
    bool rackUsable(unsigned rack) const;
    /**
     * Poll @p fi's RackOutage site every @p period per rack (key =
     * rack id). A fired outage marks the rack unusable for the
     * plan's magnitude (default 10 s), then recovery fires the
     * derived RackRecover site and re-pumps the queue.
     */
    void armRackHealthProbe(sim::FaultInjector *fi, sim::Tick period);
    /// @}

    /** @name Introspection */
    /// @{
    unsigned freeSlots() const;
    unsigned rackLoad(unsigned rack) const;
    std::size_t queueDepth() const { return queue_.depth(); }
    std::size_t
    queueDepth(QosClass c) const
    {
        return queue_.depth(c);
    }
    std::size_t queuePeakDepth() const { return queue_.peakDepth(); }
    const ControlPlaneStats &stats() const { return stats_; }
    std::uint64_t
    rejectedFor(RejectReason r) const
    {
        return stats_.rejected[static_cast<unsigned>(r)];
    }
    std::uint64_t
    migrateRejectedFor(MigrateReject r) const
    {
        return stats_.migrateRejected[static_cast<unsigned>(r)];
    }
    Lease *leaseById(std::uint64_t id);
    /** Every lease ever submitted, in submission order. */
    const std::vector<std::unique_ptr<Lease>> &leases() const
    {
        return leases_;
    }
    /// @}

  private:
    void reject(Lease &l, RejectReason why);
    /** Place queued leases (strict priority, FIFO within class)
     *  until capacity or the head is unplaceable. */
    void pump();
    /** Best free slot for one lease; slots() when none. */
    unsigned pickSlot() const;
    bool tryPlace(Lease &l);
    void finishRelease(Lease &l);
    /** Scrub @p slot back into the pool after scrubTime. */
    void reclaimSlot(unsigned slot);
    void probeRackHealth();
    /** Trace the queue depth as an obs counter (disarmed: no-op). */
    void noteQueueDepth();

    ControlPlaneParams prm_;
    ProvisionerPort &port_;
    AdmissionQueue queue_;

    std::vector<std::unique_ptr<Lease>> leases_;
    std::uint64_t nextId_ = 1;
    /** Slot occupancy: owner lease (nullptr = free). Includes slots
     *  still scrubbing. */
    std::vector<Lease *> slotOwner_;
    std::vector<unsigned> rackLoad_;
    std::vector<bool> rackUsable_;
    /** Outage recovery deadline per rack (0 = none pending). */
    std::vector<sim::Tick> rackDownUntil_;

    sim::FaultInjector *healthFi_ = nullptr;
    sim::Tick probePeriod_ = 0;

    ControlPlaneStats stats_;
    obs::Track obsTrack_;
};

} // namespace cloud

#endif // CLOUD_CONTROL_PLANE_HH
