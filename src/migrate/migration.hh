/**
 * @file
 * Pre-copy live migration for bare-metal instances (malleable metal).
 *
 * The MigrationManager is the policy/accounting state machine:
 *
 *   Idle -> Revirt -> PreCopy (round 1..N) -> StopAndCopy -> Done
 *                         |___________________________|-> Aborted
 *
 *  - Revirt: the source VMM re-arms under the running guest
 *    (bmcast::Vmm::revirtualize); from its ready instant the guest's
 *    disk writes feed the DirtyTracker.
 *  - PreCopy: each round ships the drained dirty disk set plus the
 *    pending memory working set to the destination. While a round's
 *    bytes are in flight the guest keeps running, re-dirtying disk
 *    blocks (tracked live) and memory (modelled: the working set
 *    re-dirties at a configured rate, capped by its size).
 *  - Convergence rule: after a round lands, if
 *        remaining = trackedDirtyBytes + memoryRedirty
 *    is <= stopCopyThresholdBytes the guest is paused and the
 *    remainder ships as the stop-and-copy; after maxRounds the pause
 *    is forced regardless (forcedStop in the stats). Downtime is
 *    pause -> destination running: the final shipment plus the
 *    handoff (destination de-virtualization + resume) budget.
 *
 * Mechanism is injected as closures (Hooks), so the same manager
 * drives the serial bmcast::Cloud (real VMM, real disks, congestion-
 * shaped topology transport) and the sharded bench world (split
 * up/downlink charging across ShardGroup mailboxes). The manager
 * never touches a disk itself; the handoff hook copies content and
 * the byte accounting here is what the transport bills.
 *
 * Fault sites: FaultSite::MigrateStreamDrop is consulted once per
 * shipment (key = round index, the stop-and-copy counting as round
 * rounds+1) and FaultSite::MigrateDestCrash once at the handoff
 * point. Either aborts the migration: the tracker clears, the abort
 * hook rolls the source back to bare metal, and the guest — which
 * never stopped, or unpauses on the spot — continues with zero lost
 * writes.
 */

#ifndef MIGRATE_MIGRATION_HH
#define MIGRATE_MIGRATION_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "hw/disk_store.hh"
#include "migrate/dirty_tracker.hh"
#include "simcore/fault_injector.hh"
#include "simcore/sim_object.hh"
#include "simcore/types.hh"

namespace migrate {

/** One uniform-content run of a disk diff. */
struct DirtyRun
{
    sim::Lba lba = 0;
    std::uint64_t count = 0;
    std::uint64_t base = 0; //!< source content base (0 = unwritten)
};

/**
 * Runs of [start, start+count) where @p src differs from @p ref, in
 * ascending order, coalesced, carrying src's content base. Used to
 * seed a migration's dirty set (source disk vs. pristine image) and
 * to fold a released instance's writes into a store overlay delta.
 */
std::vector<DirtyRun> diffDisks(const hw::DiskStore &src,
                                const hw::DiskStore &ref,
                                sim::Lba start, std::uint64_t count);

/** Migration tuning. */
struct MigrateParams
{
    /** Memory working set shipped in round 1 (re-dirties after). */
    sim::Bytes memoryBytes = 256 * sim::kMiB;
    /** Rate the shipped working set re-dirties at while running. */
    sim::Bytes memoryDirtyBytesPerSec = 16 * sim::kMiB;
    /** Pause the guest once the remainder fits this budget. */
    sim::Bytes stopCopyThresholdBytes = 8 * sim::kMiB;
    /** Force stop-and-copy after this many pre-copy rounds. */
    unsigned maxRounds = 8;
    /** Destination de-virtualization + resume cost (downtime floor). */
    sim::Tick handoffTime = 50 * sim::kMs;
};

/** Result accounting (stable once Done/Aborted). */
struct MigrateStats
{
    unsigned rounds = 0; //!< pre-copy rounds run
    sim::Bytes bytesShipped = 0;
    sim::Bytes diskBytesShipped = 0;
    sim::Bytes memoryBytesShipped = 0;
    sim::Bytes finalBytes = 0; //!< stop-and-copy shipment
    bool forcedStop = false;   //!< maxRounds hit above the threshold
    bool aborted = false;
    unsigned abortAtRound = 0;
    sim::Tick startedAt = 0;
    sim::Tick pausedAt = 0; //!< guest paused (stop-and-copy begins)
    sim::Tick finishedAt = 0;
    sim::Tick downtime = 0; //!< finishedAt - pausedAt
};

/** The manager. */
class MigrationManager : public sim::SimObject
{
  public:
    enum class Phase
    {
        Idle,
        Revirt,
        PreCopy,
        StopAndCopy,
        Done,
        Aborted,
    };

    /** Ship @p bytes to the destination; fire done() on arrival. */
    using ShipFn =
        std::function<void(sim::Bytes, std::function<void()>)>;
    /** Run a stage (revirt source / apply-and-resume on dest). */
    using StageFn = std::function<void(std::function<void()>)>;
    using DoneFn = std::function<void(const MigrateStats &)>;

    /** The mechanism boundary. */
    struct Hooks
    {
        StageFn revirt;  //!< re-virtualize the source instance
        ShipFn ship;     //!< move bytes over the fabric
        StageFn handoff; //!< apply state + resume on the destination
        DoneFn onDone;   //!< destination running, source may tear down
        DoneFn onAbort;  //!< rolled back; source keeps serving
    };

    MigrationManager(sim::EventQueue &eq, std::string name,
                     MigrateParams params, sim::Lba imageSectors);

    void setFaultInjector(sim::FaultInjector *fi) { fi_ = fi; }

    void
    noteGuestWrite(sim::Lba lba, std::uint32_t count)
    {
        tracker_.note(lba, count);
    }

    /** Pre-seed disk dirt (source disk vs. the deployed image):
     *  blocks the destination cannot reconstruct locally. */
    void seedDirty(const std::vector<DirtyRun> &runs);

    /** Kick off (Idle only). */
    void start(Hooks hooks);

    /**
     * Tear the state machine down without completion callbacks (the
     * control plane releasing a Migrating lease already knows). Any
     * in-flight stage retires without effect.
     */
    void cancel();

    Phase phase() const { return phase_; }
    /** True while the guest is paused — the simulated VM-pause:
     *  workloads gate their writes on this. */
    bool paused() const { return phase_ == Phase::StopAndCopy; }
    bool finished() const
    {
        return phase_ == Phase::Done || phase_ == Phase::Aborted;
    }
    const MigrateStats &stats() const { return stats_; }
    const MigrateParams &params() const { return prm_; }

  private:
    void beginRound();
    void roundShipped(sim::Tick shipStart);
    void stopAndCopy();
    void finalShipped();
    void abort();
    sim::Bytes memRedirty(sim::Tick duration) const;

    MigrateParams prm_;
    DirtyTracker tracker_;
    Hooks hooks_;
    sim::FaultInjector *fi_ = nullptr;

    Phase phase_ = Phase::Idle;
    MigrateStats stats_;
    /** Memory bytes owed to the destination before the next ship. */
    sim::Bytes memPending_ = 0;
    bool canceled_ = false;
};

} // namespace migrate

#endif // MIGRATE_MIGRATION_HH
