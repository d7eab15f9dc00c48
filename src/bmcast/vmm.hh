/**
 * @file
 * The BMcast VMM (paper §3, §4).
 *
 * Life cycle (Fig. 1):
 *  - Initialization: network-boots in seconds (only the dedicated
 *    management NIC is initialized; every other device is left for
 *    the guest), reserves its memory via the BIOS map, turns on VT-x
 *    with nested paging, installs the storage device mediator, and
 *    configures the minimal exit set (storage PIO/MMIO, CR writes,
 *    INIT/SIPI, CPUID, preemption timer).
 *  - Deployment: copy-on-read through the mediator + moderated
 *    background copy fill the local disk while the guest runs with
 *    direct hardware access.
 *  - De-virtualization: when the disk is fully deployed and the
 *    hardware state is consistent (mediator quiescent), nested
 *    paging is turned off per-CPU at independent times (identity
 *    mapping makes TLB shootdown unnecessary, §3.4), intercepts are
 *    removed, and (optionally) VMXOFF is executed.
 *  - Bare-metal: the VMM is gone; the guest owns the machine. The
 *    128 MB reservation and the management NIC remain assigned, as
 *    in the prototype (§4.3).
 */

#ifndef BMCAST_VMM_HH
#define BMCAST_VMM_HH

#include <array>
#include <functional>
#include <memory>

#include "aoe/initiator.hh"
#include "bmcast/background_copy.hh"
#include "bmcast/block_bitmap.hh"
#include "bmcast/mediation_core.hh"
#include "bmcast/params.hh"
#include "hw/e1000_driver.hh"
#include "hw/machine.hh"
#include "obs/obs.hh"
#include "simcore/logging.hh"
#include "simcore/sim_object.hh"
#include "store/streamer.hh"

namespace bmcast {

/** The VMM. */
class Vmm : public sim::SimObject
{
  public:
    enum class Phase
    {
        Off,
        Initialization,
        Deployment,
        Devirtualization,
        BareMetal,
        /** Re-armed under a running bare-metal guest (migration). */
        Revirtualized,
    };

    /**
     * Deployment starts from serverMacs[0] and fails over down the
     * list when the current server stops answering (each AoE
     * request's retry budget exhausts). The block bitmap makes
     * failover resumable: blocks already written locally are never
     * re-fetched.
     *
     * @param imageSectors size of the OS image to deploy; blocks
     *        beyond it (and the reserved region) are not copied.
     * @param vmxoffSupported the prototype did not fully support
     *        VMXOFF (§4.3); when false, VMX stays on after
     *        de-virtualization with only (rare, negligible) CPUID
     *        exits — exactly the configuration evaluated in §5.
     */
    Vmm(sim::EventQueue &eq, std::string name, hw::Machine &machine,
        std::vector<net::MacAddr> serverMacs, sim::Lba imageSectors,
        VmmParams params = VmmParams{}, bool vmxoffSupported = false);

    /**
     * Bind this deployment to the store fabric (must run before
     * netboot()).  With an enabled fabric, fetches route through a
     * ChunkStreamer — peers first, then the erasure stripe — and the
     * node registers as a peer source for chunks it lands.  An empty
     * spec (or a disabled fabric) keeps the legacy single-server
     * path bit-identical.
     */
    void setStoreSpec(store::DeploySpec spec)
    {
        storeSpec_ = std::move(spec);
    }

    /** The store streamer (nullptr on the legacy path). */
    store::ChunkStreamer *streamer() { return streamer_.get(); }

    /**
     * Bind a deployment-bandwidth gate (must run before netboot()).
     * One charge point per fetch, per path: on the legacy path the
     * copy-on-read demand fetches and the background-copy blocks
     * both draw from it, one lane for all image bytes; on the store
     * path the ChunkStreamer charges background pieces only and
     * demand faults stay unshaped. Unset = historical behavior.
     */
    void setRateGate(sim::RateGate g) { gate_ = std::move(g); }

    /**
     * Network-boot the VMM (Initialization phase); @p ready fires
     * when the machine is prepared for the guest OS (Deployment
     * phase entered, background copy running).
     */
    void netboot(std::function<void()> ready);

    /** Invoked when the deployment reaches the Bare-metal phase
     *  (immediately if it already has). One hook: registering a
     *  second one while the first is pending is fatal. */
    void
    onBareMetal(std::function<void()> cb)
    {
        if (phase_ == Phase::BareMetal)
            return cb();
        sim::fatalIf(bareMetalCb != nullptr, name(),
                     ": onBareMetal hook already registered");
        bareMetalCb = std::move(cb);
    }

    /** Ask for de-virtualization as soon as it is safe; normally
     *  triggered automatically when the background copy finishes. */
    void requestDevirtualization();

    /**
     * Model an unclean shutdown during deployment: persists the
     * bitmap and tears the VMM down; a new Vmm on the same Machine
     * resumes from the saved state (§3.3).
     */
    void saveBitmapNow(std::function<void()> done);

    /**
     * Power failure: stop all VMM activity (poll loop, background
     * copy, outstanding AoE requests) and release the hardware. The
     * object must be kept alive until the event queue drains (its
     * scheduled events are guarded, not cancelled).
     */
    void powerOff();

    Phase phase() const { return phase_; }
    sim::Tick phaseEnteredAt(Phase p) const;

    BlockBitmap &bitmap() { return *bitmap_; }
    BackgroundCopy &backgroundCopy() { return *copy; }
    /** The storage mediation core (valid once installed). */
    MediationCore &mediator() { return frontEnd_->core(); }
    aoe::AoeInitiator &initiator() { return *aoe_; }
    hw::Machine &machine() { return machine_; }
    const VmmParams &params() const { return params_; }

    /** Reserved-disk-region geometry (tests). */
    sim::Lba bitmapHomeLba() const { return bitmapHome; }

    /** @name Robustness */
    /// @{
    /** The AoE server currently fetched from. */
    net::MacAddr currentServer() const { return serverMacs[serverIdx]; }
    /** Times the deployment switched to a secondary server. */
    std::uint64_t failovers() const { return numFailovers; }
    /** AoE requests that exhausted their retry budget. */
    std::uint64_t fetchErrors() const { return numFetchErrors; }
    /** Observe terminal fetch errors (fires before any failover). */
    void onDeployError(std::function<void(const aoe::DeployError &)> cb)
    {
        deployErrorCb = std::move(cb);
    }
    /// @}

    /** The cost profile the VMM publishes while deploying. */
    hw::VirtProfile deployProfile() const;

    /** @name Re-virtualization (malleable metal)
     * The reverse arrow: re-arm this VMM under the running bare-metal
     * guest so migration can intercept its disk writes, then remove
     * it again once the instance has moved (or the move aborted).
     */
    /// @{
    /**
     * Re-virtualize a bare-metal machine in place: wait for a
     * guest-quiescent instant (@p guestIdle true, no command mid-
     * flight in the controller), then enter mediation the way the
     * deployment did — nested paging on per CPU, the device mediator
     * reinstalled via its doorbell-readback/resync path, the
     * preemption-timer poll loop restarted. @p ready fires once the
     * mediator intercepts are live — from then on every guest write
     * reaches the write hook.
     */
    void revirtualize(std::function<bool()> guestIdle,
                      std::function<void()> ready);

    /**
     * Leave the Revirtualized phase through the deployment's own
     * exit (quiesce, then leave mediation) — but without touching
     * the long-gone deployment network stack and without re-firing
     * the onBareMetal callback. Used after an aborted migration (the
     * guest keeps running, bare-metal again).
     */
    void devirtualizeAgain(std::function<void()> onDone);

    /**
     * Observe every guest write range the mediation layer sees
     * (migration's DirtyTracker). Indirected through the VMM because
     * MediatorServices is captured by value at mediator construction;
     * set/clear any time, even while installed. Unset = no effect on
     * any code path.
     */
    void
    setGuestWriteHook(std::function<void(sim::Lba, std::uint32_t)> fn)
    {
        guestWriteHook = std::move(fn);
    }
    /// @}

  private:
    void installVmm();
    /** The one entry into mediation (deployment and revirtualize). */
    void enterMediation();
    /** The one exit: ends in BareMetal, then runs @p done. */
    void leaveMediation(std::function<void()> done);
    /** Run @p fn once the mediator is quiescent (unless halted). */
    void whenQuiescent(std::function<void()> fn);
    void armPeriodicBitmapSave();
    void pollLoop();
    void tryDevirtualize();
    /** Have the mediator call tryDevirtualize at its next quiescent
     *  instant (while a requested de-virtualization has not begun). */
    void retryDevirtualizeOnQuiesce();
    void persistBitmap(std::function<void()> done);
    void persistBitmapAttempt(std::uint64_t token,
                              std::function<void()> done);
    void tryRestoreBitmap(std::function<void(bool)> done);
    void enterPhase(Phase p, const char *milestone);
    /** Record an obs deployment milestone (no-op when disarmed). */
    void noteMilestone(const char *what, double value = 0.0);

    hw::Machine &machine_;
    /** Failover chain; serverIdx points at the active server. */
    std::vector<net::MacAddr> serverMacs;
    std::size_t serverIdx = 0;
    sim::Lba imageSectors;
    VmmParams params_;
    bool vmxoffSupported;

    Phase phase_ = Phase::Off;
    std::array<sim::Tick, 6> phaseAt{};

    std::unique_ptr<hw::MemArena> arena;
    std::unique_ptr<hw::E1000Driver> nicDriver;
    std::unique_ptr<aoe::AoeInitiator> aoe_;
    std::unique_ptr<BlockBitmap> bitmap_;
    std::unique_ptr<MediatorFrontEnd> frontEnd_;
    std::unique_ptr<BackgroundCopy> copy;
    store::DeploySpec storeSpec_;
    std::unique_ptr<store::ChunkStreamer> streamer_;
    sim::RateGate gate_;

    sim::Lba bitmapHome = 0;
    sim::Lba dummy = 0;

    bool halted = false;
    bool devirtRequested = false;
    bool devirtStarted = false;
    unsigned cpusDevirtualized = 0;
    bool bitmapSaveInFlight = false;
    /** Saves requested while one was in flight: completed only once
     *  a fresh serialization of the newest state actually lands. */
    std::vector<std::function<void()>> pendingSaves_;
    /** Periodic deployment-phase bitmap-save timer (§3.3). */
    sim::EventId bitmapSaveTimer;
    /** Migration's dirty-tracking tap (see setGuestWriteHook). */
    std::function<void(sim::Lba, std::uint32_t)> guestWriteHook;

    std::uint64_t numFailovers = 0;
    std::uint64_t numFetchErrors = 0;

    obs::Track obsTrack_;

    std::function<void()> readyCb;
    std::function<void()> bareMetalCb;
    std::function<void(const aoe::DeployError &)> deployErrorCb;
};

} // namespace bmcast

#endif // BMCAST_VMM_HH
