/**
 * @file
 * Device mediation (paper §3.2): polling-based device-interface-level
 * I/O mediation, and the controller-agnostic engine behind it.
 *
 * A mediator owns three tasks:
 *  - I/O interpretation: watch the guest's register traffic and
 *    reconstruct command/status/data context;
 *  - I/O redirection (copy-on-read): withhold guest reads that touch
 *    EMPTY blocks, fetch the data from the storage server, place it
 *    in the guest's DMA buffers, and let the *device* generate the
 *    completion interrupt by re-issuing the command as a one-sector
 *    dummy read that hits the on-disk cache;
 *  - I/O multiplexing (background copy): when the device is idle,
 *    inject VMM-issued commands, emulating an idle status register to
 *    the guest, queueing guest requests issued meanwhile, suppressing
 *    the device interrupt (nIEN / PxIE) and detecting completion by
 *    polling from the preemption-timer loop.
 *
 * Mediators never virtualize interrupt controllers and never expose
 * virtual devices: the guest always sees the physical controller's
 * architected interface, which is what makes de-virtualization a
 * plain removal of the intercepts.
 *
 * Everything a mediator does that is *not* register parsing lives in
 * MediationCore, once: the redirect state machine (partial-fill /
 * mixed segments, virtual DMA into the guest's scatter list, dummy-
 * sector restart sequencing), the VMM-command multiplexer (one-deep
 * pending queue, completion polling, bounce-buffer token plumbing),
 * the guest-register-write queue and its replay, reserved-region-to-
 * dummy conversion, quiescence tracking and `MediatorStats`. The VMM
 * and the background copy drive the core directly.
 *
 * A MediatorFrontEnd (IDE, AHCI, NVMe, ...) is the controller-
 * specific rest: it decodes the controller's architected interface
 * into `onGuestRead`/`onGuestWrite`/`queueGuestWrite` calls, implements
 * the small `ControllerPort` surface through which the core drives
 * the hardware, and installs and removes its bus intercepts.
 */

#ifndef BMCAST_MEDIATION_CORE_HH
#define BMCAST_MEDIATION_CORE_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bmcast/block_bitmap.hh"
#include "hw/dma.hh"
#include "hw/io_bus.hh"
#include "hw/phys_mem.hh"
#include "obs/obs.hh"
#include "simcore/interval_set.hh"
#include "simcore/sim_object.hh"
#include "simcore/types.hh"

namespace obs {
class Registry;
} // namespace obs

namespace bmcast {

/** Services the VMM provides to its mediators. */
struct MediatorServices
{
    /** Copy-on-read fetch: tokens for [lba, lba+count) from the
     *  storage server via the extended AoE protocol. */
    std::function<void(
        sim::Lba, std::uint32_t,
        std::function<void(const std::vector<std::uint64_t> &)>)>
        fetchRemote;

    /** Hand fetched data to the background writer for a lazy local
     *  write ("the VMM also writes the data to the local disk for
     *  future use", §3.1). */
    std::function<void(sim::Lba, std::uint32_t,
                       const std::vector<std::uint64_t> &)>
        stashFetched;

    /** Guest I/O notification feeding the moderation rate meter. */
    std::function<void()> onGuestIo;

    /** Guest-write range notification (issue time).  The store tier
     *  uses it to stop offering chunks the tenant has dirtied. */
    std::function<void(sim::Lba, std::uint32_t)> onGuestWriteRange;

    /** The consistency bitmap (§3.3). */
    BlockBitmap *bitmap = nullptr;

    /** Reserved on-disk region [base, end): bitmap home + dummy
     *  sector; guest access is converted to dummy reads (§3.3). */
    sim::Lba reservedBase = 0;
    sim::Lba reservedEnd = 0;
    /** The dummy sector used for interrupt generation (§3.2). */
    sim::Lba dummyLba = 0;
};

/** Mediator statistics (reported by benches/tests). */
struct MediatorStats
{
    std::uint64_t passthroughReads = 0;
    std::uint64_t passthroughWrites = 0;
    std::uint64_t redirectedReads = 0;
    /** Sectors fetched from the server by redirection. */
    std::uint64_t redirectedSectors = 0;
    /** Redirections that also required local reads (partial fill). */
    std::uint64_t mixedRedirects = 0;
    std::uint64_t vmmOps = 0;
    /** Guest register writes queued during VMM ops. */
    std::uint64_t queuedGuestWrites = 0;
    /** Guest accesses to the reserved region converted to dummies. */
    std::uint64_t reservedConversions = 0;
    /** Dummy-sector restarts issued (one per redirected command). */
    std::uint64_t dummyRestarts = 0;
};

/** Publish a MediatorStats snapshot into @p reg under "mediator.*"
 *  metrics labelled @p label (usually the controller kind). */
void publishMediatorStats(obs::Registry &reg,
                          const std::string &label,
                          const MediatorStats &s);

/** How a dummy restart completes (see ControllerPort). */
enum class RestartMode
{
    /** The restart owns no further mediator state: the device raises
     *  the guest's interrupt and the guest's own acknowledgement is
     *  the only remaining bookkeeping (IDE). */
    FireAndForget,
    /** The core must poll ControllerPort::restartDone() and retire
     *  the redirect when it reports completion (AHCI, NVMe). */
    Polled,
};

/**
 * The hardware-facing surface of a mediation front-end. All methods
 * are called synchronously from MediationCore; implementations talk
 * to the controller through the VMM's (non-exiting) bus view.
 */
class ControllerPort
{
  public:
    virtual ~ControllerPort() = default;

    /** True while the guest has a command outstanding or an
     *  unacknowledged completion (interpretation state). */
    virtual bool guestBusy() const = 0;

    /** True while guest commands occupy the device, i.e. the core
     *  must drain before taking it for a redirect. */
    virtual bool deviceBusy() = 0;

    /** Swap mediator-owned command structures into the device
     *  (e.g. AHCI PxCLB); may be a no-op. */
    virtual void takeDevice() = 0;

    /** Hand the device back to the guest after the last queued
     *  redirect retires; may be a no-op. */
    virtual void restoreDevice() = 0;

    /** Program and start a VMM command against the core's bounce
     *  buffer, suppressing its completion interrupt (§3.2). */
    virtual void issueVmmCommand(bool isWrite, sim::Lba lba,
                                 std::uint32_t count) = 0;

    /** Poll the in-flight VMM command. Returning true means the
     *  command completed AND the port has cleared its completion
     *  status and restored the guest's interrupt-enable intent. */
    virtual bool vmmCommandDone() = 0;

    /** Release device structures after a non-internal VMM op (e.g.
     *  AHCI restores the guest's PxCLB); may be a no-op. */
    virtual void releaseAfterVmmOp() = 0;

    /** Restart the withheld guest command @p key as a one-sector
     *  dummy read so the device raises the completion interrupt
     *  (§3.2 step 4). */
    virtual RestartMode issueDummyRestart(std::uint32_t key) = 0;

    /** Poll a RestartMode::Polled dummy restart for completion. */
    virtual bool restartDone() = 0;

    /** The dummy restart for @p key retired (clear per-key
     *  interpretation state, e.g. AHCI redirect CI bits). */
    virtual void onRestartRetired(std::uint32_t key) = 0;

    /** Replay one queued guest register write through the front-end's
     *  own intercept path (so a queued command can itself start a new
     *  redirection), falling through to the device otherwise. */
    virtual void replayGuestWrite(sim::Addr addr,
                                  std::uint64_t value) = 0;
};

/** The shared engine. */
class MediationCore
{
  public:
    enum class State
    {
        Passthrough, //!< forwarding (guest command may be in flight)
        Draining,    //!< waiting for guest commands to leave the device
        Redirecting, //!< serving a withheld guest read
        Restarting,  //!< dummy command completing a redirect (polled)
        VmmActive,   //!< a multiplexed VMM command owns the device
    };

    /** Produces the guest's scatter list for a withheld read; only
     *  invoked if the command is actually withheld. */
    using SgProvider = std::function<std::vector<hw::SgEntry>()>;

    MediationCore(std::string name, hw::PhysMem &mem,
                  ControllerPort &port, MediatorServices services,
                  sim::Addr bounceBuffer,
                  std::uint32_t bounceSectors);

    /** @name Interpretation entry points (front-end → core) */
    /// @{

    /**
     * The guest issued a read of [lba, lba+count). Applies the
     * reserved-region and consistency-bitmap policy.
     * @retval true  forward the command to the device.
     * @retval false withheld; a redirect was queued — the front-end
     *               calls beginRedirects() once its batch is decoded.
     */
    bool onGuestRead(std::uint32_t key, sim::Lba lba,
                     std::uint32_t count, const SgProvider &sg);

    /** The guest issued a write. @retval false dropped (reserved
     *  region): a dummy-restart redirect was queued instead. */
    bool onGuestWrite(std::uint32_t key, sim::Lba lba,
                      std::uint32_t count);

    /** Queue a guest register write for replay after the current
     *  redirect/VMM op releases the device (§3.2 multiplexing). */
    void queueGuestWrite(sim::Addr addr, std::uint64_t value);

    /** Start serving queued redirects (drains the device first if
     *  the port reports it busy). No-op when none are queued. */
    void beginRedirects();

    /** Inject a deferred VMM command / fire the quiescence callback
     *  if the device just became available (call when interpretation
     *  observes the guest acknowledging its last completion). */
    void maybeStartPending();
    /// @}

    /** @name VMM entry points (preemption-timer loop, background
     *  copy, bitmap persistence, de-virtualization) */
    /// @{

    /** Service routine, called from the VMM's preemption-timer poll
     *  loop: detect VMM-op completions, advance redirections. */
    void poll();

    /**
     * Multiplex a VMM write of @p count sectors of content
     * @p contentBase at @p lba.
     * @retval false the device is not available now; retry later.
     */
    bool vmmWrite(sim::Lba lba, std::uint32_t count,
                  std::uint64_t contentBase,
                  std::function<void()> done);

    /** Multiplex a VMM read (bitmap reload, verification). */
    bool vmmRead(sim::Lba lba, std::uint32_t count,
                 std::function<void(const std::vector<std::uint64_t> &)>
                     done);

    /** True while a VMM-injected command is pending or in flight. */
    bool vmmOpActive() const;

    /** True when no guest command, redirection, VMM op or queued
     *  register write is outstanding — the "consistent hardware
     *  state" de-virtualization waits for (§3.1). */
    bool quiescent() const;

    /**
     * One-shot callback fired at the next instant the core is fully
     * quiescent. A guest that is never idle between polls still
     * quiesces for a moment inside each interrupt acknowledgement;
     * this hook is how de-virtualization catches that moment (§3.1).
     */
    void setQuiesceCallback(std::function<void()> cb)
    {
        quiesceCb = std::move(cb);
    }

    /** Drop all in-flight mediation state (power-off model). */
    void reset();
    /// @}

    /** Pull the dummy sector into the drive cache with an initial
     *  VMM read so restarts are cheap from the first use. */
    void warmDummy();

    State state() const { return state_; }
    bool hasPendingRedirects() const { return !redirects.empty(); }
    const std::deque<std::pair<sim::Addr, std::uint64_t>> &
    queuedGuestWrites() const
    {
        return queuedWrites;
    }

    const MediatorStats &stats() const { return stats_; }
    const MediatorServices &services() const { return svc; }

  private:
    /** A withheld guest command awaiting redirection. */
    struct Redirect
    {
        std::uint32_t key = 0; //!< front-end cookie (slot, SQ index)
        sim::Lba lba = 0;
        std::uint32_t count = 0;
        std::vector<hw::SgEntry> guestSg;
        std::vector<std::uint64_t> tokens;
        std::size_t fetchesPending = 0;
        std::vector<sim::IntervalSet::Range> localRanges;
        std::size_t nextLocal = 0;
        bool localInFlight = false;
        bool zeroFill = false;     //!< reserved region: data is zeros
        bool droppedWrite = false; //!< no data phase at all
        bool dataPhaseStarted = false;
        std::uint64_t obsId = 0; //!< async-span correlation id
    };

    /** A multiplexed VMM command. */
    struct VmmOp
    {
        bool isWrite = false;
        sim::Lba lba = 0;
        std::uint32_t count = 0;
        std::uint64_t contentBase = 0;
        bool internal = false; //!< redirection local-segment read
        std::function<void()> writeDone;
        std::function<void(const std::vector<std::uint64_t> &)>
            readDone;
        std::uint64_t obsId = 0; //!< async-span correlation id
    };

    void queueRedirect(std::uint32_t key, sim::Lba lba,
                       std::uint32_t count, bool zeroFill,
                       bool droppedWrite, const SgProvider &sg);
    void advanceRedirect();
    void finishRedirectDataPhase();
    void issueDummyRestart();
    void onRestartComplete();
    /** Start @p op now, or park it as the one pending op.
     *  @retval false a pending op is already parked. */
    bool submit(VmmOp op);
    void startVmmOp(VmmOp op);
    bool canStartVmmOp() const;
    void checkVmmOpCompletion();
    void replayQueuedWrites();

    std::string name;
    hw::PhysMem &mem;
    ControllerPort &port;
    MediatorServices svc;

    State state_ = State::Passthrough;

    std::deque<Redirect> redirects;
    std::unique_ptr<VmmOp> vmmOp;
    bool vmmOpOnDevice = false;
    /** Accepted but deferred VMM command: injected at the first
     *  moment the guest quiesces ("find proper timing", §3.2). */
    std::unique_ptr<VmmOp> pendingOp;

    std::deque<std::pair<sim::Addr, std::uint64_t>> queuedWrites;

    /** Core-managed bounce buffer in VMM memory (front-end owns the
     *  allocation; the port programs the device with it). */
    sim::Addr bounceBuffer = 0;
    std::uint32_t bounceSectors = 0;

    std::function<void()> quiesceCb;
    MediatorStats stats_;

    obs::Track obsTrack_;
    std::uint64_t obsSeq_ = 0;     //!< async-id source (redirect/op)
    bool firstFetchNoted_ = false; //!< cor.first_fetch milestone sent
};

/**
 * A controller-specific mediation front-end: its hw::IoInterceptor
 * side decodes the guest's register traffic into core calls, its
 * ControllerPort side drives the device for the core. It owns the
 * core, which the VMM drives directly; the VMM needs the front-end
 * itself only to install and remove the bus intercepts.
 */
class MediatorFrontEnd : public sim::SimObject,
                         public hw::IoInterceptor,
                         protected ControllerPort
{
  public:
    using sim::SimObject::SimObject;

    /** Install bus intercepts (entering the deployment phase). */
    virtual void install() = 0;

    /** Remove all intercepts (de-virtualization). Must only be
     *  called when the core is quiescent(). */
    virtual void uninstall() = 0;

    /** Abrupt teardown (power failure model): drop all state and
     *  remove intercepts without the quiescence requirement. */
    virtual void powerOff() = 0;

    MediationCore &core() { return *core_; }

  protected:
    /** Build the core once the front-end has carved its structures
     *  (bounce buffer included) out of the VMM arena, so the arena
     *  allocation order is the front-end's own. */
    void
    buildCore(hw::PhysMem &mem, MediatorServices services,
              sim::Addr bounceBuffer, std::uint32_t bounceSectors)
    {
        ControllerPort &port = *this;
        core_.emplace(name(), mem, port, std::move(services),
                      bounceBuffer, bounceSectors);
    }

  private:
    std::optional<MediationCore> core_;
};

} // namespace bmcast

#endif // BMCAST_MEDIATION_CORE_HH
