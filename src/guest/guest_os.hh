/**
 * @file
 * The synthetic guest OS.
 *
 * Not an operating system — a workload-faithful model of one: it
 * boots by replaying a parameterized boot I/O trace (sequential
 * loader/kernel reads followed by thousands of small scattered file
 * reads interleaved with CPU work) through a *real register-level
 * block driver*, so the whole boot is visible to, and served by,
 * whatever sits under the driver: the raw controller (bare metal) or
 * the BMcast mediators (copy-on-read from the network during
 * streaming deployment).
 *
 * OS transparency is structural here: GuestOs never references the
 * VMM; it only programs device registers.
 */

#ifndef GUEST_GUEST_OS_HH
#define GUEST_GUEST_OS_HH

#include <functional>
#include <memory>

#include "guest/ahci_driver.hh"
#include "guest/block_driver.hh"
#include "guest/ide_driver.hh"
#include "guest/nvme_driver.hh"
#include "hw/machine.hh"
#include "obs/obs.hh"
#include "simcore/random.hh"
#include "simcore/sim_object.hh"

namespace guest {

/** Parameters of the boot I/O trace (calibrated in EXPERIMENTS.md). */
struct BootTrace
{
    /** Bootloader + initrd, sequential from LBA 0. */
    sim::Bytes loaderBytes = 2 * sim::kMiB;
    /** Kernel + early userspace, sequential. */
    sim::Bytes kernelBytes = 26 * sim::kMiB;
    /** Scattered reads during service startup. */
    unsigned numReads = 2200;
    sim::Bytes avgReadBytes = 20 * sim::kKiB;
    /** Fraction of scattered reads that continue the previous one. */
    double seqFraction = 0.55;
    /** Total CPU work interleaved with boot I/O. */
    sim::Tick cpuTotal = 14 * sim::kSec;
    /** Image area the scattered reads fall in. */
    sim::Bytes regionBytes = 8 * sim::kGiB;
};

/** Guest configuration. */
struct GuestOsParams
{
    BootTrace boot;
    /** Guest-RAM arena for driver rings/buffers. */
    sim::Addr arenaBase = 16 * sim::kMiB;
    sim::Bytes arenaSize = 512 * sim::kMiB;
    std::uint64_t seed = 7;
    /**
     * When set, the guest uses this driver instead of building a
     * register-level one — how a para-virtualized (virtio) guest on
     * the KVM baseline is modelled. Not owned.
     */
    BlockDriver *externalDriver = nullptr;
};

/** The guest. */
class GuestOs : public sim::SimObject
{
  public:
    GuestOs(sim::EventQueue &eq, std::string name, hw::Machine &m,
            GuestOsParams params = GuestOsParams{});

    /**
     * Begin the OS boot (the firmware or deployment system calls
     * this once the platform is ready). @p onReady fires when boot
     * completes.
     */
    void start(std::function<void()> onReady);

    /**
     * Stop the guest: cease all boot/workload activity and tear down
     * the register-level driver (unhooking its interrupt handlers).
     * The object must outlive any in-flight events, which retire
     * harmlessly; no I/O may be issued after halt.
     */
    void halt();

    /**
     * Bring up a guest whose state arrived by live migration: the
     * driver programs the (destination) controller, and the OS is
     * immediately ready — no boot trace replays, because the OS is
     * already running. The workload keeps issuing I/O through blk().
     */
    void resume();

    /** The block driver (workloads issue I/O through it). */
    BlockDriver &blk() { return external ? *external : *driver; }

    /** Total bytes the boot trace reads. */
    sim::Bytes bootReadBytes() const;

    hw::Machine &machine() { return machine_; }
    bool isReady() const { return ready; }
    sim::Tick bootDuration() const { return bootEnd - bootStart; }
    const GuestOsParams &params() const { return params_; }

  private:
    void bootSequentialPhase();
    void bootSeqStep(std::uint32_t done, std::uint32_t total);
    void bootScatterPhase(unsigned remaining);
    void finishBoot();

    hw::Machine &machine_;
    GuestOsParams params_;
    sim::Rng rng;
    hw::MemArena arena;
    std::unique_ptr<BlockDriver> driver;
    BlockDriver *external = nullptr;

    std::function<void()> readyCb;
    bool ready = false;
    bool halted = false;
    sim::Tick bootStart = 0;
    sim::Tick bootEnd = 0;
    sim::Lba lastLba = 0;
    std::uint32_t lastCount = 0;

    obs::Track obsTrack_;
};

} // namespace guest

#endif // GUEST_GUEST_OS_HH
