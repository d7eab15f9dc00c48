/**
 * @file
 * The NVMe device mediator (paper §3.2 applied to a doorbell
 * controller). A thin interpretation front-end over
 * bmcast::MediationCore.
 *
 * Interpretation: SQ tail doorbell writes are decoded by reading the
 * guest's submission-queue entries from physical memory, exactly as
 * the controller does; completions are tracked by scanning the
 * guest's completion queue by phase tag. Nothing needs to be hidden
 * on the read path — NVMe completions live in memory, and the VMM's
 * own commands run on a dedicated queue pair (QP0) whose interrupt
 * vector stays masked — so this mediator intercepts only writes.
 *
 * Redirection withholds a doorbell at the first EMPTY-touching entry
 * (the submission queue is consumed in order, so later entries wait
 * with it); the dummy restart rewrites the withheld entry *in place* —
 * same CID, dummy LBA, mediator-owned PRP buffer — and rings the
 * doorbell past it, so the device posts the guest's CID and raises
 * the guest's interrupt after the mediator has already placed the
 * fetched data in the guest's buffer.
 */

#ifndef BMCAST_NVME_MEDIATOR_HH
#define BMCAST_NVME_MEDIATOR_HH

#include "bmcast/mediation_core.hh"
#include "hw/io_bus.hh"
#include "hw/mem_arena.hh"
#include "hw/nvme_regs.hh"

namespace bmcast {

/** The mediator. */
class NvmeMediator : public MediatorFrontEnd
{
  public:
    NvmeMediator(sim::EventQueue &eq, std::string name, hw::IoBus &bus,
                 hw::PhysMem &mem, hw::MemArena &vmmArena,
                 MediatorServices services);

    /** @name MediatorFrontEnd */
    /// @{
    void install() override;
    void uninstall() override;
    void powerOff() override;
    /// @}

    /** @name hw::IoInterceptor */
    /// @{
    bool interceptRead(sim::Addr addr, unsigned size,
                       std::uint64_t &value) override;
    bool interceptWrite(sim::Addr addr, std::uint64_t value,
                        unsigned size) override;
    /// @}

  private:
    /** @name ControllerPort */
    /// @{
    /** VMM commands run on their own queue pair, so they never
     *  contend with the guest: multiplexing needs no idle window. */
    bool guestBusy() const override { return false; }
    bool deviceBusy() override
    {
        scanGuestCq();
        return outstandingOnDevice != 0;
    }
    /** No list swap: the VMM owns queue pair 0 outright. */
    void takeDevice() override {}
    void restoreDevice() override {}
    void issueVmmCommand(bool isWrite, sim::Lba lba,
                         std::uint32_t count) override;
    bool vmmCommandDone() override;
    void releaseAfterVmmOp() override {}
    RestartMode issueDummyRestart(std::uint32_t key) override;
    bool restartDone() override
    {
        scanGuestCq();
        return outstandingOnDevice == 0;
    }
    void onRestartRetired(std::uint32_t key) override;
    void replayGuestWrite(sim::Addr addr,
                          std::uint64_t value) override;
    /// @}

    void onGuestDoorbell(std::uint32_t newTail);
    void scanSubmissions();
    void scanGuestCq();
    std::vector<hw::SgEntry> guestSg(std::uint32_t index) const;

    hw::IoBus &bus;
    hw::BusView vmmView;
    hw::PhysMem &mem;

    bool installed = false;

    /** Shadows of the guest's queue-pair-1 configuration (snooped
     *  from its register writes). */
    sim::Addr sq1Base = 0;
    sim::Addr cq1Base = 0;
    std::uint32_t q1Depth = 0;

    /** Guest's written SQ tail vs. what was forwarded to the device;
     *  a withheld entry holds procTail back. */
    std::uint32_t guestTail = 0;
    std::uint32_t procTail = 0;

    /** Commands forwarded to the device whose completion entries the
     *  mediator has not yet observed (its own CQ phase scan). */
    std::uint32_t outstandingOnDevice = 0;
    std::uint32_t medCqIdx = 0;
    std::uint8_t medCqPhase = 1;

    /** Mediator-owned queue pair 0 in VMM memory. */
    static constexpr std::uint32_t kVmmQueueDepth = 8;
    sim::Addr sq0 = 0;
    sim::Addr cq0 = 0;
    std::uint32_t sq0Tail = 0;
    std::uint32_t cq0Head = 0;
    std::uint8_t cq0Phase = 1;
    std::uint16_t vmmCid = 0;

    sim::Addr medBuffer = 0; //!< bounce buffer
    sim::Addr dummyBuffer = 0;
    static constexpr std::uint32_t kMedBufferSectors = 2048;
};

} // namespace bmcast

#endif // BMCAST_NVME_MEDIATOR_HH
