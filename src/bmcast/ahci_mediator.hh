/**
 * @file
 * The AHCI device mediator (paper §3.2, §4.3: 2,285 LOC in the
 * prototype — the larger of the two because AHCI has 32 command
 * slots and in-memory command lists). A thin interpretation
 * front-end over bmcast::MediationCore.
 *
 * Interpretation: PxCI writes are decoded by reading the guest's
 * command list/tables from physical memory, exactly as the HBA does;
 * a guest-visible PxCI is synthesized from device state, withheld
 * slots and queued writes.
 *
 * Redirection and multiplexing live in the core; this front-end
 * implements the ControllerPort surface: PxCLB swapping, slot
 * programming from the mediator's own command list, the dummy
 * restart issued *on the same slot number* so the device clears the
 * right CI bit, and PxIE gating for multiplexed VMM commands.
 */

#ifndef BMCAST_AHCI_MEDIATOR_HH
#define BMCAST_AHCI_MEDIATOR_HH

#include "bmcast/mediation_core.hh"
#include "hw/ahci_regs.hh"
#include "hw/io_bus.hh"
#include "hw/mem_arena.hh"

namespace bmcast {

/** The mediator. */
class AhciMediator : public MediatorFrontEnd
{
  public:
    AhciMediator(sim::EventQueue &eq, std::string name, hw::IoBus &bus,
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
    bool guestBusy() const override
    {
        return guestIssued != 0 ||
               const_cast<AhciMediator *>(this)->deviceCi() != 0;
    }
    bool deviceBusy() override { return deviceCi() != 0; }
    void takeDevice() override;
    void restoreDevice() override;
    void issueVmmCommand(bool isWrite, sim::Lba lba,
                         std::uint32_t count) override;
    bool vmmCommandDone() override;
    void releaseAfterVmmOp() override;
    RestartMode issueDummyRestart(std::uint32_t key) override;
    bool restartDone() override { return deviceCi() == 0; }
    void onRestartRetired(std::uint32_t key) override
    {
        redirectBits &= ~(1u << key);
    }
    void replayGuestWrite(sim::Addr addr,
                          std::uint64_t value) override;
    /// @}

    void onGuestCiWrite(std::uint32_t bits);
    std::uint32_t deviceCi();
    std::vector<hw::SgEntry> parseGuestSg(unsigned slot) const;
    void decodeGuestSlot(unsigned slot, bool &isWrite, sim::Lba &lba,
                         std::uint32_t &count) const;
    void programCfis(sim::Addr table, bool isWrite, sim::Lba lba,
                     std::uint32_t count);
    std::uint32_t guestVisibleCi();

    hw::IoBus &bus;
    hw::BusView vmmView;
    hw::PhysMem &mem;

    bool installed = false;

    /** Shadows (I/O interpretation). */
    std::uint32_t shClb = 0;
    std::uint32_t shIe = 0;
    /** Slots the guest believes outstanding but whose completion it
     *  has not yet observed via a PxCI read. */
    std::uint32_t guestIssued = 0;
    /** Slots withheld for redirection (guest sees them busy). */
    std::uint32_t redirectBits = 0;
    unsigned restartSlot = 0;

    /** Mediator-owned structures in VMM memory. */
    sim::Addr medCmdList = 0;
    sim::Addr medTable = 0;      //!< command table for VMM ops
    sim::Addr medDummyTable = 0; //!< command table for dummy restarts
    sim::Addr medBuffer = 0;     //!< bounce buffer
    sim::Addr dummyBuffer = 0;
    static constexpr std::uint32_t kMedBufferSectors = 2048;
};

} // namespace bmcast

#endif // BMCAST_AHCI_MEDIATOR_HH
