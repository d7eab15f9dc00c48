/**
 * @file
 * The IDE device mediator (paper §3.2, §4.3: 1,472 LOC in the
 * prototype). A thin interpretation front-end over
 * bmcast::MediationCore: it shadows the ATA task file and bus-master
 * DMA registers, decodes guest commands, and implements the
 * ControllerPort surface (nIEN gating, PRD programming, dummy-sector
 * restart) through which the core drives the channel.
 */

#ifndef BMCAST_IDE_MEDIATOR_HH
#define BMCAST_IDE_MEDIATOR_HH

#include "bmcast/mediation_core.hh"
#include "hw/ide_regs.hh"
#include "hw/io_bus.hh"
#include "hw/mem_arena.hh"

namespace bmcast {

/** The mediator. */
class IdeMediator : public MediatorFrontEnd
{
  public:
    IdeMediator(sim::EventQueue &eq, std::string name, hw::IoBus &bus,
                hw::PhysMem &mem, hw::MemArena &vmmArena,
                MediatorServices services);

    /** @name MediatorFrontEnd */
    /// @{
    void install() override;
    void uninstall() override;
    void powerOff() override;
    /// @}

    /** @name hw::IoInterceptor (guest accesses) */
    /// @{
    bool interceptRead(sim::Addr addr, unsigned size,
                       std::uint64_t &value) override;
    bool interceptWrite(sim::Addr addr, std::uint64_t value,
                        unsigned size) override;
    /// @}

  private:
    /** Shadow of the guest-visible task file (I/O interpretation). */
    struct Shadow
    {
        std::uint8_t sectorCount[2] = {0, 0};
        std::uint8_t lbaLow[2] = {0, 0};
        std::uint8_t lbaMid[2] = {0, 0};
        std::uint8_t lbaHigh[2] = {0, 0};
        std::uint8_t device = 0;
        std::uint8_t devCtrl = 0; //!< guest's nIEN intent
        std::uint8_t bmCommand = 0;
        std::uint32_t bmPrdt = 0;
    };

    /** @name ControllerPort */
    /// @{
    bool guestBusy() const override { return guestCmdActive; }
    bool deviceBusy() override { return false; }
    void takeDevice() override {}
    void restoreDevice() override {}
    void issueVmmCommand(bool isWrite, sim::Lba lba,
                         std::uint32_t count) override;
    bool vmmCommandDone() override;
    void releaseAfterVmmOp() override {}
    RestartMode issueDummyRestart(std::uint32_t key) override;
    bool restartDone() override { return true; }
    void onRestartRetired(std::uint32_t key) override { (void)key; }
    void replayGuestWrite(sim::Addr addr,
                          std::uint64_t value) override;
    /// @}

    sim::Lba shadowLba(bool ext) const;
    std::uint32_t shadowCount(bool ext) const;
    /** @return true if the command write should reach the device. */
    bool onGuestCommand(std::uint8_t cmd);
    void programTaskFile(sim::Lba lba, std::uint32_t count,
                         std::uint8_t cmd, sim::Addr prd,
                         std::uint8_t bmDir);
    std::vector<hw::SgEntry> parseGuestPrdt(std::uint32_t addr) const;

    hw::IoBus &bus;
    hw::BusView vmmView;
    hw::PhysMem &mem;

    Shadow sh;
    bool installed = false;
    bool guestCmdActive = false;

    /** VMM bounce buffer + PRD + dummy buffer (in reserved memory). */
    sim::Addr vmmPrd = 0;
    sim::Addr vmmBuffer = 0;
    sim::Addr dummyPrd = 0;
    sim::Addr dummyBuffer = 0;
    static constexpr std::uint32_t kVmmBufferSectors = 2048;
};

} // namespace bmcast

#endif // BMCAST_IDE_MEDIATOR_HH
