/**
 * @file
 * AHCI host bus adapter model (one port, 32 command slots).
 *
 * The controller fetches command headers, tables (CFIS + PRDT) from
 * physical memory exactly as real hardware does, which is what allows
 * the BMcast AHCI mediator to interpret, withhold, substitute and
 * inject commands purely through the architected interface: swap
 * PxCLB, issue PxCI bits, poll PxCI/PxTFD, gate PxIE.
 */

#ifndef HW_AHCI_CONTROLLER_HH
#define HW_AHCI_CONTROLLER_HH

#include <cstdint>

#include "hw/ahci_regs.hh"
#include "hw/disk.hh"
#include "hw/dma.hh"
#include "hw/interrupts.hh"
#include "hw/io_bus.hh"
#include "hw/phys_mem.hh"
#include "simcore/sim_object.hh"

namespace hw {

/** Decoded view of one issued AHCI command (exposed for tests). */
struct AhciCommand
{
    unsigned slot = 0;
    bool isWrite = false;
    sim::Lba lba = 0;
    std::uint32_t sectors = 0;
};

/** The HBA with one attached SATA drive. */
class AhciController : public sim::SimObject
{
  public:
    AhciController(sim::EventQueue &eq, std::string name, IoBus &bus,
                   PhysMem &mem, Disk &disk, IrqLine irq);

    /** @name Register interface (invoked via the IoBus). */
    /// @{
    std::uint64_t mmioRead(sim::Addr offset, unsigned size);
    void mmioWrite(sim::Addr offset, std::uint64_t value, unsigned size);
    /// @}

    /** True while a slot is being executed on the media. */
    bool commandActive() const { return active; }

    std::uint64_t commandsCompleted() const { return numCompleted; }

    Disk &disk() { return disk_; }

    /**
     * Decode the command currently programmed in @p slot of the
     * in-effect command list (reads guest memory like the hardware
     * would). Used by tests and by the mediator implementation.
     */
    AhciCommand decodeSlot(unsigned slot) const;

  private:
    void processNext();
    void finishSlot(unsigned slot, const AhciCommand &cmd);
    std::vector<SgEntry> parsePrdt(sim::Addr table,
                                   unsigned prdtl) const;

    IoBus &bus;
    PhysMem &mem;
    Disk &disk_;
    IrqLine irq;

    std::uint32_t ghc = ahci::kGhcAe;
    std::uint32_t is = 0;
    std::uint32_t pxClb = 0;
    std::uint32_t pxFb = 0;
    std::uint32_t pxIs = 0;
    std::uint32_t pxIe = 0;
    std::uint32_t pxCmd = 0;
    std::uint32_t pxTfd = 0x50; //!< DRDY | seek-complete
    std::uint32_t pxSctl = 0;
    std::uint32_t pxSerr = 0;
    std::uint32_t ci_ = 0;

    bool active = false;
    unsigned lastSlot = ahci::kNumSlots - 1;
    std::uint64_t numCompleted = 0;
};

} // namespace hw

#endif // HW_AHCI_CONTROLLER_HH
