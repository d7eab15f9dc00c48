/**
 * @file
 * Guest AHCI driver: builds command lists/tables in guest memory,
 * issues up to 32 concurrent slots via PxCI, completes them from the
 * interrupt handler by observing cleared CI bits — the standard
 * protocol an OS AHCI driver follows, and the surface the BMcast
 * AHCI mediator interprets.
 */

#ifndef GUEST_AHCI_DRIVER_HH
#define GUEST_AHCI_DRIVER_HH

#include <array>
#include <deque>
#include <memory>

#include "guest/block_driver.hh"
#include "guest/irq_watchdog.hh"
#include "hw/interrupts.hh"
#include "hw/io_bus.hh"
#include "hw/mem_arena.hh"
#include "hw/phys_mem.hh"
#include "simcore/sim_object.hh"

namespace guest {

/** The driver. */
class AhciDriver : public sim::SimObject, public BlockDriver
{
  public:
    /** Largest single command (1 MiB); larger requests split. */
    static constexpr std::uint32_t kMaxSectors = 2048;
    /** Command slots actually used (hardware offers 32). */
    static constexpr unsigned kSlots = 32;

    AhciDriver(sim::EventQueue &eq, std::string name, hw::BusView view,
               hw::PhysMem &mem, hw::InterruptController &intc,
               hw::MemArena &arena);
    ~AhciDriver() override;

    void initialize() override;
    void read(sim::Lba lba, std::uint32_t count, ReadDone done) override;
    void write(sim::Lba lba, std::uint32_t count,
               std::uint64_t contentBase, WriteDone done) override;

    std::uint64_t opsCompleted() const override { return numOps; }
    sim::Tick totalLatency() const override { return latencySum; }
    bool
    idle() const override
    {
        return queue.empty() && busyCount == 0;
    }

    /** Lost-IRQ recovery watchdog (see guest/irq_watchdog.hh). */
    IrqWatchdog &watchdog() { return wdog; }

  private:
    struct Op
    {
        bool isWrite = false;
        sim::Lba lba = 0;
        std::uint32_t count = 0;
        std::uint64_t contentBase = 0;
        ReadDone readDone;
        WriteDone writeDone;
        sim::Tick submitted = 0;
        std::uint32_t issuedSectors = 0;
        std::uint32_t doneSectors = 0;
        std::vector<std::uint64_t> tokens;
        bool finished = false;
    };

    struct SlotState
    {
        bool busy = false;
        std::shared_ptr<Op> op;
        sim::Lba lba = 0;
        std::uint32_t sectors = 0;
        std::uint32_t opOffset = 0;
    };

    void pump();
    bool issueChunk(const std::shared_ptr<Op> &op);
    void onIrq();
    void completeSlot(unsigned slot);

    hw::BusView view;
    hw::PhysMem &mem;
    hw::InterruptController &intc;
    hw::InterruptController::HandlerId irqHandler = 0;

    sim::Addr cmdList = 0;                     //!< 32 headers
    sim::Addr fisBase = 0;                     //!< received-FIS area
    std::array<sim::Addr, kSlots> cmdTable{};  //!< per-slot tables
    std::array<sim::Addr, kSlots> slotBuf{};   //!< per-slot buffers

    std::array<SlotState, kSlots> slots{};
    //! Completion callbacks may destroy the driver (e.g. a deployer
    //! tearing down the installer OS); onIrq checks this sentinel
    //! after each one before touching members again.
    std::shared_ptr<bool> alive = std::make_shared<bool>(true);
    unsigned busyCount = 0;
    std::deque<std::shared_ptr<Op>> queue;
    IrqWatchdog wdog;

    std::uint64_t numOps = 0;
    sim::Tick latencySum = 0;
};

} // namespace guest

#endif // GUEST_AHCI_DRIVER_HH
