/**
 * @file
 * Guest NVMe driver: builds submission-queue entries in guest memory,
 * rings the SQ tail doorbell, and completes commands from the
 * interrupt handler by consuming completion-queue entries by phase
 * tag — the standard protocol an OS NVMe driver follows, and the
 * surface the BMcast NVMe mediator interprets.
 *
 * Uses queue pair 1; queue pair 0 belongs to the VMM's mediator (see
 * hw/nvme_regs.hh).
 */

#ifndef GUEST_NVME_DRIVER_HH
#define GUEST_NVME_DRIVER_HH

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
class NvmeDriver : public sim::SimObject, public BlockDriver
{
  public:
    /** Largest single command (1 MiB); larger requests split. */
    static constexpr std::uint32_t kMaxSectors = 2048;
    /** Concurrent commands (CIDs 0..kSlots-1), each with its own
     *  contiguous PRP1 buffer. */
    static constexpr unsigned kSlots = 16;
    /** SQ/CQ depth. */
    static constexpr std::uint32_t kQueueDepth = 64;

    NvmeDriver(sim::EventQueue &eq, std::string name, hw::BusView view,
               hw::PhysMem &mem, hw::InterruptController &intc,
               hw::MemArena &arena);
    ~NvmeDriver() override;

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
        std::uint32_t sectors = 0;
        std::uint32_t opOffset = 0;
    };

    void pump();
    bool issueChunk(const std::shared_ptr<Op> &op);
    void onIrq();
    void completeSlot(unsigned cid);

    hw::BusView view;
    hw::PhysMem &mem;
    hw::InterruptController &intc;
    hw::InterruptController::HandlerId irqHandler = 0;

    sim::Addr sq = 0; //!< submission queue ring
    sim::Addr cq = 0; //!< completion queue ring
    std::array<sim::Addr, kSlots> slotBuf{}; //!< per-CID buffers

    std::uint32_t sqTail = 0;
    std::uint32_t cqHead = 0;
    std::uint8_t cqPhase = 1; //!< phase tag expected next

    std::array<SlotState, kSlots> slots{};
    //! Completion callbacks may destroy the driver; onIrq checks
    //! this sentinel after each one before touching members again.
    std::shared_ptr<bool> alive = std::make_shared<bool>(true);
    unsigned busyCount = 0;
    std::deque<std::shared_ptr<Op>> queue;
    IrqWatchdog wdog;

    std::uint64_t numOps = 0;
    sim::Tick latencySum = 0;
};

} // namespace guest

#endif // GUEST_NVME_DRIVER_HH
