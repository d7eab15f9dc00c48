/**
 * @file
 * A minimal e1000-class NIC driver, usable in two modes:
 *
 *  - Interrupt mode: the guest OS's ordinary network driver.
 *  - Polling mode: the BMcast VMM's dedicated-NIC driver (paper
 *    §4.3: "minimal functions to send and receive packets with
 *    polling", 600-760 LOC per adapter family).
 *
 * The driver programs real descriptor rings in simulated physical
 * memory through a BusView, so the identical code runs in guest
 * context (interceptable) and VMM context (direct).
 */

#ifndef HW_E1000_DRIVER_HH
#define HW_E1000_DRIVER_HH

#include <deque>

#include "net/l2.hh"
#include "hw/interrupts.hh"
#include "hw/io_bus.hh"
#include "hw/mem_arena.hh"
#include "hw/nic.hh"
#include "hw/phys_mem.hh"
#include "simcore/sim_object.hh"

namespace hw {

/** The driver. */
class E1000Driver : public sim::SimObject, public net::L2Endpoint
{
  public:
    enum class Mode { Interrupt, Polling };

    /**
     * @param intc required in Interrupt mode (to hook the vector);
     *             ignored in Polling mode.
     */
    E1000Driver(sim::EventQueue &eq, std::string name, BusView view,
                E1000Nic &nic, PhysMem &mem, MemArena &arena,
                Mode mode, InterruptController *intc = nullptr,
                unsigned irqVector = 0);

    /**
     * Virtual-window variant (netmed multi-guest): the driver runs
     * against a register window with no physical device behind it —
     * the mediation tier virtualizes every register and owns the
     * identity (@p mac / @p mtu). Interrupt mode hooks @p irqVector,
     * which the mediation tier raises.
     */
    E1000Driver(sim::EventQueue &eq, std::string name, BusView view,
                sim::Addr mmioBase, net::MacAddr mac, sim::Bytes mtu,
                PhysMem &mem, MemArena &arena, Mode mode,
                InterruptController *intc = nullptr,
                unsigned irqVector = 0);
    ~E1000Driver() override;

    /**
     * Switch the steady-state doorbells (TDT/RDT writes, ICR reads)
     * to a shared-memory page (see hw/nic_doorbell.hh): the exitless
     * fast path. Ring setup has already gone through (trapped) MMIO;
     * from here on the driver touches the window only if the page is
     * detached again. The page must be the one the mediation tier
     * polls for this guest.
     */
    void attachDoorbell(sim::Addr page);
    void detachDoorbell() { dbPage = 0; }

    /** @name net::L2Endpoint */
    /// @{
    void sendFrame(net::Frame frame) override;
    net::MacAddr localMac() const override;
    sim::Bytes mtu() const override;
    void setRxHandler(RxHandler handler) override { rx = std::move(handler); }
    /// @}

    /**
     * Polling-mode service routine: reap TX completions and deliver
     * received frames. The VMM calls this from its preemption-timer
     * poll loop. Harmless in interrupt mode.
     * @return number of frames delivered.
     */
    unsigned poll();

    std::uint64_t framesSent() const { return numTx; }

  private:
    static constexpr unsigned kRingSize = 64;
    static constexpr sim::Bytes kBufSize = 2048;

    void initRings();
    void pumpTx();
    void serviceIrq();

    BusView view;
    PhysMem &mem;
    Mode mode;
    sim::Addr base = 0;      //!< register window this driver programs
    net::MacAddr mac_ = 0;
    sim::Bytes mtu_ = 1500;
    sim::Addr dbPage = 0;    //!< doorbell page (0 = trapped MMIO)
    InterruptController *intc = nullptr;
    unsigned irqVector = 0;
    InterruptController::HandlerId irqHandler = 0;
    RxHandler rx;

    sim::Addr txRing = 0;
    sim::Addr rxRing = 0;
    sim::Addr txBufs = 0;
    sim::Addr rxBufs = 0;
    unsigned txTail = 0;  //!< next descriptor to fill
    unsigned txClean = 0; //!< next descriptor to reclaim
    unsigned txFree = kRingSize;
    unsigned rxHead = 0; //!< next descriptor to examine

    std::deque<net::Frame> txBacklog;

    std::uint64_t numTx = 0;
};

} // namespace hw

#endif // HW_E1000_DRIVER_HH
