/**
 * @file
 * The guest-side contract of the mediation tier: one E1000GuestPort
 * per guest, owning that guest's virtualized e1000 ring-register file
 * and the machinery to move frames between it and the core.
 *
 * The port is passive: it never touches the physical NIC. The core
 * drives it — pulling queued TX frames (peekTxWire/takeTx, so QoS can
 * inspect a frame's wire cost before committing to it), pushing RX
 * frames (deliverRx), and posting interrupt causes. The port calls
 * back into the core only through the two hooks, from intercepted
 * guest accesses.
 *
 * Two window flavours:
 *  - The *real* window: the physical NIC's own MMIO range. Register
 *    accesses the port does not virtualize fall through to the
 *    device, exactly as the original single-guest mediator behaved.
 *  - A *virtual* window: a register range with no device behind it,
 *    used to give additional guests their own NIC. The port registers
 *    a stub device (link-up STATUS, zeroes elsewhere) and virtualizes
 *    everything.
 *
 * Trap mode intercepts every access. Exitless mode still intercepts —
 * ring setup is a handful of boot-time exits — but the steady-state
 * doorbells (TDT/RDT/ICR) travel through a shared-memory page the
 * core folds in via syncDoorbell(); a guest driver that has attached
 * the page never exits on the data path.
 */

#ifndef NETMED_E1000_GUEST_PORT_HH
#define NETMED_E1000_GUEST_PORT_HH

#include <functional>
#include <string>

#include "hw/interrupts.hh"
#include "hw/io_bus.hh"
#include "hw/phys_mem.hh"
#include "net/frame.hh"
#include "netmed/types.hh"

namespace netmed {

/** Core-provided callbacks, invoked from guest register accesses. */
struct GuestPortHooks
{
    /** The guest rang its TX doorbell (trap mode only). */
    std::function<void()> txKick;
    /** The guest entered its ISR (trap-mode ICR read): sync RX now. */
    std::function<void()> rxSync;
};

/** One guest's attachment point. */
class E1000GuestPort : public hw::IoInterceptor
{
  public:
    /**
     * @param windowBase  the register window to virtualize.
     * @param virtualWindow  true when no device backs the window.
     * @param doorbell  exitless doorbell page (0 = trapped doorbells).
     * @param intc  when set, interrupt causes are delivered as virtual
     *              IRQs on @p irqVector; when null the physical NIC's
     *              interrupt is assumed to reach the guest (the
     *              single-guest trap configuration).
     */
    E1000GuestPort(std::string name, hw::IoBus &bus, hw::PhysMem &mem,
                   sim::Addr windowBase, bool virtualWindow,
                   MedMode mode, sim::Addr doorbell,
                   hw::InterruptController *intc, unsigned irqVector);

    /** Begin virtualizing the guest's register window. */
    void attach(GuestPortHooks hooks);

    /** Stop virtualizing (de-virtualization or teardown). */
    void detach();

    /**
     * Exitless mode: fold the doorbell page into the virtual register
     * state. @return true if the TX tail moved (work to pump).
     */
    bool syncDoorbell();

    /**
     * Wire size of the next queued TX frame, 0 when none. The frame
     * stays queued until takeTx() — QoS admission happens in between.
     */
    sim::Bytes peekTxWire();

    /** Dequeue the next TX frame and complete its guest descriptor. */
    bool takeTx(net::Frame &frame);

    /** Copy @p frame into the guest's RX ring; false = not ready. */
    bool deliverRx(const net::Frame &frame);

    /** Post TX-done / RX interrupt causes toward the guest. */
    void postTxCause();
    void postRxCause();

    /** Snapshot of the virtual register file (for
     *  E1000RingPort::release). */
    GuestRingState rings() const;

    /** Exitless doorbell page address (0 = trapped doorbells). */
    sim::Addr doorbellPage() const { return dbPage; }

    /** @name hw::IoInterceptor (guest register accesses) */
    /// @{
    bool interceptRead(sim::Addr addr, unsigned size,
                       std::uint64_t &value) override;
    bool interceptWrite(sim::Addr addr, std::uint64_t value,
                        unsigned size) override;
    /// @}

  private:
    void postCause(std::uint32_t cause);

    std::string name_;
    hw::IoBus &bus;
    hw::PhysMem &mem;
    sim::Addr base;
    bool virtualWindow;
    MedMode mode;
    sim::Addr dbPage;
    hw::InterruptController *intc;
    unsigned irqVector;

    bool deviceAdded = false;
    bool attached = false;
    GuestPortHooks hooks_;

    GuestRingState g;
};

} // namespace netmed

#endif // NETMED_E1000_GUEST_PORT_HH
