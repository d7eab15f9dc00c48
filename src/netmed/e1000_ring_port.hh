/**
 * @file
 * netmed's contract with the physical NIC: VMM-owned shadow rings on
 * the e1000-class NIC model, programmed through direct (non-exiting)
 * register writes.
 *
 * The ring port owns the device's real descriptor rings while
 * mediation is installed (pointing them at VMM shadow memory) and
 * exposes them as a frame-granular push/pop interface, so
 * NetMediationCore never touches controller registers.
 *
 * Contract:
 *  - take() may be called once per install; the device is reprogrammed
 *    onto shadow rings and its interrupt policy set for the mode.
 *  - release() restores a guest-visible ring configuration verbatim;
 *    the caller decides what that state is (for a seamless handover
 *    the TX tail is the guest's *head*, because every frame the guest
 *    queued has already been pumped through the shadow path).
 *  - txPush/rxPop never block: a full TX ring fails the push, an
 *    empty RX ring fails the pop. reapTx() reclaims completed TX
 *    descriptors and must be called periodically.
 */

#ifndef NETMED_E1000_RING_PORT_HH
#define NETMED_E1000_RING_PORT_HH

#include "hw/io_bus.hh"
#include "hw/mem_arena.hh"
#include "hw/nic.hh"
#include "hw/phys_mem.hh"
#include "net/frame.hh"
#include "netmed/types.hh"

namespace netmed {

/** Shadow-ring port for hw::E1000Nic: the physical side of the tier. */
class E1000RingPort
{
  public:
    /**
     * Shadow ring/buffer memory comes from @p vmmArena.
     * @p mode picks the interrupt policy applied by take(): Trap
     * leaves the physical IRQ armed (it drives the guest's ISR, whose
     * intercepted ICR read is the sync point); Exitless masks it (a
     * sidecore polls).
     */
    E1000RingPort(hw::IoBus &bus, hw::PhysMem &mem, hw::E1000Nic &nic,
                  hw::MemArena &vmmArena, MedMode mode);

    /** Seize the device: program shadow rings, set IRQ policy. */
    void take();

    /** Hand the device back, programmed with @p g. */
    void release(const GuestRingState &g);

    /** Reclaim completed shadow TX descriptors. */
    void reapTx();

    /** Shadow TX descriptors currently available. */
    unsigned txFree();

    /** Copy @p frame into the shadow TX ring and ring the doorbell. */
    bool txPush(const net::Frame &frame);

    /** Pop one completed shadow RX descriptor into @p frame. */
    bool rxPop(net::Frame &frame);

    /** Station identity of the underlying device. */
    net::MacAddr mac() const;
    sim::Bytes mtu() const;

    static constexpr unsigned kShadowSize = 128;
    static constexpr sim::Bytes kBufSize = 2048;

  private:
    hw::BusView vmmView;
    hw::PhysMem &mem;
    hw::E1000Nic &nic_;
    MedMode mode;

    sim::Addr sTxRing = 0;
    sim::Addr sRxRing = 0;
    sim::Addr sTxBufs = 0;
    sim::Addr sRxBufs = 0;
    unsigned sTxTail = 0;
    unsigned sTxClean = 0;
    unsigned sRxHead = 0;
};

} // namespace netmed

#endif // NETMED_E1000_RING_PORT_HH
