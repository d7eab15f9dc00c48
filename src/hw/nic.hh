/**
 * @file
 * An e1000-class NIC model with legacy descriptor rings.
 *
 * One register model serves the four adapter families the BMcast
 * prototype wrote drivers for (Intel PRO/1000 and X540, Realtek
 * RTL816x, Broadcom NetXtreme); they differ here only in the link
 * speed the machine gives the NIC's port (nicModelSpeed), mirroring
 * the paper's observation that the minimal send/receive-with-polling
 * driver surface is small and similar across parts.
 *
 * Descriptor rings live in simulated physical memory and are walked
 * by real register-programmed head/tail indices, so both the guest
 * driver and the BMcast shared-NIC mediator (shadow rings, §6) operate
 * the architected interface.
 */

#ifndef HW_NIC_HH
#define HW_NIC_HH

#include <cstdint>
#include <functional>
#include <string>

#include "hw/interrupts.hh"
#include "hw/io_bus.hh"
#include "hw/phys_mem.hh"
#include "net/network.hh"
#include "simcore/sim_object.hh"

namespace hw {

/** Adapter families supported by the BMcast prototype. */
enum class NicModel { Pro1000, X540, Rtl816x, NetXtreme };

/** Default link speed of a family in bits per second. */
double nicModelSpeed(NicModel model);

namespace e1000 {

/** Register offsets (subset of the 8254x map). */
constexpr sim::Addr kCtrl = 0x0000;
constexpr sim::Addr kStatus = 0x0008;
constexpr sim::Addr kIcr = 0x00C0; //!< read-to-clear
constexpr sim::Addr kIms = 0x00D0;
constexpr sim::Addr kImc = 0x00D8;
constexpr sim::Addr kRctl = 0x0100;
constexpr sim::Addr kTctl = 0x0400;
constexpr sim::Addr kRdbal = 0x2800;
constexpr sim::Addr kRdlen = 0x2808;
constexpr sim::Addr kRdh = 0x2810;
constexpr sim::Addr kRdt = 0x2818;
constexpr sim::Addr kTdbal = 0x3800;
constexpr sim::Addr kTdlen = 0x3808;
constexpr sim::Addr kTdh = 0x3810;
constexpr sim::Addr kTdt = 0x3818;

constexpr sim::Addr kMmioSize = 0x8000;

/** Interrupt cause bits. */
constexpr std::uint32_t kIcrTxdw = 0x01;
constexpr std::uint32_t kIcrRxt0 = 0x80;

/** RCTL/TCTL enable bits. */
constexpr std::uint32_t kRctlEn = 0x02;
constexpr std::uint32_t kTctlEn = 0x02;

/** Descriptor geometry. */
constexpr sim::Bytes kDescSize = 16;

/** TX descriptor command/status bits. */
constexpr std::uint8_t kTxCmdEop = 0x01;
constexpr std::uint8_t kTxCmdRs = 0x08;
constexpr std::uint8_t kDescDd = 0x01;
constexpr std::uint8_t kRxStEop = 0x02;

} // namespace e1000

/** The NIC device. */
class E1000Nic : public sim::SimObject
{
  public:
    E1000Nic(sim::EventQueue &eq, std::string name, IoBus &bus,
             PhysMem &mem, net::Port &port, sim::Addr mmioBase,
             IrqLine irq);

    /** @name Register interface (invoked via the IoBus). */
    /// @{
    std::uint64_t mmioRead(sim::Addr offset, unsigned size);
    void mmioWrite(sim::Addr offset, std::uint64_t value, unsigned size);
    /// @}

    net::Port &port() { return port_; }
    sim::Addr mmioBase() const { return base; }

    /**
     * @name Software-passthrough taps (netmed tier).
     * The taps are the only mediation the VMM retains when a guest
     * owns the real rings: the TX tap paces an outgoing frame (it
     * returns the earliest tick the frame may hit the wire — a
     * token-bucket admit, charged exactly once per frame), the RX tap
     * may consume an incoming frame before the rings see it (steering
     * the VMM's own traffic away from the guest). Unset taps leave
     * the device bit-identical to the tap-less model.
     */
    /// @{
    using TxTap = std::function<sim::Tick(const net::Frame &,
                                          sim::Tick now)>;
    using RxTap = std::function<bool(const net::Frame &)>;
    void setTxTap(TxTap t) { txTap = std::move(t); }
    void setRxTap(RxTap t) { rxTap = std::move(t); }
    /// @}

  private:
    void processTx();
    void onFrame(const net::Frame &frame);
    void raiseIrq(std::uint32_t cause);

    IoBus &bus;
    PhysMem &mem;
    net::Port &port_;
    sim::Addr base;
    IrqLine irq;

    std::uint32_t icr = 0;
    std::uint32_t ims = 0;
    std::uint32_t rctl = 0;
    std::uint32_t tctl = 0;
    std::uint32_t rdbal = 0;
    std::uint32_t rdlen = 0;
    std::uint32_t rdh = 0;
    std::uint32_t rdt = 0;
    std::uint32_t tdbal = 0;
    std::uint32_t tdlen = 0;
    std::uint32_t tdh = 0;
    std::uint32_t tdt = 0;

    bool txInProgress = false;

    TxTap txTap;
    RxTap rxTap;
};

} // namespace hw

#endif // HW_NIC_HH
