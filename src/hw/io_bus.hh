/**
 * @file
 * The PIO/MMIO bus: the interposition surface of the whole system.
 *
 * Devices register address ranges. Guest-context accesses travel
 * through the bus; when a VMM has installed an interceptor on a range,
 * the access first causes a modelled VM exit (counted by the exit
 * sink) and is offered to the interceptor, which may handle it
 * (emulate/swallow) or let it pass through to the device.
 *
 * VMM-context accesses (vmmRead/vmmWrite) reach devices directly and
 * never exit — the VMM touching hardware is not a VM exit.
 *
 * After de-virtualization all interceptors are removed and guest
 * accesses take the identical direct path as on bare metal: this is
 * the structural "zero overhead" property.
 */

#ifndef HW_IO_BUS_HH
#define HW_IO_BUS_HH

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "simcore/types.hh"

namespace hw {

/** Address space selector. */
enum class IoSpace { Pio, Mmio };

/** Device-side handlers for one register range. */
struct IoDevice
{
    std::string name;
    /** @param offset range-relative offset; @param size 1/2/4/8. */
    std::function<std::uint64_t(sim::Addr offset, unsigned size)> read;
    std::function<void(sim::Addr offset, std::uint64_t value,
                       unsigned size)> write;
};

/**
 * VMM-side interceptor for one range. Return true to indicate the
 * access was fully handled (the device will not see it).
 */
class IoInterceptor
{
  public:
    virtual ~IoInterceptor() = default;

    /** Offered a guest read; may emulate the result. */
    virtual bool
    interceptRead(sim::Addr addr, unsigned size, std::uint64_t &value)
    {
        (void)addr; (void)size; (void)value;
        return false;
    }

    /** Offered a guest write; may swallow it. */
    virtual bool
    interceptWrite(sim::Addr addr, std::uint64_t value, unsigned size)
    {
        (void)addr; (void)value; (void)size;
        return false;
    }
};

/** Receives VM-exit notifications caused by intercepted accesses. */
class ExitSink
{
  public:
    virtual ~ExitSink() = default;
    virtual void ioExit(IoSpace space, sim::Addr addr, bool isWrite) = 0;
};

/** The bus. One per Machine. */
class IoBus
{
  public:
    /** Register a device range. Ranges must not overlap. */
    void addDevice(IoSpace space, sim::Addr base, sim::Addr size,
                   IoDevice dev);

    /**
     * Install an interceptor covering [base, base+size). The range may
     * span several device ranges. Only one interceptor per address.
     */
    void intercept(IoSpace space, sim::Addr base, sim::Addr size,
                   IoInterceptor *handler);

    /** Remove interception from a range (de-virtualization). */
    void removeIntercept(IoSpace space, sim::Addr base, sim::Addr size);

    /** True if any interceptor remains installed. */
    bool anyInterceptActive() const;

    /** Set the VM-exit accounting sink (may be nullptr). */
    void setExitSink(ExitSink *sink) { exitSink = sink; }

    /** @name Guest-context accesses (interceptable). */
    /// @{
    std::uint64_t guestRead(IoSpace space, sim::Addr addr,
                            unsigned size);
    void guestWrite(IoSpace space, sim::Addr addr, std::uint64_t value,
                    unsigned size);
    /// @}

    /** @name VMM-context accesses (never intercepted, never exit). */
    /// @{
    std::uint64_t vmmRead(IoSpace space, sim::Addr addr, unsigned size);
    void vmmWrite(IoSpace space, sim::Addr addr, std::uint64_t value,
                  unsigned size);
    /// @}

    /** Guest accesses that caused a VM exit. */
    std::uint64_t interceptedAccesses() const { return numIntercepted; }

    /**
     * Intercepted guest accesses (VM exits) attributable to device
     * ranges overlapping [base, base+size) — the per-window cut the
     * exit-rate benches use to separate NIC-mediation exits from
     * storage-mediation exits on the same bus.
     */
    std::uint64_t interceptedIn(IoSpace space, sim::Addr base,
                                sim::Addr size) const;

  private:
    struct Range
    {
        sim::Addr base;
        sim::Addr size;
        IoDevice dev;
        IoInterceptor *interceptor = nullptr;
        std::uint64_t numIntercepted = 0;
    };

    Range *findRange(IoSpace space, sim::Addr addr);
    std::map<sim::Addr, Range> &spaceMap(IoSpace space);

    std::uint64_t deviceRead(Range &r, sim::Addr addr, unsigned size);
    void deviceWrite(Range &r, sim::Addr addr, std::uint64_t value,
                     unsigned size);

    std::map<sim::Addr, Range> pio;
    std::map<sim::Addr, Range> mmio;
    ExitSink *exitSink = nullptr;
    std::uint64_t numIntercepted = 0;
};

/**
 * A bus accessor bound to an execution context. Drivers written
 * against a BusView run unchanged in the guest (interceptable,
 * VM-exit-accounted) or in the VMM (direct); this is how one driver
 * implementation serves both the guest OS model and the BMcast VMM's
 * minimal polling drivers.
 */
class BusView
{
  public:
    BusView(IoBus &bus, bool guestContext)
        : bus_(&bus), guestCtx(guestContext) {}

    std::uint64_t
    read(IoSpace space, sim::Addr addr, unsigned size) const
    {
        return guestCtx ? bus_->guestRead(space, addr, size)
                        : bus_->vmmRead(space, addr, size);
    }

    void
    write(IoSpace space, sim::Addr addr, std::uint64_t value,
          unsigned size) const
    {
        if (guestCtx)
            bus_->guestWrite(space, addr, value, size);
        else
            bus_->vmmWrite(space, addr, value, size);
    }

    IoBus &bus() const { return *bus_; }

  private:
    IoBus *bus_;
    bool guestCtx;
};

} // namespace hw

#endif // HW_IO_BUS_HH
