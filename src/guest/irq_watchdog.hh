/**
 * @file
 * Lost-interrupt watchdog shared by the guest block drivers.
 *
 * All three drivers' interrupt handlers are status-driven and
 * spurious-tolerant (IDE re-reads the status register and bails on
 * BSY; AHCI completes only slots whose PxCI bit the device cleared;
 * NVMe consumes CQ entries by phase tag), so polling the ISR is always
 * safe.  The watchdog exploits that: while commands are outstanding,
 * a timer re-armed on every issue/progress step fires after a generous
 * timeout and simply polls the ISR, recovering any completion whose
 * interrupt was swallowed (FaultSite::IrqLost).
 *
 * With a healthy interrupt path the timer is always re-armed or
 * disarmed before it fires, so fault-free runs execute zero watchdog
 * polls and remain bit-identical.
 */

#ifndef GUEST_IRQ_WATCHDOG_HH
#define GUEST_IRQ_WATCHDOG_HH

#include <functional>

#include "simcore/event_queue.hh"

namespace guest {

class IrqWatchdog
{
  public:
    /**
     * @param poll invoked on expiry; polls the owner's ISR and
     *        returns true when commands remain outstanding (the
     *        watchdog then re-arms).  Must return false if the owner
     *        was destroyed during the poll.
     */
    IrqWatchdog(sim::EventQueue &eq, std::function<bool()> poll)
        : eq(eq), poll(std::move(poll))
    {
    }

    ~IrqWatchdog() { eq.cancel(timer); }

    IrqWatchdog(const IrqWatchdog &) = delete;
    IrqWatchdog &operator=(const IrqWatchdog &) = delete;

    /** (Re)start the countdown: on command issue and on progress. */
    void
    arm()
    {
        eq.cancel(timer);
        timer = eq.schedule(kTimeout, [this]() { fire(); });
    }

    /** Stop watching (no commands outstanding). */
    void disarm() { eq.cancel(timer); }

  private:
    void
    fire()
    {
        // NOTE: poll() may destroy the owner and this watchdog with
        // it (completion callbacks can tear the driver down); touch
        // no members afterwards unless it returns true.
        if (poll())
            arm();
    }

    sim::EventQueue &eq;
    std::function<bool()> poll;
    sim::EventId timer;
    /** Far above any legitimate command latency (including faulted
     *  network fetches behind a redirected guest read), so a fire
     *  means a completion signal really went missing. */
    static constexpr sim::Tick kTimeout = 10 * sim::kSec;
};

} // namespace guest

#endif // GUEST_IRQ_WATCHDOG_HH
