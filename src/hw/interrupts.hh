/**
 * @file
 * Interrupt delivery: IRQ lines feeding a simple interrupt controller.
 *
 * The controller is deliberately *not* virtualized by BMcast (paper
 * §3.2: sharing interrupt controllers is complicated and hurts
 * portability); mediators instead suppress interrupts at the device
 * (nIEN / PxIE) and poll. The controller therefore only routes vectors
 * to registered guest handlers, with a small delivery latency plus any
 * profile-dependent virtualization overhead.
 */

#ifndef HW_INTERRUPTS_HH
#define HW_INTERRUPTS_HH

#include <functional>
#include <map>
#include <vector>

#include "hw/virt_profile.hh"
#include "simcore/fault_injector.hh"
#include "simcore/sim_object.hh"

namespace hw {

/** Routes interrupt vectors to handlers with delivery latency. */
class InterruptController : public sim::SimObject
{
  public:
    using Handler = std::function<void()>;

    InterruptController(sim::EventQueue &eq, std::string name,
                        std::function<const VirtProfile &()> profile,
                        sim::Tick baseLatency = 2 * sim::kUs)
        : sim::SimObject(eq, std::move(name)),
          profileFn(std::move(profile)), baseLatency(baseLatency) {}

    /** Token identifying one registered handler. */
    using HandlerId = std::uint64_t;

    /**
     * Install a handler for a vector. Vectors may be shared: every
     * registered handler runs on delivery and must tolerate spurious
     * invocations (as real shared-IRQ drivers do).
     */
    HandlerId
    registerHandler(unsigned vector, Handler handler)
    {
        HandlerId id = nextHandlerId++;
        handlers[vector].emplace_back(id, std::move(handler));
        return id;
    }

    /** Remove one handler (driver teardown / OS handover). */
    void
    unregisterHandler(unsigned vector, HandlerId id)
    {
        auto it = handlers.find(vector);
        if (it == handlers.end())
            return;
        auto &v = it->second;
        for (auto h = v.begin(); h != v.end(); ++h) {
            if (h->first == id) {
                v.erase(h);
                return;
            }
        }
    }

    /** Edge-trigger a vector; delivery is scheduled, not immediate. */
    void
    raise(unsigned vector)
    {
        if (faults && faults->anyActive()) {
            if (faults->shouldFire(sim::FaultSite::IrqLost, vector)) {
                // The edge is swallowed: raised but never delivered.
                // Handlers must be status-driven and device drivers
                // need a watchdog to survive this.
                ++numLost;
                return;
            }
            if (faults->shouldFire(sim::FaultSite::IrqSpurious,
                                   vector)) {
                // An extra, unprompted edge trails the real one; the
                // spurious-tolerance contract above makes this safe
                // for correct handlers.
                ++numInjectedSpurious;
                schedule(baseLatency * 2,
                         [this, vector]() { deliver(vector); });
            }
        }
        sim::Tick latency = baseLatency + profileFn().interruptExtraNs;
        schedule(latency, [this, vector]() { deliver(vector); });
    }

    /** Injected fault telemetry. */
    std::uint64_t lostIrqs() const { return numLost; }
    std::uint64_t injectedSpurious() const
    {
        return numInjectedSpurious;
    }

    /**
     * Attach a fault injector (nullptr detaches).  Consulted per
     * raise() for IrqLost / IrqSpurious, keyed by vector number.
     */
    void setFaultInjector(sim::FaultInjector *fi) { faults = fi; }

  private:
    void
    deliver(unsigned vector)
    {
        auto it = handlers.find(vector);
        if (it == handlers.end() || it->second.empty())
            return;
        // Copy: a handler may (un)register during delivery.
        auto hs = it->second;
        for (auto &[id, h] : hs)
            h();
    }

    std::function<const VirtProfile &()> profileFn;
    sim::Tick baseLatency;
    std::map<unsigned, std::vector<std::pair<HandlerId, Handler>>>
        handlers;
    HandlerId nextHandlerId = 1;
    sim::FaultInjector *faults = nullptr;
    std::uint64_t numLost = 0;
    std::uint64_t numInjectedSpurious = 0;
};

/** A device's interrupt output pin, bound to one vector. */
class IrqLine
{
  public:
    IrqLine() = default;

    IrqLine(InterruptController *ctrl, unsigned vector)
        : ctrl(ctrl), vector(vector) {}

    /** Pulse the line (edge-triggered model). */
    void
    raise()
    {
        if (ctrl)
            ctrl->raise(vector);
    }

  private:
    InterruptController *ctrl = nullptr;
    unsigned vector = 0;
};

} // namespace hw

#endif // HW_INTERRUPTS_HH
