/**
 * @file
 * Hardware-assisted virtualization engine model (Intel VT-x / AMD-V).
 *
 * Tracks VM-exit causes and their cost, per-VCPU nested paging state,
 * and provides the preemption-timer facility the BMcast VMM uses to
 * schedule its polling threads (paper §4.1). It does not execute
 * instructions; the cost model feeds the machine's VirtProfile.
 */

#ifndef HW_VMX_HH
#define HW_VMX_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "hw/io_bus.hh"
#include "simcore/sim_object.hh"

namespace hw {

/** Cost parameters of the virtualization hardware. */
struct VmxParams
{
    /** Exit + handler dispatch + resume round trip. */
    sim::Tick exitRoundTrip = 1200; // ns
    /** Cost of a world switch for one preemption-timer poll. */
    sim::Tick timerExitCost = 1000; // ns
};

/** Per-VCPU virtualization state. */
struct VcpuState
{
    bool inVmx = false;        //!< VMXON performed
    bool nestedPaging = false; //!< EPT/NPT enabled
    std::uint64_t tlbInvalidations = 0;
};

/** VM-exit cause classes the BMcast VMM configures (paper §4.1). */
enum class ExitReason
{
    PioAccess,
    MmioAccess,
    Cpuid,
    CrWrite,
    InitSipi,
    PreemptionTimer,
};

/** The engine: exit accounting + preemption timer. */
class VmxEngine : public sim::SimObject, public ExitSink
{
  public:
    VmxEngine(sim::EventQueue &eq, std::string name, unsigned cpus,
              VmxParams params = VmxParams{})
        : sim::SimObject(eq, std::move(name)),
          params_(params), vcpus(cpus) {}

    /** @name VMXON / VMXOFF and nested paging, per VCPU. */
    /// @{
    void
    vmxon(unsigned cpu)
    {
        vcpus.at(cpu).inVmx = true;
        vcpus.at(cpu).nestedPaging = true;
    }

    /**
     * Turn nested paging off on one CPU and invalidate its TLB.
     * Because guest-physical mapping is always identity, CPUs may do
     * this at independent times with no shootdown (paper §3.4).
     */
    void
    disableNestedPaging(unsigned cpu)
    {
        auto &v = vcpus.at(cpu);
        v.nestedPaging = false;
        ++v.tlbInvalidations;
    }

    /** VMXOFF: leave VMX operation entirely on one CPU. */
    void vmxoff(unsigned cpu) { vcpus.at(cpu).inVmx = false; }

    bool
    anyInVmx() const
    {
        for (const auto &v : vcpus)
            if (v.inVmx)
                return true;
        return false;
    }

    bool
    anyNestedPaging() const
    {
        for (const auto &v : vcpus)
            if (v.nestedPaging)
                return true;
        return false;
    }

    const VcpuState &vcpu(unsigned cpu) const { return vcpus.at(cpu); }
    /// @}

    /** Record a VM exit of the given class. */
    void
    recordExit(ExitReason reason, sim::Tick cost)
    {
        ++exitCounts[static_cast<std::size_t>(reason)];
        stolenTime += cost;
    }

    /** ExitSink: an intercepted guest I/O access exited. */
    void
    ioExit(IoSpace space, sim::Addr addr, bool isWrite) override
    {
        (void)addr;
        (void)isWrite;
        recordExit(space == IoSpace::Pio ? ExitReason::PioAccess
                                         : ExitReason::MmioAccess,
                   params_.exitRoundTrip);
    }

    /**
     * Run @p fn every @p interval ticks via the VT-x preemption timer
     * until it returns false. Each firing charges a timer-exit cost.
     * Backed by the kernel's periodic-event facility: the poll
     * closure is stored once and re-armed allocation-free per fire.
     */
    void
    startPreemptionTimer(sim::Tick interval,
                         std::function<bool()> fn)
    {
        auto handle = std::make_shared<sim::EventId>();
        *handle = schedulePeriodic(
            interval, [this, handle, fn = std::move(fn)]() {
                recordExit(ExitReason::PreemptionTimer,
                           params_.timerExitCost);
                if (!fn())
                    eventQueue().cancel(*handle);
            });
    }

    std::uint64_t
    exits(ExitReason reason) const
    {
        return exitCounts[static_cast<std::size_t>(reason)];
    }

    std::uint64_t
    totalExits() const
    {
        std::uint64_t n = 0;
        for (auto c : exitCounts)
            n += c;
        return n;
    }

    /** Accumulated CPU time consumed by world switches. */
    sim::Tick stolenCpuTime() const { return stolenTime; }

    const VmxParams &params() const { return params_; }

  private:
    VmxParams params_;
    std::vector<VcpuState> vcpus;
    std::uint64_t exitCounts[6] = {};
    sim::Tick stolenTime = 0;
};

} // namespace hw

#endif // HW_VMX_HH
