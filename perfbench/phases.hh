/**
 * @file
 * Check and split one lease's submit -> bare-metal interval into
 * named parts.
 *
 * The milestones come from cloud::Lease (submitted, placed) and
 * bmcast::DeploymentTimeline (power-on ... bare metal). They must be
 * in order, with one documented exception: a fast copy can complete
 * (and the node de-virtualize) while the guest is still booting.
 * Anything else — a missing milestone or another order — is a
 * defect, and checkMilestones() names it.
 *
 * Each part runs from one milestone to the next, so ordered
 * milestones tile the interval exactly, tick for tick. placed ->
 * power-on, the gap between the control plane's choice and the
 * deployer's start, is its own part ("dispatch"). When the copy
 * completes first, the guest-boot part runs to the guest's boot or
 * bare metal, whichever comes first, copy_tail is zero, and devirt
 * is what remains.
 */

#ifndef PERFBENCH_PHASES_HH
#define PERFBENCH_PHASES_HH

#include <algorithm>
#include <array>
#include <cstdint>

namespace perfbench {

using Tick = std::uint64_t;

/** Milestones of one lease, in ticks. */
struct Milestones
{
    Tick submitted = 0;
    Tick placed = 0;
    Tick powerOn = 0;
    Tick firmwareDone = 0;
    Tick vmmReady = 0;
    Tick guestBootDone = 0;
    Tick copyComplete = 0;
    Tick bareMetal = 0;
};

constexpr std::size_t kNumParts = 7;

/** Part names, in order; each ends at the milestone of the same
 *  index in Milestones after `submitted`. */
constexpr std::array<const char *, kNumParts> kPartNames = {
    "admission", "dispatch", "firmware", "vmm_boot",
    "guest_boot", "copy_tail", "devirt",
};

using Parts = std::array<Tick, kNumParts>;

/** True when the copy completed before the guest finished booting:
 *  the one allowed disorder. */
inline bool
copyBeforeBoot(const Milestones &m)
{
    return m.copyComplete < m.guestBootDone;
}

/**
 * Why @p m cannot be split, or nullptr when it can. Every milestone
 * from VMM ready on takes simulated time after the submit, so it is
 * never 0; the earlier ones may legitimately all be 0 for a lease
 * submitted at t=0, and any one left unset after a non-zero
 * predecessor breaks the order.
 */
inline const char *
checkMilestones(const Milestones &m)
{
    if (m.vmmReady == 0 || m.guestBootDone == 0 || m.copyComplete == 0 ||
        m.bareMetal == 0)
        return "a milestone from VMM ready on is missing";
    if (m.placed < m.submitted)
        return "placed before submitted";
    if (m.powerOn < m.placed)
        return "powered on before placed";
    if (m.firmwareDone < m.powerOn)
        return "firmware done before power-on";
    if (m.vmmReady < m.firmwareDone)
        return "VMM ready before firmware done";
    if (m.guestBootDone < m.vmmReady)
        return "guest booted before the VMM was ready";
    if (m.copyComplete < m.vmmReady)
        return "copy complete before the VMM was ready";
    if (m.bareMetal < m.copyComplete)
        return "bare metal before the copy completed";
    return nullptr;
}

/** The parts of @p m, which checkMilestones() accepts; they sum to
 *  bareMetal - submitted. */
inline Parts
splitPhases(const Milestones &m)
{
    const Tick booted = std::min(m.guestBootDone, m.bareMetal);
    const Tick copied = std::max(m.copyComplete, booted);
    const std::array<Tick, kNumParts + 1> at = {
        m.submitted, m.placed, m.powerOn, m.firmwareDone,
        m.vmmReady,  booted,   copied,    m.bareMetal,
    };
    Parts parts{};
    for (std::size_t i = 0; i < kNumParts; ++i)
        parts[i] = at[i + 1] - at[i];
    return parts;
}

} // namespace perfbench

#endif // PERFBENCH_PHASES_HH
