/**
 * @file
 * Coding plans: explicit DAGs of fetch / XOR / GF-combine steps.
 *
 * A Plan is the unit of agreement between a Code (which knows the
 * algebra of a stripe) and the executors (ChunkStreamer for reads,
 * RepairScheduler for rebuilds), which know nothing about coding.
 * Each step names a concrete source MAC, the stripe member index it
 * reads, and the sector count it moves; combine steps carry a modeled
 * compute cost and reference the steps they consume.  An executor
 * walks the fetch steps in order (their sector counts tile the
 * requested range), then pays the summed combine cost before the
 * result is usable — so every byte and every decode tick a code
 * charges is visible in the plan itself, not buried in code-specific
 * branches.
 */

#ifndef STORE_EC_PLAN_HH
#define STORE_EC_PLAN_HH

#include <cstdint>
#include <vector>

#include "net/frame.hh"
#include "simcore/types.hh"

namespace store::ec {

enum class StepOp : std::uint8_t {
    Fetch = 0, ///< Move sectors from a stripe member.
    Xor,       ///< Cheap parity combine (local-group / sub-shard).
    GfCombine, ///< Full Reed–Solomon Galois-field decode.
};

struct PlanStep
{
    StepOp op = StepOp::Fetch;
    /** Fetch: the serving member's MAC. */
    net::MacAddr source = 0;
    /** Fetch: stripe index of the source member. */
    unsigned member = 0;
    /** Fetch: sectors moved; combine: sectors produced. */
    std::uint32_t sectors = 0;
    /** Combine: modeled compute cost. */
    sim::Tick cost = 0;
    /** Combine: indices of the steps this one consumes. */
    std::vector<std::uint16_t> inputs;
};

struct Plan
{
    std::vector<PlanStep> steps;
    /** Parity members serving fetches (> 0 marks a reconstruction). */
    unsigned parityUsed = 0;

    /** Total sectors moved by fetch steps. */
    std::uint32_t fetchSectors() const;
    /** Total bytes moved by fetch steps. */
    sim::Bytes fetchBytes() const;
    /** Summed compute cost of the combine steps. */
    sim::Tick combineCost() const;
    /** Number of fetch steps. */
    std::size_t fetches() const;
    bool degraded() const { return parityUsed > 0; }
};

} // namespace store::ec

#endif // STORE_EC_PLAN_HH
