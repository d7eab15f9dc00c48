#include "store/ec/plan.hh"

namespace store::ec {

std::uint32_t
Plan::fetchSectors() const
{
    std::uint32_t total = 0;
    for (const PlanStep &s : steps)
        if (s.op == StepOp::Fetch)
            total += s.sectors;
    return total;
}

sim::Bytes
Plan::fetchBytes() const
{
    return sim::Bytes(fetchSectors()) * sim::kSectorSize;
}

sim::Tick
Plan::combineCost() const
{
    sim::Tick total = 0;
    for (const PlanStep &s : steps)
        if (s.op != StepOp::Fetch)
            total += s.cost;
    return total;
}

std::size_t
Plan::fetches() const
{
    std::size_t n = 0;
    for (const PlanStep &s : steps)
        if (s.op == StepOp::Fetch)
            ++n;
    return n;
}

} // namespace store::ec
