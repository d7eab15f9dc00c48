#include "store/ec/flat_rs.hh"

#include "simcore/logging.hh"

namespace store::ec {

FlatRs::FlatRs(CodeParams p) : Code(p)
{
    sim::fatalIf(prm_.dataShards == 0,
                 "flat-rs needs at least one data shard");
}

std::optional<Plan>
FlatRs::readPlan(const std::vector<net::MacAddr> &stripe,
                 const LiveFn &live, std::uint32_t sectors) const
{
    const unsigned k = dataShards();
    // Data members first, then live parity fills the gaps — the
    // pick order of the original k+m store.
    std::vector<unsigned> picks;
    picks.reserve(k);
    unsigned parity_used = 0;
    for (unsigned i = 0; i < k && i < stripe.size(); ++i) {
        if (live(stripe[i]))
            picks.push_back(i);
    }
    for (unsigned i = k; i < stripe.size() && picks.size() < k; ++i) {
        if (live(stripe[i])) {
            picks.push_back(i);
            ++parity_used;
        }
    }
    if (picks.size() < k)
        return std::nullopt;

    Plan plan;
    plan.parityUsed = parity_used;
    std::uint32_t slice_base = sectors / k;
    std::uint32_t slice_rem = sectors % k;
    std::uint32_t off = 0;
    for (unsigned i = 0; i < k && off < sectors; ++i) {
        std::uint32_t n = slice_base + (i < slice_rem ? 1 : 0);
        if (n == 0)
            continue;
        plan.steps.push_back(PlanStep{StepOp::Fetch, stripe[picks[i]],
                                      picks[i], n, 0, {}});
        off += n;
    }
    if (parity_used > 0) {
        PlanStep combine{StepOp::GfCombine, 0, 0, sectors,
                         prm_.gfPenalty, {}};
        for (std::uint16_t i = 0; i < plan.steps.size(); ++i)
            combine.inputs.push_back(i);
        plan.steps.push_back(std::move(combine));
    }
    return plan;
}

std::optional<Plan>
FlatRs::repairPlan(const std::vector<net::MacAddr> &stripe,
                   unsigned lost, const LiveFn &live,
                   std::uint32_t chunk_sectors) const
{
    sim::panicIfNot(lost < stripe.size(),
                    "repair of a member outside the stripe");
    const unsigned k = dataShards();
    Plan plan;
    // k survivors each contribute a full shard: data members first,
    // parity back-fills (the flat-RS repair tax).
    for (unsigned pass = 0; pass < 2 && plan.steps.size() < k; ++pass) {
        for (unsigned i = 0; i < stripe.size() && plan.steps.size() < k;
             ++i) {
            bool is_data = i < k;
            if ((pass == 0) != is_data)
                continue;
            if (i == lost || !live(stripe[i]))
                continue;
            std::uint32_t n =
                shardSectors(chunk_sectors, is_data ? i : 0);
            plan.steps.push_back(
                PlanStep{StepOp::Fetch, stripe[i], i, n, 0, {}});
            if (!is_data)
                ++plan.parityUsed;
        }
    }
    if (plan.steps.size() < k)
        return std::nullopt;
    PlanStep combine{StepOp::GfCombine, 0, lost,
                     shardSectors(chunk_sectors, lost < k ? lost : 0),
                     prm_.gfPenalty, {}};
    for (std::uint16_t i = 0; i < plan.steps.size(); ++i)
        combine.inputs.push_back(i);
    plan.steps.push_back(std::move(combine));
    return plan;
}

} // namespace store::ec
