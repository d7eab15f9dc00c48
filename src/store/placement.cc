#include "store/placement.hh"

#include <algorithm>

#include "simcore/logging.hh"

namespace store {

Placement::Placement(std::shared_ptr<const ec::Code> code,
                     std::vector<net::MacAddr> servers)
    : code_(std::move(code)), servers_(std::move(servers))
{
    sim::fatalIf(code_ == nullptr, "placement needs a code");
    checkPool();
    width_ = static_cast<unsigned>(
        std::min<std::size_t>(servers_.size(), code_->width()));
}

void
Placement::checkPool() const
{
    sim::fatalIf(code_->dataShards() == 0,
                 "placement needs at least one data shard");
    sim::fatalIf(servers_.size() < code_->dataShards(),
                 "placement needs >= k servers (", servers_.size(),
                 " < ", code_->dataShards(), ")");
    // Flat RS degrades gracefully on a small pool (the stripe just
    // clamps); structured codes pin members to roles, so a pool
    // narrower than the stripe is a configuration error.
    sim::fatalIf(code_->kind() != ec::CodeKind::FlatRs &&
                     servers_.size() < code_->width(),
                 code_->name(), " needs >= ", code_->width(),
                 " servers (have ", servers_.size(), ")");
}

void
Placement::setCode(std::shared_ptr<const ec::Code> code)
{
    sim::fatalIf(code == nullptr, "placement needs a code");
    sim::fatalIf(code->dataShards() != code_->dataShards(),
                 "transform cannot change the data shard count");
    code_ = std::move(code);
    checkPool();
    width_ = static_cast<unsigned>(
        std::min<std::size_t>(servers_.size(), code_->width()));
}

std::vector<net::MacAddr>
Placement::stripeFor(Digest d) const
{
    std::vector<net::MacAddr> stripe;
    stripe.reserve(width_);
    std::size_t n = servers_.size();
    for (unsigned i = 0; i < width_; ++i)
        stripe.push_back(servers_[(d + i) % n]);
    auto ov = overrides_.find(d);
    if (ov != overrides_.end())
        for (const auto &[member, mac] : ov->second)
            if (member < stripe.size())
                stripe[member] = mac;
    return stripe;
}

std::optional<ec::Plan>
Placement::readPlanFor(Digest d, const ec::LiveFn &live,
                       std::uint32_t sectors) const
{
    return code_->readPlan(stripeFor(d), live, sectors);
}

std::optional<ec::Plan>
Placement::repairPlanFor(Digest d, unsigned lost, const ec::LiveFn &live,
                         std::uint32_t chunk_sectors) const
{
    return code_->repairPlan(stripeFor(d), lost, live, chunk_sectors);
}

void
Placement::rehome(Digest d, unsigned member, net::MacAddr mac)
{
    sim::panicIfNot(member < width_,
                    "rehoming a member outside the stripe");
    overrides_[d][member] = mac;
}

std::optional<unsigned>
Placement::memberIndexOf(Digest d, net::MacAddr mac) const
{
    std::vector<net::MacAddr> stripe = stripeFor(d);
    for (unsigned i = 0; i < stripe.size(); ++i)
        if (stripe[i] == mac)
            return i;
    return std::nullopt;
}

} // namespace store
