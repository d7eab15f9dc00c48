#include "cloud/congestion.hh"

#include <algorithm>

#include "simcore/logging.hh"

namespace cloud {

CongestionController::CongestionController(CongestionParams p,
                                           unsigned racks,
                                           const net::Topology *topo)
    : prm_(p)
{
    sim::fatalIf(racks == 0, "congestion controller needs racks");
    sim::fatalIf(prm_.linkShare <= 0.0 || prm_.linkShare > 1.0,
                 "deployment link share must be in (0, 1]");
    sim::fatalIf(prm_.servingShare < 0.0 ||
                     prm_.linkShare + prm_.servingShare > 1.0,
                 "deployment + serving shares exceed the link");
    sim::fatalIf(prm_.scavengerShare < 0.0 ||
                     prm_.linkShare + prm_.servingShare +
                             prm_.scavengerShare >
                         1.0,
                 "deployment + serving + scavenger shares exceed "
                 "the link");
    double link = topo ? topo->effectiveUplinkBps() : prm_.rackLinkBps;
    sim::fatalIf(prm_.linkShare * link <= 0.0,
                 "rack deployment lane has no capacity");
    // Every lane is carved from the physical link, so no class can
    // book another's capacity; only deployment caps its tenants.
    RackLanes lanes;
    Lane &deploy = lanes[static_cast<std::size_t>(Traffic::Deploy)];
    deploy.bps = prm_.linkShare * link;
    deploy.tenantBps =
        prm_.tenantShare > 0.0 ? deploy.bps * prm_.tenantShare : 0.0;
    lanes[static_cast<std::size_t>(Traffic::Serving)].bps =
        prm_.servingShare * link;
    lanes[static_cast<std::size_t>(Traffic::Scavenger)].bps =
        prm_.scavengerShare * link;
    racks_.assign(racks, lanes);
}

double
CongestionController::laneBps(unsigned rack) const
{
    return lane(rack, Traffic::Deploy).bps;
}

sim::Tick
CongestionController::admit(unsigned rack, TenantId tenant,
                            sim::Bytes bytes, sim::Tick now,
                            Traffic cls)
{
    Lane &ln = racks_.at(rack)[static_cast<std::size_t>(cls)];
    if (ln.bps <= 0.0)
        return now; // no contract for this class: unshaped
    Bucket &tb = ln.tenants[tenant];

    double bits = static_cast<double>(bytes) * 8.0;
    auto lane_ser = static_cast<sim::Tick>(
        bits / ln.bps * static_cast<double>(sim::kSec));
    sim::Tick tenant_ser =
        ln.tenantBps > 0.0
            ? static_cast<sim::Tick>(bits / ln.tenantBps *
                                     static_cast<double>(sim::kSec))
            : lane_ser;

    // Hierarchical booking: the transfer starts when the rack lane
    // and the tenant's slice are both free, and occupies each at its
    // own rate — so one tenant's storm fills its slice long before
    // it can fill the lane.
    sim::Tick start = std::max({now, ln.all.freeAt, tb.freeAt});
    ln.all.freeAt = start + lane_ser;
    tb.freeAt = start + tenant_ser;

    sim::Tick delay = start - now;
    ln.all.bytes += bytes;
    ++ln.all.grants;
    ln.all.delaySum += delay;
    tb.bytes += bytes;
    ++tb.grants;
    tb.delaySum += delay;
    return start;
}

sim::Bytes
CongestionController::grantedBytes(unsigned rack, Traffic cls) const
{
    return lane(rack, cls).all.bytes;
}

std::uint64_t
CongestionController::grants(unsigned rack) const
{
    return lane(rack, Traffic::Deploy).all.grants;
}

sim::Tick
CongestionController::throttleDelay(unsigned rack, Traffic cls) const
{
    return lane(rack, cls).all.delaySum;
}

sim::Bytes
CongestionController::tenantBytes(unsigned rack,
                                  TenantId tenant) const
{
    const Lane &ln = lane(rack, Traffic::Deploy);
    auto it = ln.tenants.find(tenant);
    return it == ln.tenants.end() ? 0 : it->second.bytes;
}

void
CongestionController::publish(obs::Registry &reg,
                              const std::string &prefix) const
{
    /** Counter names per class, in Traffic order. */
    struct Names
    {
        const char *bytes, *grants, *delay, *tenantBytes;
    };
    static constexpr Names kNames[] = {
        {"granted_bytes", "grants", "throttle_delay_ns",
         "tenant_bytes"},
        {"serving_bytes", "serving_grants", "serving_delay_ns",
         "serving_tenant_bytes"},
        {"scavenger_bytes", "scavenger_grants", "scavenger_delay_ns",
         "scavenger_tenant_bytes"},
    };
    const std::string base = prefix + "congestion.";
    for (std::size_t r = 0; r < racks_.size(); ++r) {
        std::string rack = "rack" + std::to_string(r);
        for (std::size_t c = 0; c < racks_[r].size(); ++c) {
            const Lane &ln = racks_[r][c];
            const Names &n = kNames[c];
            if (ln.bps <= 0.0)
                continue; // unshaped class: nothing booked
            reg.counter(base + n.bytes, rack).set(ln.all.bytes);
            reg.counter(base + n.grants, rack).set(ln.all.grants);
            reg.counter(base + n.delay, rack).set(ln.all.delaySum);
            for (const auto &[tenant, b] : ln.tenants)
                reg.counter(base + n.tenantBytes,
                            rack + ".t" + std::to_string(tenant))
                    .set(b.bytes);
        }
    }
}

} // namespace cloud
