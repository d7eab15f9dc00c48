#include "hw/ib_hca.hh"

#include <algorithm>

#include "simcore/logging.hh"

namespace hw {

IbHca::IbHca(sim::EventQueue &eq, std::string name, IbFabric &fabric_,
             unsigned node_id, IbParams params,
             std::function<const VirtProfile &()> profile)
    : sim::SimObject(eq, std::move(name)),
      fabric(fabric_), id(node_id), params_(params),
      profileFn(std::move(profile))
{
    fabric.attach(*this);
}

void
IbHca::rdma(unsigned dst_node, sim::Bytes bytes, Callback done)
{
    IbHca *dst = fabric.find(dst_node);
    sim::panicIfNot(dst != nullptr, "RDMA to unknown node ", dst_node);

    // Serialization on this HCA's egress link; back-to-back posts
    // pipeline, which is what keeps saturated throughput immune to
    // per-op latency overheads (Fig. 12).
    auto transfer = static_cast<sim::Tick>(
        static_cast<double>(bytes) / params_.bytesPerSec *
        static_cast<double>(sim::kSec));
    sim::Tick start = std::max(now(), egressFreeAt);
    sim::Tick wire_done = start + transfer;
    egressFreeAt = wire_done;

    // Per-operation latency: fixed overheads at both ends, inflated
    // by the virtualization profiles of both machines (IOMMU + nested
    // paging on the DMA path; paper §5.5.3).
    double src_ovh = profileFn().rdmaLatencyOverhead;
    double dst_ovh = dst->profileFn().rdmaLatencyOverhead;
    auto fixed = static_cast<sim::Tick>(
        static_cast<double>(params_.postOverhead) * (1.0 + src_ovh) +
        static_cast<double>(params_.completionOverhead) *
            (1.0 + dst_ovh));
    auto stretched_transfer = static_cast<sim::Tick>(
        static_cast<double>(transfer) *
        (1.0 + (src_ovh + dst_ovh) * 0.5));
    sim::Tick complete =
        start + stretched_transfer + fabric.switchLatency() + fixed;
    // Completion cannot precede the wire being free for pipelining
    // accounting, but latency is measured to `complete`.
    sim::Tick fire = std::max(complete, wire_done);

    ++numOps;
    schedule(fire - now(), std::move(done));
}

void
IbFabric::attach(IbHca &hca)
{
    sim::fatalIf(nodes.count(hca.nodeId()) > 0,
                 "duplicate IB node id ", hca.nodeId());
    nodes[hca.nodeId()] = &hca;
}

IbHca *
IbFabric::find(unsigned node_id)
{
    auto it = nodes.find(node_id);
    return it == nodes.end() ? nullptr : it->second;
}

} // namespace hw
