/**
 * @file
 * InfiniBand HCA and fabric model (Mellanox MT26428 4X QDR class).
 *
 * RDMA operations are posted to the HCA; throughput is limited by the
 * HCA's egress serialization (command queuing pipelines transfers, so
 * saturation hides per-op latency overheads — Fig. 12), while per-op
 * latency carries the virtualization overhead of the machine's active
 * profile (IOMMU + nested paging — Fig. 13).
 */

#ifndef HW_IB_HCA_HH
#define HW_IB_HCA_HH

#include <functional>
#include <map>
#include <string>

#include "hw/virt_profile.hh"
#include "simcore/sim_object.hh"

namespace hw {

class IbFabric;

/** Link/latency parameters of a 4X QDR part. */
struct IbParams
{
    /** Effective data bandwidth (4X QDR: 32 Gb/s signalling, ~3.2
     *  GB/s payload after 8b/10b). */
    double bytesPerSec = 3.2e9;
    /** Fixed per-operation cost at the posting side. */
    sim::Tick postOverhead = 600; // ns
    /** Fixed per-operation cost at the completing side. */
    sim::Tick completionOverhead = 500; // ns
};

/** One host channel adapter. */
class IbHca : public sim::SimObject
{
  public:
    using Callback = std::function<void()>;

    IbHca(sim::EventQueue &eq, std::string name, IbFabric &fabric,
          unsigned nodeId, IbParams params,
          std::function<const VirtProfile &()> profile);

    /**
     * Post an RDMA write/read of @p bytes to @p dstNode; @p done runs
     * at the initiator when the operation completes (RDMA is one-sided
     * and completion is polled from the CQ).
     */
    void rdma(unsigned dstNode, sim::Bytes bytes, Callback done);

    unsigned nodeId() const { return id; }
    const IbParams &params() const { return params_; }

    std::uint64_t opsCompleted() const { return numOps; }

  private:
    friend class IbFabric;

    IbFabric &fabric;
    unsigned id;
    IbParams params_;
    std::function<const VirtProfile &()> profileFn;

    sim::Tick egressFreeAt = 0;
    std::uint64_t numOps = 0;
};

/** The switch connecting HCAs. */
class IbFabric : public sim::SimObject
{
  public:
    IbFabric(sim::EventQueue &eq, std::string name,
             sim::Tick switchLatency = 150)
        : sim::SimObject(eq, std::move(name)), switchLat(switchLatency)
    {
    }

    /** Register an HCA under its node id. */
    void attach(IbHca &hca);

    IbHca *find(unsigned nodeId);
    sim::Tick switchLatency() const { return switchLat; }

  private:
    sim::Tick switchLat;
    std::map<unsigned, IbHca *> nodes;
};

} // namespace hw

#endif // HW_IB_HCA_HH
