/**
 * @file
 * Bounded admission queue: strict priority across QoS classes, FIFO
 * within a class, with region-wide and per-tenant capacity caps that
 * turn overload into typed backpressure instead of unbounded growth.
 */

#ifndef CLOUD_ADMISSION_QUEUE_HH
#define CLOUD_ADMISSION_QUEUE_HH

#include <array>
#include <cstddef>
#include <deque>
#include <map>

#include "cloud/lease.hh"

namespace cloud {

class AdmissionQueue
{
  public:
    struct Params
    {
        /** Region-wide queued-lease cap (QueueFull beyond). */
        std::size_t capacity = 4096;
        /** Per-tenant queued-lease cap; 0 = no per-tenant cap. */
        std::size_t perTenantCap = 0;
    };

    explicit AdmissionQueue(Params p) : prm_(p) {}

    /** Admission check + enqueue. Returns None on success or the
     *  typed rejection (lease untouched on rejection). */
    RejectReason
    push(Lease &l)
    {
        if (depth_ >= prm_.capacity)
            return RejectReason::QueueFull;
        if (prm_.perTenantCap > 0 &&
            perTenant_[l.tenant()] >= prm_.perTenantCap)
            return RejectReason::TenantQueueCap;
        q_[static_cast<unsigned>(l.qos())].push_back(&l);
        ++perTenant_[l.tenant()];
        ++depth_;
        if (depth_ > peak_)
            peak_ = depth_;
        return RejectReason::None;
    }

    /** Highest-priority oldest queued lease; nullptr when empty. */
    Lease *
    head() const
    {
        for (const auto &dq : q_)
            if (!dq.empty())
                return dq.front();
        return nullptr;
    }

    /** Remove @p l (the head after placement, or any queued lease on
     *  cancel/fail-fast backout). Returns false if not queued. */
    bool
    remove(Lease &l)
    {
        auto &dq = q_[static_cast<unsigned>(l.qos())];
        for (auto it = dq.begin(); it != dq.end(); ++it) {
            if (*it == &l) {
                dq.erase(it);
                --perTenant_[l.tenant()];
                --depth_;
                return true;
            }
        }
        return false;
    }

    std::size_t depth() const { return depth_; }
    std::size_t
    depth(QosClass c) const
    {
        return q_[static_cast<unsigned>(c)].size();
    }
    /** High-water mark of the queue depth. */
    std::size_t peakDepth() const { return peak_; }

  private:
    Params prm_;
    std::array<std::deque<Lease *>, kNumQosClasses> q_;
    std::map<TenantId, std::size_t> perTenant_;
    std::size_t depth_ = 0;
    std::size_t peak_ = 0;
};

} // namespace cloud

#endif // CLOUD_ADMISSION_QUEUE_HH
