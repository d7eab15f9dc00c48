/**
 * @file
 * Background stripe repair: detect dead members, rebuild them from
 * coding plans, book every byte as Scavenger-class traffic.
 *
 * The scheduler closes the loop the store tier was missing: a dead
 * seed used to degrade every read of its stripes forever.  Now a
 * periodic liveness probe (the PR-7 health-probe idiom, pointed at
 * the seed pool) watches for up->down transitions, enumerates the
 * chunks whose stripes lost the member, and queues one rebuild job
 * per (chunk, stripe slot).  A job asks the placement's code for a
 * repair plan — flat RS pays k full shards, LRC one local group,
 * Hitchhiker k half-shards — books the plan's fetch bytes through
 * the rate gate (cloud::CongestionController's scavenger lane, so
 * healing never starves serving or deploy lanes), models the
 * transfer + combine latency, and re-homes the stripe slot onto a
 * live spare.  Failures (fault sites store.repair_source_timeout /
 * store.repair_dest_crash) retry on a *fresh* plan after a back-off;
 * repairedBytes counts only the plan that actually completed, so a
 * retried job is never double-counted.
 *
 * transformTo() is the elastic-transformation entry point: swap the
 * placement's code, carry global parities over as pure bookkeeping,
 * and queue build jobs (the target code's repair plans) only for the
 * genuinely new parity members — no full-image re-read.
 */

#ifndef STORE_REPAIR_SCHEDULER_HH
#define STORE_REPAIR_SCHEDULER_HH

#include <deque>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <utility>

#include "obs/obs.hh"
#include "simcore/fault_injector.hh"
#include "simcore/sim_object.hh"
#include "store/fabric.hh"

namespace store {

/** Counters the scheduler exposes. */
struct RepairStats
{
    std::uint64_t deadMembersSeen = 0; //!< up->down probe transitions
    std::uint64_t jobsCompleted = 0;
    std::uint64_t retries = 0;
    std::uint64_t sourceTimeouts = 0; //!< injected fetch-step losses
    std::uint64_t destCrashes = 0;    //!< injected landing failures
    std::uint64_t gateWaits = 0;      //!< jobs the gate pushed out
    /** Fetch bytes of completed repair plans (counted once per job,
     *  on the attempt that succeeded). */
    sim::Bytes repairedBytes = 0;
    /** Subset of repairedBytes where the lost member was a data
     *  shard (the classic repair-bandwidth metric). */
    sim::Bytes dataRepairedBytes = 0;
    /** All repair fetch traffic, including wasted failed attempts. */
    sim::Bytes wireBytes = 0;
    /** Elastic transformation: stripes re-planned, build bytes. */
    std::uint64_t transforms = 0;
    sim::Bytes transformBytes = 0;
};

class RepairScheduler : public sim::SimObject
{
  public:
    RepairScheduler(sim::EventQueue &eq, std::string name,
                    StoreFabric &fabric, RepairParams params);

    void setRateGate(sim::RateGate g) { gate_ = std::move(g); }
    void setFaultInjector(sim::FaultInjector *fi) { faults_ = fi; }

    /** Arm the periodic liveness probe. */
    void start();
    bool started() const { return started_; }
    /** Stop probing and drop queued work (tear-down). */
    void shutdown();

    /** Every catalog chunk's stripe is fully live. */
    bool allHealthy() const;
    /** No rebuild queued or in flight. */
    bool idle() const { return queue_.empty() && running_ == 0; }

    /**
     * Elastic transformation: re-plan every stripe from the current
     * code to @p kind (same data shards; parity counts from the
     * fabric's StoreParams).  Data members stay in place, carried
     * global parities re-home for free, and only the new parity
     * members are built — in the background, through the same gate
     * as repairs.
     */
    void transformTo(ec::CodeKind kind);

    const RepairParams &params() const { return prm_; }
    const RepairStats &stats() const { return stats_; }

  private:
    struct Job
    {
        Digest d = 0;
        std::uint32_t chunkSectors = 0;
        unsigned member = 0; //!< stripe slot to (re)build
        bool build = false;  //!< transform build, not a repair
        unsigned attempts = 0;
    };

    void probe();
    void enqueueRepairsFor(net::MacAddr dead);
    void pump();
    void runJob(Job job);
    void executeJob(const Job &job, const ec::Plan &plan,
                    net::MacAddr dest, sim::Tick issued);
    void retryJob(Job job, sim::Tick delay);
    void finishJob(const Job &job, sim::Bytes bytes, net::MacAddr dest);
    net::MacAddr pickSpare(const std::vector<net::MacAddr> &stripe);
    /** Distinct digests currently in the catalog, with sector
     *  counts (deterministic order). */
    std::map<Digest, std::uint32_t> catalogDigests() const;

    StoreFabric &fabric_;
    RepairParams prm_;
    sim::RateGate gate_;
    sim::FaultInjector *faults_ = nullptr;
    bool started_ = false;
    bool halted_ = false;

    /** Last probed liveness per pool server (assumed up at start). */
    std::map<net::MacAddr, bool> lastUp_;
    std::deque<Job> queue_;
    /** (digest, member) slots queued or running — dedup. */
    std::set<std::pair<Digest, unsigned>> pending_;
    unsigned running_ = 0;

    RepairStats stats_;
    obs::Track obsTrack_;
};

} // namespace store

#endif // STORE_REPAIR_SCHEDULER_HH
