/**
 * @file
 * Yahoo! Cloud Serving Benchmark client and the NoSQL database
 * service models it drives (paper §5.2).
 *
 * The DB is a multi-worker queueing station whose per-op service
 * time scales with the machine's live virtualization profile —
 * throughput/latency therefore shift automatically as BMcast moves
 * from the deployment phase to bare metal (the Fig. 5 step).
 *
 * memcached (read-heavy, in-memory): latency-bound at the paper's
 * load. Cassandra (write-heavy): CPU-saturated, plus commit-log
 * batches flushed through the real block driver — the source of
 * genuine disk interference with the background copy.
 */

#ifndef WORKLOADS_YCSB_HH
#define WORKLOADS_YCSB_HH

#include <deque>
#include <functional>
#include <memory>

#include "guest/block_driver.hh"
#include "hw/machine.hh"
#include "simcore/random.hh"
#include "simcore/sim_object.hh"
#include "workloads/cpu_model.hh"

namespace workloads {

/** Database service-model parameters. */
struct DbParams
{
    /** Service worker threads. */
    unsigned workers = 12;
    /** Mean per-op CPU service time at bare metal. */
    sim::Tick svcBase = 200 * sim::kUs;
    /** Client<->server network round trip. */
    sim::Tick netRtt = 120 * sim::kUs;
    CpuSensitivity sens;

    /** @name Disk behaviour (Cassandra-style commit log). */
    /// @{
    bool writesToDisk = false;
    /** Ops per commit-log flush batch. */
    unsigned opsPerFlush = 400;
    /** Bytes per flush. */
    sim::Bytes flushBytes = 512 * sim::kKiB;
    /** Start LBA of the log region. */
    sim::Lba logStart = 0;
    /** Log region length in sectors (wraps). */
    sim::Lba logSpan = (1 * sim::kGiB) / sim::kSectorSize;
    /// @}
};

/** Canonical memcached configuration (calibrated; EXPERIMENTS.md). */
DbParams memcachedParams();
/** Canonical Cassandra configuration. */
DbParams cassandraParams(sim::Lba logStart);

/** The database instance under test. */
class DbInstance : public sim::SimObject
{
  public:
    DbInstance(sim::EventQueue &eq, std::string name,
               hw::Machine &machine, guest::BlockDriver *blk,
               DbParams params);

    /** Serve one request; @p done runs when the reply reaches the
     *  client. */
    void request(bool isRead, std::function<void()> done);

    const DbParams &params() const { return params_; }

  private:
    struct Job
    {
        bool isRead;
        std::function<void()> done;
    };

    void dispatch();
    void serve(unsigned worker, Job job);
    void maybeFlush();

    hw::Machine &machine_;
    guest::BlockDriver *blk;
    DbParams params_;
    sim::Rng rng;

    std::vector<sim::Tick> workerFreeAt;
    std::deque<Job> queue;
    unsigned writesSinceFlush = 0;
    sim::Lba logCursor = 0;
    bool flushInFlight = false;

    std::uint64_t numOps = 0;
};

/** YCSB client parameters. */
struct YcsbParams
{
    unsigned threads = 10;
    double readFraction = 0.95;
    sim::Tick duration = 60 * sim::kSec;
    std::uint64_t seed = 11;
};

/** Closed-loop client. */
class YcsbClient : public sim::SimObject
{
  public:
    YcsbClient(sim::EventQueue &eq, std::string name, DbInstance &db,
               YcsbParams params);

    /** Run for the configured duration. */
    void run(std::function<void()> done);

    std::uint64_t opsCompleted() const { return numOps; }
    double meanLatencyUs() const;
    double meanThroughputOpsPerSec() const;

  private:
    void threadLoop(unsigned id);

    DbInstance &db;
    YcsbParams params;
    sim::Rng rng;
    sim::Tick startedAt = 0;
    sim::Tick endAt = 0;
    unsigned liveThreads = 0;
    std::uint64_t numOps = 0;
    sim::Tick latSum = 0;
    std::function<void()> doneCb;
};

} // namespace workloads

#endif // WORKLOADS_YCSB_HH
