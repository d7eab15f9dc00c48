#include "workloads/ycsb.hh"

#include <algorithm>

#include "simcore/logging.hh"

namespace workloads {

DbParams
memcachedParams()
{
    DbParams p;
    p.workers = 12;
    // Calibrated to YCSB 95/5 on the paper's testbed: bare-metal
    // latency 281 us at ~36.4 KT/s with 10 client threads.
    p.svcBase = 161 * sim::kUs;
    p.netRtt = 120 * sim::kUs;
    p.sens.tlbShare = 0.004;   // TLB misses grow 5x under deploy
    p.sens.cacheShare = 0.60;  // in-memory hashing is cache-hungry
    p.sens.stealShare = 0.35;  // latency-bound; idle cores absorb
    p.sens.locksPerOp = 2.0;
    p.writesToDisk = false;
    return p;
}

DbParams
cassandraParams(sim::Lba log_start)
{
    DbParams p;
    p.workers = 12;
    // Bare metal: ~60 KT/s saturated across 12 workers, 2.44 ms
    // latency with 147 client threads.
    p.svcBase = 200 * sim::kUs;
    p.netRtt = 120 * sim::kUs;
    p.sens.tlbShare = 0.0035;
    p.sens.cacheShare = 0.25;
    p.sens.stealShare = 1.0; // CPU-saturated
    p.sens.locksPerOp = 5.0;
    p.writesToDisk = true;
    p.logStart = log_start;
    return p;
}

DbInstance::DbInstance(sim::EventQueue &eq, std::string name,
                       hw::Machine &machine, guest::BlockDriver *blk_,
                       DbParams params)
    : sim::SimObject(eq, std::move(name)),
      machine_(machine), blk(blk_), params_(params),
      rng(sim::Rng::seedFrom(this->name(), 5)),
      workerFreeAt(std::max(1u, params.workers), 0)
{
    sim::fatalIf(params_.writesToDisk && blk == nullptr,
                 "disk-backed DB needs a block driver");
}

void
DbInstance::request(bool is_read, std::function<void()> done)
{
    queue.push_back(Job{is_read, std::move(done)});
    dispatch();
}

void
DbInstance::dispatch()
{
    while (!queue.empty()) {
        unsigned best = 0;
        for (unsigned w = 1; w < workerFreeAt.size(); ++w)
            if (workerFreeAt[w] < workerFreeAt[best])
                best = w;
        Job job = std::move(queue.front());
        queue.pop_front();
        serve(best, std::move(job));
    }
}

void
DbInstance::serve(unsigned worker, Job job)
{
    const hw::VirtProfile &p = machine_.profile();
    double slow = cpuSlowdown(p, params_.sens);
    double mean = static_cast<double>(params_.svcBase) * slow +
                  lockHolderPenaltyNs(p, params_.sens);
    auto svc = static_cast<sim::Tick>(
        rng.exponential(mean) * 0.5 + mean * 0.5); // low variance

    sim::Tick start = std::max(now(), workerFreeAt[worker]);
    sim::Tick fin = start + svc;
    workerFreeAt[worker] = fin;
    ++numOps;

    if (!job.isRead && params_.writesToDisk) {
        ++writesSinceFlush;
        maybeFlush();
    }

    // Reply reaches the client half an RTT... the full RTT is
    // charged at the client side as one term; keep it here so
    // latency is measured end to end.
    eventQueue().scheduleAt(fin + params_.netRtt,
                            std::move(job.done));
}

void
DbInstance::maybeFlush()
{
    if (writesSinceFlush < params_.opsPerFlush || flushInFlight)
        return;
    writesSinceFlush = 0;
    flushInFlight = true;

    auto sectors = static_cast<std::uint32_t>(params_.flushBytes /
                                              sim::kSectorSize);
    sim::Lba lba = params_.logStart + logCursor;
    logCursor = (logCursor + sectors) % params_.logSpan;
    std::uint64_t content = 0xDB00000000000000ULL | (numOps << 8) | 1;
    blk->write(lba, sectors, content,
               [this]() { flushInFlight = false; });
}

YcsbClient::YcsbClient(sim::EventQueue &eq, std::string name,
                       DbInstance &db_, YcsbParams params_)
    : sim::SimObject(eq, std::move(name)),
      db(db_), params(params_),
      rng(sim::Rng::seedFrom(this->name(), params_.seed))
{
}

void
YcsbClient::run(std::function<void()> done)
{
    doneCb = std::move(done);
    startedAt = now();
    endAt = now() + params.duration;
    liveThreads = params.threads;
    for (unsigned t = 0; t < params.threads; ++t)
        threadLoop(t);
}

void
YcsbClient::threadLoop(unsigned id)
{
    if (now() >= endAt) {
        if (--liveThreads == 0 && doneCb)
            doneCb();
        return;
    }
    bool is_read = rng.chance(params.readFraction);
    sim::Tick issued = now();
    db.request(is_read, [this, id, issued]() {
        sim::Tick l = now() - issued;
        ++numOps;
        latSum += l;
        threadLoop(id);
    });
}

double
YcsbClient::meanLatencyUs() const
{
    return numOps
               ? sim::toMicros(latSum) / static_cast<double>(numOps)
               : 0.0;
}

double
YcsbClient::meanThroughputOpsPerSec() const
{
    sim::Tick span = endAt > startedAt ? endAt - startedAt : 1;
    return static_cast<double>(numOps) / sim::toSeconds(span);
}

} // namespace workloads
