/**
 * @file
 * A sharded stripe-repair world: erasure-coded chunks spread over R
 * racks, a rack failure, and a rack-0 repair dispatcher rebuilding
 * the lost members from coding plans while every live rack keeps
 * pushing serving traffic.
 *
 * The world exists to prove two things bench/abl_repair gates on:
 * that background repair paced by the Scavenger congestion lane
 * restores full stripe health without starving serving goodput, and
 * that the whole schedule is a pure function of (racks, seed, code)
 * — never of the shard count.
 *
 * Layout: stripe member i of chunk c lives in rack (c + i) % R, so a
 * rack failure clips at most one member from any stripe (the classic
 * fault-domain placement). Rack killAt's own queue marks it dead and
 * posts a death notice to rack 0 — the mailbox-delivered equivalent
 * of the health-probe edge store::RepairScheduler detects in-region.
 * The dispatcher asks the ec::Code for one repair plan per lost
 * member and executes it cross-rack on the region (bench/region.hh):
 * each fetch step books the *source* rack's scavenger lane, travels
 * as a split-charged transfer() to the destination rack, and is
 * acknowledged back to rack 0; the job completes after the plan's
 * combine cost and re-homes the member onto the destination rack.
 * Serving traffic rides the same uplinks through the serving lane,
 * so repair pressure shows up in serving completion times exactly as
 * far as the scavenger share lets it.
 *
 * fingerprint() folds the dispatcher's job stream, every rack's
 * serving counters, the topology byte meters and the congestion
 * telemetry into one order-sensitive hash.
 */

#ifndef BENCH_REPAIR_WORLD_HH
#define BENCH_REPAIR_WORLD_HH

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "bench/region.hh"
#include "simcore/logging.hh"
#include "simcore/types.hh"
#include "store/ec/code.hh"

namespace bench {

struct RepairWorldParams
{
    unsigned racks = 8;
    unsigned shards = 1;
    std::uint64_t seed = 1;

    /** Stripe algebra; the width may not exceed `racks`. */
    store::ec::CodeKind code = store::ec::CodeKind::Lrc;
    unsigned dataShards = 4;
    unsigned parityShards = 2; //!< globals (locals on top for LRC)
    unsigned lrcGroups = 2;

    unsigned chunks = 48;
    sim::Bytes chunkBytes = sim::kMiB;

    /** Aggregation fabric (shared; split-charged per rack). */
    double uplinkBps = 10e9;
    double oversubscription = 4.0;
    /** Cross-rack latency == the shard group's lookahead window. */
    sim::Tick linkLatency = sim::kMs;

    /** Serving lane + Scavenger lane shares of each rack's link. */
    double servingShare = 0.5;
    double scavengerShare = 0.1;

    /** Per-rack serving process: one burst every interval. */
    sim::Tick servingInterval = 2 * sim::kMs;
    sim::Bytes servingBurst = 256 * sim::kKiB;

    /** Rack to kill (-1 = healthy run) and when. */
    int killRack = -1;
    sim::Tick killAt = 100 * sim::kMs;

    sim::Tick runFor = 10 * sim::kSec;
};

/** Rack-0 dispatcher counters (see RepairWorld::stats()). */
struct RepairWorldStats
{
    std::uint64_t jobsQueued = 0;
    std::uint64_t jobsCompleted = 0;
    std::uint64_t replans = 0; //!< dead-source nacks re-planned
    sim::Bytes repairedBytes = 0;
    sim::Bytes dataRepairedBytes = 0;
    sim::Tick lastRepairDone = 0;
};

class RepairWorld
{
  public:
    explicit RepairWorld(RepairWorldParams p)
        : prm(p),
          region(p.racks, p.shards, p.linkLatency, p.seed),
          code_(store::ec::makeCode(
              p.code, store::ec::CodeParams{p.dataShards,
                                            p.parityShards,
                                            p.lrcGroups})),
          racks_(p.racks)
    {
        sim::fatalIf(code_->width() > prm.racks,
                     "repair world: stripe wider than the rack row");
        chunkSectors_ =
            static_cast<std::uint32_t>(prm.chunkBytes /
                                       sim::kSectorSize);

        cloud::CongestionParams cp;
        cp.enabled = true;
        cp.linkShare = 1.0 - prm.servingShare - prm.scavengerShare;
        cp.servingShare = prm.servingShare;
        cp.scavengerShare = prm.scavengerShare;
        region.buildFabric(prm.uplinkBps, prm.oversubscription, cp);
        congestion_ = region.congestion();

        memberRack_.assign(prm.chunks,
                           std::vector<unsigned>(code_->width(), 0));
        for (unsigned c = 0; c < prm.chunks; ++c)
            for (unsigned i = 0; i < code_->width(); ++i)
                memberRack_[c][i] = (c + i) % prm.racks;
        liveRack_.assign(prm.racks, true);

        for (unsigned r = 0; r < prm.racks; ++r)
            armServing(r);

        if (prm.killRack >= 0) {
            const auto kr = static_cast<unsigned>(prm.killRack);
            sim::fatalIf(kr >= prm.racks,
                         "repair world: kill rack out of range");
            region.queue(kr).scheduleAt(prm.killAt, [this, kr]() {
                racks_[kr].dead = true;
                // The death notice: what the in-region health probe
                // would deliver, one mailbox hop later.
                region.post(kr, 0, noticeDelay(),
                            [this, kr]() { noteRackDead(kr); },
                            Region::SameRack::Mailbox);
            });
        }
    }

    /** Drive to runFor (window-aligned). */
    void run() { region.runTo(prm.runFor); }

    /** Every stripe member sits in a live rack. */
    bool
    allHealthy() const
    {
        for (const auto &stripe : memberRack_)
            for (unsigned r : stripe)
                if (!liveRack_[r])
                    return false;
        return true;
    }

    const RepairWorldStats &stats() const { return stats_; }
    /** Serving bytes completed by racks other than @p excludeRack
     *  (pass the killed rack to measure repair interference on the
     *  survivors rather than the victim's own silence). */
    sim::Bytes
    servedBytes(int excludeRack = -1) const
    {
        sim::Bytes b = 0;
        for (unsigned r = 0; r < prm.racks; ++r)
            if (static_cast<int>(r) != excludeRack)
                b += racks_[r].servedBytes;
        return b;
    }

    /** Order-sensitive digest of every simulated outcome. */
    std::uint64_t
    fingerprint() const
    {
        std::uint64_t h = sim::kFingerprintSeed;
        h = sim::fingerprintMix(h, stats_.jobsQueued);
        h = sim::fingerprintMix(h, stats_.jobsCompleted);
        h = sim::fingerprintMix(h, stats_.replans);
        h = sim::fingerprintMix(h, stats_.repairedBytes);
        h = sim::fingerprintMix(h, stats_.dataRepairedBytes);
        h = sim::fingerprintMix(h, stats_.lastRepairDone);
        const net::Topology &topo = region.topology();
        for (unsigned r = 0; r < prm.racks; ++r) {
            const Rack &rk = racks_[r];
            h = sim::fingerprintMix(h, rk.servedBursts);
            h = sim::fingerprintMix(h, rk.servedBytes);
            h = sim::fingerprintMix(h, rk.dead);
            h = sim::fingerprintMix(h, topo.uplinkBytes(r));
            h = sim::fingerprintMix(h, topo.downlinkBytes(r));
            h = sim::fingerprintMix(
                h, congestion_->grantedBytes(r, cloud::Traffic::Serving));
            h = sim::fingerprintMix(
                h,
                congestion_->grantedBytes(r, cloud::Traffic::Scavenger));
            h = sim::fingerprintMix(h,
                                    congestion_->scavengerDelay(r));
        }
        for (const auto &stripe : memberRack_)
            for (unsigned r : stripe)
                h = sim::fingerprintMix(h, r);
        return h;
    }

    const RepairWorldParams prm;
    Region region;

  private:
    struct Rack
    {
        bool dead = false;
        std::uint64_t servedBursts = 0;
        sim::Bytes servedBytes = 0;
    };

    /** One in-flight rebuild of stripe slot (chunk, member). */
    struct Job
    {
        unsigned chunk = 0;
        unsigned member = 0;
        unsigned destRack = 0;
        unsigned stepsLeft = 0;
        sim::Tick combine = 0;
        bool dead = false; //!< nacked; superseded by a re-plan
    };

    /** Dispatcher orders and notices: one window of dispatch plus
     *  one link latency, always through the mailbox. */
    sim::Tick noticeDelay() const { return 2 * region.window(); }

    static net::MacAddr
    memberMac(unsigned chunk, unsigned member)
    {
        return 0xEE0000000000ULL + chunk * 64ULL + member;
    }

    std::vector<net::MacAddr>
    stripeMacs(unsigned chunk) const
    {
        std::vector<net::MacAddr> s;
        s.reserve(code_->width());
        for (unsigned i = 0; i < code_->width(); ++i)
            s.push_back(memberMac(chunk, i));
        return s;
    }

    /** Member liveness as the dispatcher knows it: the rack holding
     *  the member answered its last probe. */
    bool
    memberLive(net::MacAddr mac) const
    {
        const auto idx =
            static_cast<unsigned>(mac - 0xEE0000000000ULL);
        return liveRack_[memberRack_[idx / 64][idx % 64]];
    }

    /** Dispatcher (rack 0): a rack died — queue one rebuild per
     *  stripe member it held. */
    void
    noteRackDead(unsigned rack)
    {
        liveRack_[rack] = false;
        for (unsigned c = 0; c < prm.chunks; ++c) {
            for (unsigned i = 0; i < code_->width(); ++i)
                if (memberRack_[c][i] == rack)
                    startJob(c, i);
        }
    }

    /** Least-loaded live rack for the rebuilt member (deterministic:
     *  lowest index wins ties). */
    unsigned
    pickDestRack(unsigned chunk) const
    {
        std::vector<unsigned> load(prm.racks, 0);
        for (unsigned i = 0; i < code_->width(); ++i)
            ++load[memberRack_[chunk][i]];
        unsigned best = prm.racks;
        for (unsigned r = 0; r < prm.racks; ++r) {
            if (!liveRack_[r])
                continue;
            if (best == prm.racks || load[r] < load[best])
                best = r;
        }
        sim::panicIfNot(best < prm.racks, "no live rack to repair to");
        return best;
    }

    void
    startJob(unsigned chunk, unsigned member)
    {
        auto plan = code_->repairPlan(
            stripeMacs(chunk), member,
            [this](net::MacAddr m) { return memberLive(m); },
            chunkSectors_);
        if (!plan)
            return; // unreconstructable; surfaces as !allHealthy()
        ++stats_.jobsQueued;
        auto job = std::make_shared<Job>();
        job->chunk = chunk;
        job->member = member;
        job->destRack = pickDestRack(chunk);
        job->stepsLeft = static_cast<unsigned>(plan->fetches());
        job->combine = plan->combineCost();
        for (const store::ec::PlanStep &step : plan->steps) {
            if (step.op != store::ec::StepOp::Fetch)
                continue;
            dispatchFetch(job, memberRack_[chunk][step.member],
                          static_cast<sim::Bytes>(step.sectors) *
                              sim::kSectorSize);
        }
    }

    /** One plan fetch: rack 0 -> source rack (scavenger admit) ->
     *  transfer to the dest rack -> ack back to rack 0. */
    void
    dispatchFetch(std::shared_ptr<Job> job, unsigned srcRack,
                  sim::Bytes bytes)
    {
        region.post(
            0, srcRack, noticeDelay(),
            [this, job, srcRack, bytes]() {
                sim::EventQueue &sq = region.queue(srcRack);
                if (racks_[srcRack].dead) {
                    // Source died under the plan: nack so the
                    // dispatcher re-plans from the survivors.
                    region.post(srcRack, 0, noticeDelay(),
                                [this, job]() { nackJob(job); },
                                Region::SameRack::Mailbox);
                    return;
                }
                sim::Tick at = congestion_->admit(
                    srcRack, 0, bytes, sq.now(),
                    cloud::Traffic::Scavenger);
                sq.scheduleAt(std::max(at, sq.now()), [this, job,
                                                       srcRack,
                                                       bytes]() {
                    const unsigned dst = job->destRack;
                    region.transfer(
                        srcRack, dst, bytes,
                        region.queue(srcRack).now(),
                        [this, job, dst, bytes](sim::Tick clear) {
                            region.group.postToRack(
                                dst, 0, clear + region.window(),
                                [this, job, bytes]() {
                                    stepDone(job, bytes);
                                });
                        });
                });
            },
            Region::SameRack::Mailbox);
    }

    /** Dispatcher: one fetch landed; the last one completes the job
     *  after the plan's combine cost. */
    void
    stepDone(std::shared_ptr<Job> job, sim::Bytes bytes)
    {
        if (job->dead)
            return;
        jobBytes_[job.get()] += bytes;
        if (--job->stepsLeft > 0)
            return;
        region.queue(0).schedule(job->combine, [this, job]() {
            if (job->dead)
                return;
            memberRack_[job->chunk][job->member] = job->destRack;
            ++stats_.jobsCompleted;
            sim::Bytes total = jobBytes_[job.get()];
            jobBytes_.erase(job.get());
            stats_.repairedBytes += total;
            if (job->member < code_->dataShards())
                stats_.dataRepairedBytes += total;
            stats_.lastRepairDone = region.queue(0).now();
        });
    }

    /** Dispatcher: a source died mid-plan — abandon this attempt and
     *  start over against the survivors. */
    void
    nackJob(std::shared_ptr<Job> job)
    {
        if (job->dead)
            return;
        job->dead = true;
        jobBytes_.erase(job.get());
        ++stats_.replans;
        startJob(job->chunk, job->member);
    }

    /** The serving process: a fixed offered load per live rack,
     *  admitted through the serving lane and charged on the same
     *  uplink repair traffic crosses. */
    void
    armServing(unsigned r)
    {
        region.queue(r).schedule(prm.servingInterval, [this, r]() {
            if (racks_[r].dead)
                return;
            sim::EventQueue &q = region.queue(r);
            sim::Tick at = congestion_->admit(r, 0, prm.servingBurst,
                                              q.now(),
                                              cloud::Traffic::Serving);
            q.scheduleAt(std::max(at, q.now()), [this, r]() {
                sim::EventQueue &q2 = region.queue(r);
                sim::Tick clear = region.topology().chargeUplink(
                    r, prm.servingBurst, q2.now());
                q2.scheduleAt(std::max(clear, q2.now()), [this, r]() {
                    ++racks_[r].servedBursts;
                    racks_[r].servedBytes += prm.servingBurst;
                });
            });
            armServing(r);
        });
    }

    std::shared_ptr<const store::ec::Code> code_;
    std::uint32_t chunkSectors_ = 0;
    cloud::CongestionController *congestion_ = nullptr;
    std::vector<Rack> racks_;

    /** @name Dispatcher state — rack 0's shard only. */
    /// @{
    std::vector<std::vector<unsigned>> memberRack_;
    std::vector<bool> liveRack_;
    std::map<const Job *, sim::Bytes> jobBytes_;
    RepairWorldStats stats_;
    /// @}
};

} // namespace bench

#endif // BENCH_REPAIR_WORLD_HH
