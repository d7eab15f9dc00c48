#include "store/repair_scheduler.hh"

#include <algorithm>

#include "simcore/logging.hh"
#include "store/ec/transform.hh"

namespace store {

RepairScheduler::RepairScheduler(sim::EventQueue &eq, std::string name,
                                 StoreFabric &fabric,
                                 RepairParams params)
    : sim::SimObject(eq, std::move(name)), fabric_(fabric),
      prm_(params), obsTrack_(this->name())
{
    sim::fatalIf(prm_.probePeriod == 0,
                 "repair scheduler needs a probe period");
    sim::fatalIf(prm_.maxConcurrent == 0,
                 "repair scheduler needs >= 1 job slot");
    sim::fatalIf(prm_.wireBps <= 0.0,
                 "repair scheduler needs a wire rate");
}

void
RepairScheduler::start()
{
    if (started_)
        return;
    started_ = true;
    // Pool members are presumed live at arm time; the first probe
    // after a crash sees the up->down edge.
    for (net::MacAddr mac : fabric_.placement().servers())
        lastUp_.emplace(mac, true);
    schedule(prm_.probePeriod, [this] { probe(); });
}

void
RepairScheduler::shutdown()
{
    halted_ = true;
    started_ = false;
    queue_.clear();
    pending_.clear();
}

void
RepairScheduler::probe()
{
    if (halted_ || !started_)
        return;
    for (net::MacAddr mac : fabric_.placement().servers()) {
        bool up = fabric_.sourceUp(mac);
        bool &was = lastUp_[mac];
        if (was && !up) {
            ++stats_.deadMembersSeen;
            if (obs::armed()) {
                obs::Tracer &t = obs::tracer();
                t.milestone(obsTrack_.id(t), "repair.member_dead",
                            now(),
                            static_cast<double>(
                                stats_.deadMembersSeen));
            }
            was = up;
            enqueueRepairsFor(mac);
            continue;
        }
        was = up;
    }
    schedule(prm_.probePeriod, [this] { probe(); });
}

std::map<Digest, std::uint32_t>
RepairScheduler::catalogDigests() const
{
    std::map<Digest, std::uint32_t> digests;
    for (const auto &[name, desc] : fabric_.catalog().images()) {
        for (Digest d : desc.chunks) {
            const ChunkPayload *payload = fabric_.chunkStore().find(d);
            sim::panicIfNot(payload != nullptr,
                            "catalog names an unknown chunk");
            digests.emplace(d, payload->sectors);
        }
    }
    return digests;
}

void
RepairScheduler::enqueueRepairsFor(net::MacAddr dead)
{
    const Placement &placement = fabric_.placement();
    for (const auto &[d, sectors] : catalogDigests()) {
        std::vector<net::MacAddr> stripe = placement.stripeFor(d);
        for (unsigned i = 0; i < stripe.size(); ++i) {
            if (stripe[i] != dead)
                continue;
            if (pending_.count({d, i}))
                continue;
            queue_.push_back(Job{d, sectors, i, false, 0});
            pending_.insert({d, i});
        }
    }
    pump();
}

void
RepairScheduler::pump()
{
    while (!halted_ && running_ < prm_.maxConcurrent &&
           !queue_.empty()) {
        Job job = queue_.front();
        queue_.pop_front();
        ++running_;
        runJob(job);
    }
}

net::MacAddr
RepairScheduler::pickSpare(const std::vector<net::MacAddr> &stripe)
{
    // Deterministic: the first live pool server not already a stripe
    // member.
    for (net::MacAddr mac : fabric_.placement().servers()) {
        if (std::find(stripe.begin(), stripe.end(), mac) !=
            stripe.end())
            continue;
        if (fabric_.sourceUp(mac))
            return mac;
    }
    return 0;
}

void
RepairScheduler::retryJob(Job job, sim::Tick delay)
{
    ++stats_.retries;
    ++job.attempts;
    schedule(delay, [this, job] { runJob(job); });
}

void
RepairScheduler::runJob(Job job)
{
    auto release = [this, &job] {
        pending_.erase({job.d, job.member});
        --running_;
        pump();
    };
    if (halted_) {
        pending_.erase({job.d, job.member});
        --running_;
        return;
    }
    Placement &placement = fabric_.placement();
    std::vector<net::MacAddr> stripe = placement.stripeFor(job.d);
    if (job.member >= stripe.size()) {
        // The code changed under the job (transform shrank the
        // stripe); nothing left to build.
        release();
        return;
    }
    if (!job.build && fabric_.sourceUp(stripe[job.member])) {
        // The member came back (restart or an earlier rebuild);
        // nothing to repair.
        release();
        return;
    }
    net::MacAddr dest =
        job.build ? stripe[job.member] : pickSpare(stripe);
    if (dest == 0 || !fabric_.sourceUp(dest)) {
        // No live destination right now; keep the job slot and
        // re-plan after a back-off.
        retryJob(job, prm_.retryDelay);
        return;
    }
    // A *fresh* plan on every attempt: liveness may have changed and
    // a retried job must never resume a half-dead plan.
    auto plan = placement.repairPlanFor(
        job.d, job.member,
        [this](net::MacAddr mac) { return fabric_.sourceUp(mac); },
        job.chunkSectors);
    if (!plan) {
        retryJob(job, prm_.retryDelay);
        return;
    }
    sim::Bytes bytes = plan->fetchBytes();
    sim::Tick issue = gate_ ? gate_(bytes, now()) : now();
    if (issue > now())
        ++stats_.gateWaits;
    ec::Plan p = std::move(*plan);
    schedule(issue - now(), [this, job, p, dest, issue] {
        executeJob(job, p, dest, issue);
    });
}

void
RepairScheduler::executeJob(const Job &job, const ec::Plan &plan,
                            net::MacAddr dest, sim::Tick issued)
{
    (void)issued;
    if (halted_) {
        pending_.erase({job.d, job.member});
        --running_;
        return;
    }
    sim::Bytes bytes = plan.fetchBytes();
    // Deterministic per-step fault check, in plan order.  A timed-out
    // step aborts the whole attempt (a decoder needs every
    // contribution); the bytes were already booked and are wasted.
    for (const ec::PlanStep &step : plan.steps) {
        if (step.op != ec::StepOp::Fetch)
            continue;
        if (faults_ &&
            faults_->shouldFire(sim::FaultSite::RepairSourceTimeout,
                                step.member)) {
            ++stats_.sourceTimeouts;
            stats_.wireBytes += bytes;
            retryJob(job, prm_.retryDelay);
            return;
        }
    }
    stats_.wireBytes += bytes;
    double bits = static_cast<double>(bytes) * 8.0;
    auto xfer = static_cast<sim::Tick>(
        bits / prm_.wireBps * static_cast<double>(sim::kSec));
    schedule(xfer + plan.combineCost(), [this, job, bytes, dest] {
        if (halted_) {
            pending_.erase({job.d, job.member});
            --running_;
            return;
        }
        if (faults_ &&
            faults_->shouldFire(sim::FaultSite::RepairDestCrash,
                                job.member)) {
            // The landing failed; the rebuilt member is gone.  Retry
            // from scratch (possibly onto a different spare) — the
            // repaired-bytes counter only moves on success, so a
            // crashed landing is never double-counted.
            ++stats_.destCrashes;
            retryJob(job, prm_.retryDelay);
            return;
        }
        finishJob(job, bytes, dest);
    });
}

void
RepairScheduler::finishJob(const Job &job, sim::Bytes bytes,
                           net::MacAddr dest)
{
    Placement &placement = fabric_.placement();
    if (!job.build)
        placement.rehome(job.d, job.member, dest);
    if (job.build) {
        stats_.transformBytes += bytes;
    } else {
        stats_.repairedBytes += bytes;
        if (job.member < placement.dataShards())
            stats_.dataRepairedBytes += bytes;
    }
    if (stats_.jobsCompleted++ == 0 && obs::armed()) {
        obs::Tracer &t = obs::tracer();
        t.milestone(obsTrack_.id(t), "repair.first_rebuild", now(),
                    1.0);
    }
    pending_.erase({job.d, job.member});
    --running_;
    pump();
}

bool
RepairScheduler::allHealthy() const
{
    const Placement &placement = fabric_.placement();
    for (const auto &[d, sectors] : catalogDigests()) {
        (void)sectors;
        for (net::MacAddr mac : placement.stripeFor(d))
            if (!fabric_.sourceUp(mac))
                return false;
    }
    return true;
}

void
RepairScheduler::transformTo(ec::CodeKind kind)
{
    Placement &placement = fabric_.placement();
    std::shared_ptr<const ec::Code> old_code = placement.sharedCode();
    if (old_code->kind() == kind)
        return;
    const StoreParams &sp = fabric_.params();
    std::shared_ptr<const ec::Code> new_code = ec::makeCode(
        kind, ec::CodeParams{sp.dataShards, sp.parityShards,
                             sp.lrcGroups, kDecodePenalty});

    std::map<Digest, std::uint32_t> digests = catalogDigests();
    std::map<Digest, std::vector<net::MacAddr>> old_stripes;
    for (const auto &[d, sectors] : digests) {
        (void)sectors;
        old_stripes.emplace(d, placement.stripeFor(d));
    }
    placement.setCode(new_code);

    // The build *structure* (reuse vs. build vs. retire) is a pure
    // function of the two codes; liveness only matters when a build
    // job plans its fetches, and the job re-plans fresh at run time.
    ec::LiveFn all_live = [](net::MacAddr) { return true; };
    for (const auto &[d, sectors] : digests) {
        std::vector<net::MacAddr> new_stripe = placement.stripeFor(d);
        auto tp = ec::transformPlan(*old_code, *new_code, new_stripe,
                                    all_live, sectors);
        sim::panicIfNot(tp.has_value(),
                        "transform plan unsatisfiable");
        for (const ec::TransformPlan::Reuse &r : tp->reused)
            placement.rehome(d, r.toMember,
                             old_stripes.at(d)[r.fromMember]);
        for (const ec::TransformPlan::Build &b : tp->builds) {
            if (pending_.count({d, b.member}))
                continue;
            queue_.push_back(Job{d, sectors, b.member, true, 0});
            pending_.insert({d, b.member});
        }
        ++stats_.transforms;
    }
    pump();
}

} // namespace store
