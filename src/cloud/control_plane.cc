#include "cloud/control_plane.hh"

#include <algorithm>

#include "simcore/logging.hh"

namespace cloud {

void
ProvisionerPort::startMigration(Lease &lease, unsigned destSlot)
{
    sim::fatal("this provisioner port cannot migrate (lease ",
               lease.id(), " -> slot ", destSlot, ")");
}

ControlPlane::ControlPlane(sim::EventQueue &eq, std::string name,
                           ControlPlaneParams params,
                           ProvisionerPort &port)
    : sim::SimObject(eq, std::move(name)),
      prm_(params),
      port_(port),
      queue_(params.queue),
      obsTrack_(SimObject::name())
{
    const unsigned slots = port_.slots();
    sim::fatalIf(slots == 0, "control plane needs a machine pool");
    slotOwner_.assign(slots, nullptr);
    unsigned racks = 0;
    for (unsigned s = 0; s < slots; ++s)
        racks = std::max(racks, port_.rackOfSlot(s) + 1);
    rackLoad_.assign(racks, 0);
    rackUsable_.assign(racks, true);
    rackDownUntil_.assign(racks, 0);
}

Lease *
ControlPlane::submit(LeaseRequest rq, Lease::ServingFn onServing,
                     Lease::RejectedFn onRejected)
{
    auto owned = std::make_unique<Lease>();
    Lease &l = *owned;
    leases_.push_back(std::move(owned));

    l.id_ = nextId_++;
    l.image_ = std::move(rq.image);
    l.tenant_ = rq.tenant;
    l.qos_ = rq.qos;
    l.failFast_ = rq.failFast;
    l.submittedAt_ = now();
    l.onServing_ = std::move(onServing);
    l.onRejected_ = std::move(onRejected);
    ++stats_.submitted;

    RejectReason why = queue_.push(l);
    if (why != RejectReason::None) {
        reject(l, why);
        return &l;
    }
    noteQueueDepth();
    pump();

    if (l.state_ == LeaseState::Queued && l.failFast_) {
        // The legacy blocking contract: no machine now means no
        // machine at all. Distinguish a full region from a region
        // with capacity stranded in unusable racks.
        queue_.remove(l);
        noteQueueDepth();
        reject(l, freeSlots() == 0 ? RejectReason::RegionFull
                                   : RejectReason::NoUsableRack);
    }
    return &l;
}

void
ControlPlane::reject(Lease &l, RejectReason why)
{
    l.state_ = LeaseState::Rejected;
    l.reject_ = why;
    l.releasedAt_ = now();
    ++stats_.rejected[static_cast<unsigned>(why)];
    if (obs::armed()) {
        obs::Tracer &t = obs::tracer();
        t.instant(obsTrack_.id(t), "cloud", rejectReasonName(why),
                  now());
    }
    if (l.onRejected_)
        l.onRejected_(l);
}

void
ControlPlane::pump()
{
    // Strict priority with head-of-line blocking: while a Critical
    // lease cannot be placed, nothing below it may jump the line (a
    // Scavenger lease sneaking onto the last usable slot is exactly
    // the inversion the classes exist to prevent).
    while (Lease *head = queue_.head()) {
        if (!tryPlace(*head))
            break;
    }
}

unsigned
ControlPlane::pickSlot() const
{
    const unsigned slots = port_.slots();
    unsigned best = slots;
    unsigned bestLoad = 0;
    std::uint64_t bestScore = 0;
    for (unsigned s = 0; s < slots; ++s) {
        if (slotOwner_[s] != nullptr)
            continue;
        const unsigned rack = port_.rackOfSlot(s);
        if (!rackUsable_[rack])
            continue;
        const unsigned load = rackLoad_[rack];
        const std::uint64_t score = port_.rackScore(rack);
        // Strict lexicographic improvement, slots ascending: ties
        // keep the earliest slot, which is exactly the historical
        // Cloud::provision placement when all racks are usable and
        // the port reports no congestion.
        if (best == slots || load < bestLoad ||
            (load == bestLoad && score < bestScore)) {
            best = s;
            bestLoad = load;
            bestScore = score;
        }
    }
    return best;
}

bool
ControlPlane::tryPlace(Lease &l)
{
    const unsigned slot = pickSlot();
    if (slot == port_.slots())
        return false;

    queue_.remove(l);
    noteQueueDepth();
    l.state_ = LeaseState::Placing;
    l.slot_ = slot;
    l.rack_ = port_.rackOfSlot(slot);
    l.placedAt_ = now();
    slotOwner_[slot] = &l;
    ++rackLoad_[l.rack_];
    ++stats_.placed;
    if (obs::armed()) {
        obs::Tracer &t = obs::tracer();
        t.asyncBegin(obsTrack_.id(t), "cloud", "lease", l.id_, now());
    }
    l.state_ = LeaseState::Deploying;
    port_.startDeployment(l);
    return true;
}

void
ControlPlane::noteServing(std::uint64_t leaseId)
{
    Lease *l = leaseById(leaseId);
    sim::fatalIf(l == nullptr, "noteServing for unknown lease");
    if (l->state_ != LeaseState::Deploying)
        return; // released (or canceled) while the image was landing
    l->state_ = LeaseState::Serving;
    l->servingAt_ = now();
    ++stats_.served;
    if (l->onServing_)
        l->onServing_(*l);
}

void
ControlPlane::release(Lease &l)
{
    sim::fatalIf(l.terminal() || l.state_ == LeaseState::Releasing,
                 "release of lease ", l.id_, " in state ",
                 leaseStateName(l.state_));
    if (l.state_ == LeaseState::Queued) {
        queue_.remove(l);
        noteQueueDepth();
        l.state_ = LeaseState::Released;
        l.releasedAt_ = now();
        ++stats_.canceled;
        return;
    }
    l.state_ = LeaseState::Releasing;
    port_.startRelease(l);
}

MigrateReject
ControlPlane::migrate(std::uint64_t leaseId, unsigned destSlot)
{
    Lease *l = leaseById(leaseId);
    sim::fatalIf(l == nullptr, "migrate for unknown lease");
    sim::fatalIf(destSlot >= port_.slots(),
                 "migrate to slot ", destSlot, " outside the pool");

    MigrateReject why = MigrateReject::None;
    if (l->state_ != LeaseState::Serving)
        why = MigrateReject::NotServing;
    else if (destSlot == l->slot_)
        why = MigrateReject::SameSlot;
    else if (slotOwner_[destSlot] != nullptr)
        why = MigrateReject::DestBusy;
    else if (!rackUsable_[port_.rackOfSlot(destSlot)])
        why = MigrateReject::DestRackDown;
    if (why != MigrateReject::None) {
        ++stats_.migrateRejected[static_cast<unsigned>(why)];
        if (obs::armed()) {
            obs::Tracer &t = obs::tracer();
            t.instant(obsTrack_.id(t), "cloud",
                      migrateRejectName(why), now());
        }
        return why;
    }

    // Reserve the destination before the port runs: a concurrent
    // placement must not land on the slot the stream is filling.
    slotOwner_[destSlot] = l;
    ++rackLoad_[port_.rackOfSlot(destSlot)];
    l->migrateTo_ = destSlot;
    l->migratePending_ = true;
    l->state_ = LeaseState::Migrating;
    port_.startMigration(*l, destSlot);
    return MigrateReject::None;
}

void
ControlPlane::noteMigrated(std::uint64_t leaseId)
{
    Lease *l = leaseById(leaseId);
    sim::fatalIf(l == nullptr, "noteMigrated for unknown lease");
    if (l->state_ != LeaseState::Migrating)
        return; // a release raced the migration and won
    const unsigned oldSlot = l->slot_;
    l->slot_ = l->migrateTo_;
    l->rack_ = port_.rackOfSlot(l->slot_);
    l->migratePending_ = false;
    l->state_ = LeaseState::Serving;
    l->migratedAt_ = now();
    ++stats_.migrated;
    if (obs::armed()) {
        obs::Tracer &t = obs::tracer();
        t.instant(obsTrack_.id(t), "cloud", "migrated", now());
    }
    reclaimSlot(oldSlot);
}

void
ControlPlane::noteMigrationFailed(std::uint64_t leaseId)
{
    Lease *l = leaseById(leaseId);
    sim::fatalIf(l == nullptr,
                 "noteMigrationFailed for unknown lease");
    if (l->state_ != LeaseState::Migrating)
        return; // a release raced the migration and won
    const unsigned dest = l->migrateTo_;
    l->migratePending_ = false;
    l->state_ = LeaseState::Serving; // still on the source slot
    ++stats_.migrateFailed;
    if (obs::armed()) {
        obs::Tracer &t = obs::tracer();
        t.instant(obsTrack_.id(t), "cloud", "migrate_failed", now());
    }
    reclaimSlot(dest);
}

void
ControlPlane::reclaimSlot(unsigned slot)
{
    auto freeIt = [this, slot] {
        slotOwner_[slot] = nullptr;
        --rackLoad_[port_.rackOfSlot(slot)];
        pump();
    };
    if (prm_.scrubTime == 0) {
        freeIt();
        return;
    }
    schedule(prm_.scrubTime, freeIt);
}

void
ControlPlane::noteReleased(std::uint64_t leaseId)
{
    Lease *l = leaseById(leaseId);
    sim::fatalIf(l == nullptr || l->state_ != LeaseState::Releasing,
                 "noteReleased for lease not releasing");
    if (prm_.scrubTime == 0) {
        finishRelease(*l); // legacy synchronous path: no events
        return;
    }
    schedule(prm_.scrubTime, [this, l] { finishRelease(*l); });
}

void
ControlPlane::finishRelease(Lease &l)
{
    slotOwner_[l.slot_] = nullptr;
    --rackLoad_[l.rack_];
    if (l.migratePending_) {
        // A release that raced a live migration owns two slots: the
        // reserved destination returns to the pool with the source.
        slotOwner_[l.migrateTo_] = nullptr;
        --rackLoad_[port_.rackOfSlot(l.migrateTo_)];
        l.migratePending_ = false;
    }
    l.state_ = LeaseState::Released;
    l.releasedAt_ = now();
    ++stats_.released;
    if (obs::armed()) {
        obs::Tracer &t = obs::tracer();
        t.asyncEnd(obsTrack_.id(t), "cloud", "lease", l.id_, now());
    }
    pump();
}

void
ControlPlane::setRackUsable(unsigned rack, bool usable)
{
    const bool was = rackUsable_.at(rack);
    rackUsable_[rack] = usable;
    if (usable && !was)
        pump();
}

bool
ControlPlane::rackUsable(unsigned rack) const
{
    return rackUsable_.at(rack);
}

void
ControlPlane::armRackHealthProbe(sim::FaultInjector *fi,
                                 sim::Tick period)
{
    sim::fatalIf(fi == nullptr || period == 0,
                 "rack health probe needs an injector and a period");
    healthFi_ = fi;
    probePeriod_ = period;
    schedulePeriodic(period, [this] { probeRackHealth(); });
}

void
ControlPlane::probeRackHealth()
{
    for (unsigned r = 0; r < rackUsable_.size(); ++r) {
        if (rackDownUntil_[r] != 0) {
            if (now() >= rackDownUntil_[r]) {
                rackDownUntil_[r] = 0;
                healthFi_->noteFired(sim::FaultSite::RackRecover);
                sim::inform(name(), ": rack ", r, " recovered");
                setRackUsable(r, true);
            }
            continue;
        }
        if (healthFi_->shouldFire(sim::FaultSite::RackOutage, r)) {
            rackDownUntil_[r] =
                now() + healthFi_->magnitude(
                            sim::FaultSite::RackOutage, 10 * sim::kSec);
            sim::inform(name(), ": rack ", r, " out until ",
                        rackDownUntil_[r]);
            setRackUsable(r, false);
        }
    }
}

unsigned
ControlPlane::freeSlots() const
{
    return static_cast<unsigned>(
        std::count(slotOwner_.begin(), slotOwner_.end(), nullptr));
}

unsigned
ControlPlane::rackLoad(unsigned rack) const
{
    return rackLoad_.at(rack);
}

Lease *
ControlPlane::leaseById(std::uint64_t id)
{
    // Ids are dense and start at 1; leases_ is append-only.
    if (id == 0 || id > leases_.size())
        return nullptr;
    return leases_[id - 1].get();
}

void
ControlPlane::noteQueueDepth()
{
    if (obs::armed()) {
        obs::Tracer &t = obs::tracer();
        t.counter(obsTrack_.id(t), "queue_depth", now(),
                  static_cast<double>(queue_.depth()));
    }
}

} // namespace cloud
