/**
 * @file
 * Tests of the cloud::ControlPlane state machine driven directly
 * through a scripted ProvisionerPort: admission ordering and typed
 * backpressure, placement scoring, and — regression-guarding the
 * PR-5 state-race fix at the new layer — release-while-deploying and
 * re-lease-before-scrub-completes under churn. Also pins down the
 * CongestionController bucket arithmetic the fleet bench relies on.
 */

#include <sstream>

#include <gtest/gtest.h>

#include "cloud/congestion.hh"
#include "cloud/control_plane.hh"
#include "net/topology.hh"
#include "obs/registry.hh"
#include "simcore/event_queue.hh"
#include "simcore/fault_injector.hh"
#include "simcore/logging.hh"

namespace {

using cloud::ControlPlane;
using cloud::ControlPlaneParams;
using cloud::Lease;
using cloud::LeaseRequest;
using cloud::LeaseState;
using cloud::QosClass;
using cloud::RejectReason;

/**
 * Scripted pool: deployments and releases complete after fixed
 * delays, like a rack worker answering over the fabric. noteServing
 * is delivered even if the lease was released meanwhile — exactly
 * the in-flight-message race the plane must absorb.
 */
class FakePort : public cloud::ProvisionerPort
{
  public:
    FakePort(sim::EventQueue &eq, unsigned slots, unsigned racks,
             sim::Tick deployDelay, sim::Tick releaseDelay)
        : eq_(eq), slots_(slots), racks_(racks),
          deployDelay_(deployDelay), releaseDelay_(releaseDelay)
    {
    }

    void attach(ControlPlane *plane) { plane_ = plane; }

    unsigned slots() const override { return slots_; }
    unsigned
    rackOfSlot(unsigned slot) const override
    {
        return slot % racks_;
    }

    void
    startDeployment(Lease &lease) override
    {
        ++deploysStarted;
        std::uint64_t id = lease.id();
        eq_.schedule(deployDelay_,
                     [this, id]() { plane_->noteServing(id); });
    }

    void
    startRelease(Lease &lease) override
    {
        ++releasesStarted;
        std::uint64_t id = lease.id();
        eq_.schedule(releaseDelay_,
                     [this, id]() { plane_->noteReleased(id); });
    }

    std::uint64_t
    rackScore(unsigned rack) const override
    {
        return rack < scores.size() ? scores[rack] : 0;
    }

    void
    startMigration(Lease &lease, unsigned destSlot) override
    {
        ++migrationsStarted;
        pendingMigrations.push_back({lease.id(), destSlot});
    }

    std::vector<std::uint64_t> scores;
    unsigned deploysStarted = 0;
    unsigned releasesStarted = 0;
    unsigned migrationsStarted = 0;
    /** Migrations handed to the pool, for the test to resolve. */
    std::vector<std::pair<std::uint64_t, unsigned>> pendingMigrations;

  private:
    sim::EventQueue &eq_;
    unsigned slots_;
    unsigned racks_;
    sim::Tick deployDelay_;
    sim::Tick releaseDelay_;
    ControlPlane *plane_ = nullptr;
};

ControlPlaneParams
planeParams(std::size_t queueCap = 64, sim::Tick scrub = 0)
{
    ControlPlaneParams p;
    p.queue.capacity = queueCap;
    p.scrubTime = scrub;
    return p;
}

TEST(ControlPlane, ReleaseWhileDeployingAbsorbsLateServing)
{
    sim::EventQueue eq;
    FakePort port(eq, 1, 1, /*deploy=*/100 * sim::kMs,
                  /*release=*/10 * sim::kMs);
    ControlPlane plane(eq, "cp", planeParams(), port);
    port.attach(&plane);

    unsigned served = 0;
    Lease *l = plane.submit({.image = "img"},
                            [&](Lease &) { ++served; });
    ASSERT_NE(l, nullptr);
    EXPECT_EQ(l->state(), LeaseState::Deploying);

    // Release mid-deployment: teardown begins, and the port's
    // already-in-flight noteServing lands on a Releasing lease.
    eq.runUntil(50 * sim::kMs);
    plane.release(*l);
    EXPECT_EQ(l->state(), LeaseState::Releasing);
    eq.runUntil(1 * sim::kSec);

    EXPECT_EQ(l->state(), LeaseState::Released);
    EXPECT_EQ(served, 0u) << "serving callback after release";
    EXPECT_EQ(plane.stats().served, 0u);
    EXPECT_EQ(plane.stats().released, 1u);
    EXPECT_EQ(plane.freeSlots(), 1u);

    // The slot is genuinely reusable after the race.
    Lease *l2 = plane.submit({.image = "img"},
                             [&](Lease &) { ++served; });
    eq.runUntil(2 * sim::kSec);
    EXPECT_EQ(l2->state(), LeaseState::Serving);
    EXPECT_EQ(served, 1u);
}

TEST(ControlPlane, ReLeaseBeforeScrubCompletesWaitsForTheSlot)
{
    sim::EventQueue eq;
    const sim::Tick scrub = 50 * sim::kMs;
    FakePort port(eq, 1, 1, /*deploy=*/5 * sim::kMs,
                  /*release=*/5 * sim::kMs);
    ControlPlane plane(eq, "cp", planeParams(64, scrub), port);
    port.attach(&plane);

    Lease *a = plane.submit({.image = "img"}, {});
    eq.runUntil(10 * sim::kMs);
    ASSERT_EQ(a->state(), LeaseState::Serving);
    plane.release(*a);
    // The port's teardown answers at 15 ms; the lease then stays
    // Releasing until the scrub window ends — the slot is not free.
    eq.runUntil(20 * sim::kMs);
    ASSERT_EQ(a->state(), LeaseState::Releasing);
    EXPECT_EQ(plane.freeSlots(), 0u);

    // Mid-scrub, a fail-fast lease bounces with the legacy typed
    // reason and a patient one queues.
    Lease *ff = plane.submit({.image = "img", .failFast = true}, {});
    EXPECT_EQ(ff->state(), LeaseState::Rejected);
    EXPECT_EQ(ff->rejectReason(), RejectReason::RegionFull);

    Lease *b = plane.submit({.image = "img"}, {});
    EXPECT_EQ(b->state(), LeaseState::Queued);

    eq.runUntil(1 * sim::kSec);
    EXPECT_EQ(a->state(), LeaseState::Released);
    EXPECT_EQ(b->state(), LeaseState::Serving);
    // Placement waited out the full scrub window (teardown done at
    // 15 ms + 50 ms scrub), and the slot freed exactly then.
    EXPECT_GE(b->placedAt(), 15 * sim::kMs + scrub);
    EXPECT_EQ(b->placedAt(), a->releasedAt());
    EXPECT_EQ(plane.stats().served, 2u);
}

TEST(ControlPlane, StrictPriorityThenFifoWithinClass)
{
    sim::EventQueue eq;
    FakePort port(eq, 1, 1, 5 * sim::kMs, 5 * sim::kMs);
    ControlPlane plane(eq, "cp", planeParams(), port);
    port.attach(&plane);

    // Occupy the only slot, then queue scav/scav/std/crit.
    Lease *hold = plane.submit({.image = "img"}, {});
    std::vector<std::uint64_t> order;
    auto track = [&](Lease &l) { order.push_back(l.id()); };
    Lease *s1 = plane.submit(
        {.image = "img", .qos = QosClass::Scavenger}, track);
    Lease *s2 = plane.submit(
        {.image = "img", .qos = QosClass::Scavenger}, track);
    Lease *st = plane.submit(
        {.image = "img", .qos = QosClass::Standard}, track);
    Lease *cr = plane.submit(
        {.image = "img", .qos = QosClass::Critical}, track);
    EXPECT_EQ(plane.queueDepth(), 4u);
    EXPECT_EQ(plane.queueDepth(QosClass::Scavenger), 2u);

    // Serve-and-release the slot repeatedly; placement order must be
    // critical, standard, then scavengers in FIFO order.
    eq.runUntil(10 * sim::kMs);
    for (Lease *l : {hold, cr, st, s1}) {
        ASSERT_EQ(l->state(), LeaseState::Serving);
        plane.release(*l);
        eq.runUntil(eq.now() + 20 * sim::kMs);
    }
    eq.runUntil(1 * sim::kSec);
    ASSERT_EQ(order.size(), 4u);
    EXPECT_EQ(order[0], cr->id());
    EXPECT_EQ(order[1], st->id());
    EXPECT_EQ(order[2], s1->id());
    EXPECT_EQ(order[3], s2->id());
}

TEST(ControlPlane, TypedAdmissionBackpressure)
{
    sim::EventQueue eq;
    FakePort port(eq, 1, 1, 5 * sim::kMs, 5 * sim::kMs);
    ControlPlaneParams prm = planeParams(/*queueCap=*/2);
    prm.queue.perTenantCap = 1;
    ControlPlane plane(eq, "cp", prm, port);
    port.attach(&plane);

    plane.submit({.image = "img"}, {}); // takes the slot
    unsigned rejections = 0;
    auto onReject = [&](Lease &) { ++rejections; };

    // Tenant 7 queues one, then trips its per-tenant cap.
    Lease *q1 = plane.submit({.image = "img", .tenant = 7}, {});
    EXPECT_EQ(q1->state(), LeaseState::Queued);
    Lease *r1 =
        plane.submit({.image = "img", .tenant = 7}, {}, onReject);
    EXPECT_EQ(r1->state(), LeaseState::Rejected);
    EXPECT_EQ(r1->rejectReason(), RejectReason::TenantQueueCap);

    // Another tenant fills the region queue; the next hits QueueFull.
    Lease *q2 = plane.submit({.image = "img", .tenant = 8}, {});
    EXPECT_EQ(q2->state(), LeaseState::Queued);
    Lease *r2 =
        plane.submit({.image = "img", .tenant = 9}, {}, onReject);
    EXPECT_EQ(r2->state(), LeaseState::Rejected);
    EXPECT_EQ(r2->rejectReason(), RejectReason::QueueFull);

    EXPECT_EQ(rejections, 2u);
    EXPECT_EQ(plane.rejectedFor(RejectReason::TenantQueueCap), 1u);
    EXPECT_EQ(plane.rejectedFor(RejectReason::QueueFull), 1u);
    // Rejected handles stay readable; releasing one is a caller bug.
    EXPECT_THROW(plane.release(*r1), sim::FatalError);
}

TEST(ControlPlane, ReleaseWhileQueuedCancels)
{
    sim::EventQueue eq;
    FakePort port(eq, 1, 1, 5 * sim::kMs, 5 * sim::kMs);
    ControlPlane plane(eq, "cp", planeParams(), port);
    port.attach(&plane);

    plane.submit({.image = "img"}, {});
    unsigned served = 0;
    Lease *q = plane.submit({.image = "img"},
                            [&](Lease &) { ++served; });
    ASSERT_EQ(q->state(), LeaseState::Queued);
    plane.release(*q);
    EXPECT_EQ(q->state(), LeaseState::Released);
    EXPECT_EQ(plane.stats().canceled, 1u);
    eq.runUntil(1 * sim::kSec);
    EXPECT_EQ(served, 0u);
    EXPECT_EQ(port.deploysStarted, 1u) << "canceled lease deployed";
}

TEST(ControlPlane, PlacementSpreadsThenUsesPortScore)
{
    sim::EventQueue eq;
    // 4 slots over 2 racks; rack 1 starts with the lower congestion
    // score, so the first lease goes there despite equal load.
    FakePort port(eq, 4, 2, 5 * sim::kMs, 5 * sim::kMs);
    port.scores = {10, 3};
    ControlPlane plane(eq, "cp", planeParams(), port);
    port.attach(&plane);

    Lease *a = plane.submit({.image = "img"}, {});
    EXPECT_EQ(a->rack(), 1u);
    // Load now tiebreaks ahead of score: rack 0 is emptier.
    Lease *b = plane.submit({.image = "img"}, {});
    EXPECT_EQ(b->rack(), 0u);
    EXPECT_EQ(plane.rackLoad(0), 1u);
    EXPECT_EQ(plane.rackLoad(1), 1u);
}

TEST(ControlPlane, RackOutageProbeStopsAndRestoresPlacement)
{
    sim::EventQueue eq;
    FakePort port(eq, 4, 2, 1 * sim::kMs, 1 * sim::kMs);
    ControlPlane plane(eq, "cp", planeParams(), port);
    port.attach(&plane);

    sim::FaultInjector fi(7);
    sim::SitePlan plan;
    plan.fireOn = {1}; // first eligible probe of the keyed rack
    plan.keyLo = 1;
    plan.keyHi = 1;
    plan.magnitude = 200 * sim::kMs;
    fi.arm(sim::FaultSite::RackOutage, plan);
    plane.armRackHealthProbe(&fi, 10 * sim::kMs);

    eq.runUntil(20 * sim::kMs);
    EXPECT_FALSE(plane.rackUsable(1));
    EXPECT_TRUE(plane.rackUsable(0));

    // Both rack-0 slots lease; the next patient lease queues rather
    // than land in the dead rack, and a fail-fast one is told why.
    Lease *a = plane.submit({.image = "img"}, {});
    Lease *b = plane.submit({.image = "img"}, {});
    EXPECT_EQ(a->rack(), 0u);
    EXPECT_EQ(b->rack(), 0u);
    Lease *ff = plane.submit({.image = "img", .failFast = true}, {});
    EXPECT_EQ(ff->state(), LeaseState::Rejected);
    EXPECT_EQ(ff->rejectReason(), RejectReason::NoUsableRack);
    Lease *q = plane.submit({.image = "img"}, {});
    EXPECT_EQ(q->state(), LeaseState::Queued);

    // Recovery re-pumps the queue into the healed rack.
    eq.runUntil(1 * sim::kSec);
    EXPECT_TRUE(plane.rackUsable(1));
    EXPECT_EQ(q->state(), LeaseState::Serving);
    EXPECT_EQ(q->rack(), 1u);
    EXPECT_EQ(fi.triggers(sim::FaultSite::RackOutage), 1u);
    EXPECT_EQ(fi.triggers(sim::FaultSite::RackRecover), 1u);
}

TEST(ControlPlane, MigrateMovesSlotAndRackBookkeeping)
{
    sim::EventQueue eq;
    FakePort port(eq, 4, 2, 1 * sim::kMs, 1 * sim::kMs);
    ControlPlane plane(eq, "cp", planeParams(), port);
    port.attach(&plane);

    Lease *l = plane.submit({.image = "img"}, {});
    eq.runUntil(10 * sim::kMs);
    ASSERT_EQ(l->state(), LeaseState::Serving);
    ASSERT_EQ(l->slot(), 0u);

    // Slot 1 is rack 1 (slots stripe round-robin): the destination
    // is reserved the moment the verb is accepted.
    ASSERT_EQ(plane.migrate(l->id(), 1), cloud::MigrateReject::None);
    EXPECT_EQ(l->state(), LeaseState::Migrating);
    EXPECT_EQ(l->migratingTo(), 1u);
    EXPECT_EQ(port.migrationsStarted, 1u);
    EXPECT_EQ(plane.rackLoad(0), 1u);
    EXPECT_EQ(plane.rackLoad(1), 1u);

    plane.noteMigrated(l->id());
    EXPECT_EQ(l->state(), LeaseState::Serving);
    EXPECT_EQ(l->slot(), 1u);
    EXPECT_EQ(l->rack(), 1u);
    EXPECT_GT(l->migratedAt(), 0u);
    EXPECT_EQ(plane.stats().migrated, 1u);

    // The source slot frees (scrub 0): rack 0 drains and the next
    // lease lands there.
    eq.runUntil(20 * sim::kMs);
    EXPECT_EQ(plane.rackLoad(0), 0u);
    Lease *n = plane.submit({.image = "img"}, {});
    EXPECT_EQ(n->rack(), 0u);
}

TEST(ControlPlane, MigrateRejectionsAreTyped)
{
    sim::EventQueue eq;
    FakePort port(eq, 4, 2, 1 * sim::kMs, 1 * sim::kMs);
    ControlPlane plane(eq, "cp", planeParams(), port);
    port.attach(&plane);

    Lease *a = plane.submit({.image = "img"}, {});
    // Still Deploying: mobility needs a running instance.
    EXPECT_EQ(plane.migrate(a->id(), 2),
              cloud::MigrateReject::NotServing);
    eq.runUntil(10 * sim::kMs);
    ASSERT_EQ(a->state(), LeaseState::Serving);

    Lease *b = plane.submit({.image = "img"}, {});
    eq.runUntil(20 * sim::kMs);
    ASSERT_EQ(b->state(), LeaseState::Serving);
    ASSERT_EQ(b->slot(), 1u);

    EXPECT_EQ(plane.migrate(a->id(), a->slot()),
              cloud::MigrateReject::SameSlot);
    EXPECT_EQ(plane.migrate(a->id(), b->slot()),
              cloud::MigrateReject::DestBusy);

    EXPECT_EQ(plane.migrateRejectedFor(cloud::MigrateReject::NotServing),
              1u);
    EXPECT_EQ(plane.migrateRejectedFor(cloud::MigrateReject::SameSlot),
              1u);
    EXPECT_EQ(plane.migrateRejectedFor(cloud::MigrateReject::DestBusy),
              1u);
    // Rejections leave the lease untouched.
    EXPECT_EQ(a->state(), LeaseState::Serving);
    EXPECT_EQ(port.migrationsStarted, 0u);
}

TEST(ControlPlane, MigrateToDrainedRackIsRejected)
{
    sim::EventQueue eq;
    FakePort port(eq, 4, 2, 1 * sim::kMs, 1 * sim::kMs);
    ControlPlane plane(eq, "cp", planeParams(), port);
    port.attach(&plane);

    Lease *l = plane.submit({.image = "img"}, {});
    eq.runUntil(5 * sim::kMs);
    ASSERT_EQ(l->state(), LeaseState::Serving);
    ASSERT_EQ(l->rack(), 0u);

    // The RackOutage probe drains rack 1; the destination check
    // consults the same health state placement does.
    sim::FaultInjector fi(7);
    sim::SitePlan plan;
    plan.fireOn = {1};
    plan.keyLo = 1;
    plan.keyHi = 1;
    plan.magnitude = 200 * sim::kMs;
    fi.arm(sim::FaultSite::RackOutage, plan);
    plane.armRackHealthProbe(&fi, 10 * sim::kMs);
    eq.runUntil(25 * sim::kMs);
    ASSERT_FALSE(plane.rackUsable(1));

    EXPECT_EQ(plane.migrate(l->id(), 1),
              cloud::MigrateReject::DestRackDown);
    EXPECT_EQ(plane.migrateRejectedFor(
                  cloud::MigrateReject::DestRackDown),
              1u);
    EXPECT_EQ(l->state(), LeaseState::Serving);

    // Healed rack accepts the retry.
    eq.runUntil(1 * sim::kSec);
    ASSERT_TRUE(plane.rackUsable(1));
    EXPECT_EQ(plane.migrate(l->id(), 1), cloud::MigrateReject::None);
}

TEST(ControlPlane, ReleaseDuringMigrationFreesBothSlots)
{
    sim::EventQueue eq;
    FakePort port(eq, 4, 2, 1 * sim::kMs, 1 * sim::kMs);
    ControlPlane plane(eq, "cp", planeParams(), port);
    port.attach(&plane);

    Lease *l = plane.submit({.image = "img"}, {});
    eq.runUntil(5 * sim::kMs);
    ASSERT_EQ(l->state(), LeaseState::Serving);
    ASSERT_EQ(plane.migrate(l->id(), 1), cloud::MigrateReject::None);
    ASSERT_EQ(l->state(), LeaseState::Migrating);

    // The tenant walks away mid-migration (mirror of the PR-7
    // release-while-provisioning race): teardown must free BOTH the
    // source and the reserved destination.
    plane.release(*l);
    EXPECT_EQ(l->state(), LeaseState::Releasing);
    eq.runUntil(20 * sim::kMs);
    EXPECT_EQ(l->state(), LeaseState::Released);
    EXPECT_EQ(plane.rackLoad(0), 0u);
    EXPECT_EQ(plane.rackLoad(1), 0u);

    // The pool's in-flight migration completion lands on a Released
    // lease and is absorbed.
    ASSERT_EQ(port.pendingMigrations.size(), 1u);
    plane.noteMigrated(port.pendingMigrations[0].first);
    EXPECT_EQ(l->state(), LeaseState::Released);
    EXPECT_EQ(plane.stats().migrated, 0u);

    // Both slots genuinely lease again.
    Lease *x = plane.submit({.image = "img"}, {});
    Lease *y = plane.submit({.image = "img"}, {});
    EXPECT_EQ(x->state(), LeaseState::Deploying);
    EXPECT_EQ(y->state(), LeaseState::Deploying);
    EXPECT_NE(x->slot(), y->slot());
}

TEST(ControlPlane, MigrationFailureRollsBackToSourceSlot)
{
    sim::EventQueue eq;
    FakePort port(eq, 4, 2, 1 * sim::kMs, 1 * sim::kMs);
    ControlPlane plane(eq, "cp", planeParams(), port);
    port.attach(&plane);

    Lease *l = plane.submit({.image = "img"}, {});
    eq.runUntil(5 * sim::kMs);
    ASSERT_EQ(l->state(), LeaseState::Serving);
    ASSERT_EQ(plane.migrate(l->id(), 1), cloud::MigrateReject::None);

    plane.noteMigrationFailed(l->id());
    EXPECT_EQ(l->state(), LeaseState::Serving);
    EXPECT_EQ(l->slot(), 0u);
    EXPECT_EQ(l->rack(), 0u);
    EXPECT_EQ(plane.stats().migrateFailed, 1u);
    EXPECT_EQ(plane.stats().migrated, 0u);

    // The reserved destination reclaims; rack 1 is empty again.
    eq.runUntil(20 * sim::kMs);
    EXPECT_EQ(plane.rackLoad(1), 0u);
}

TEST(Congestion, LaneRateBoundsGrantsAndChargesTenants)
{
    cloud::CongestionParams p;
    p.enabled = true;
    p.linkShare = 0.5;
    p.tenantShare = 0.0; // no per-tenant cap
    p.rackLinkBps = 1e9; // lane = 500 Mb/s
    cloud::CongestionController cc(p, 2);
    EXPECT_DOUBLE_EQ(cc.laneBps(0), 5e8);

    // 1 MiB at 500 Mb/s books ~16.8 ms of lane time; back-to-back
    // admits serialize on the bucket.
    const sim::Bytes mib = 1 * sim::kMiB;
    sim::Tick t1 = cc.admit(0, 1, mib, 0);
    EXPECT_EQ(t1, 0u); // an idle lane grants immediately
    sim::Tick t2 = cc.admit(0, 2, mib, 0);
    sim::Tick per = static_cast<sim::Tick>(
        static_cast<double>(mib) * 8.0 / 5e8 *
        static_cast<double>(sim::kSec));
    EXPECT_EQ(t2, per);
    // Rack 1's lane is independent.
    EXPECT_EQ(cc.admit(1, 1, mib, 0), 0u);

    EXPECT_EQ(cc.grantedBytes(0), 2 * mib);
    EXPECT_EQ(cc.grants(0), 2u);
    EXPECT_EQ(cc.tenantBytes(0, 1), mib);
    EXPECT_EQ(cc.tenantBytes(0, 2), mib);
    EXPECT_EQ(cc.throttleDelay(0), per);
}

TEST(Congestion, TenantBucketThrottlesBelowTheLane)
{
    cloud::CongestionParams p;
    p.enabled = true;
    p.linkShare = 1.0;
    p.tenantShare = 0.5; // tenant rate = half the lane
    p.rackLinkBps = 1e9;
    cloud::CongestionController cc(p, 1);

    const sim::Bytes mib = 1 * sim::kMiB;
    EXPECT_EQ(cc.admit(0, 1, mib, 0), 0u);
    // Same tenant again: throttled by its bucket (2x the lane pace).
    sim::Tick tenantPer = static_cast<sim::Tick>(
        static_cast<double>(mib) * 8.0 / 5e8 *
        static_cast<double>(sim::kSec));
    EXPECT_EQ(cc.admit(0, 1, mib, 0), tenantPer);
    // A different tenant skips tenant 1's bucket but still queues
    // behind both prior grants on the shared lane.
    sim::Tick lanePer = tenantPer / 2;
    EXPECT_EQ(cc.admit(0, 2, mib, 0), tenantPer + lanePer);
}

using Cls = cloud::Traffic;

/** Book one transfer on the lane of class @p c. */
sim::Tick
book(cloud::CongestionController &cc, Cls c, unsigned rack,
     cloud::TenantId tenant, sim::Bytes bytes, sim::Tick now)
{
    return cc.admit(rack, tenant, bytes, now, c);
}

/**
 * Pins the grant stream of all three lanes: deploy, serving and
 * scavenger bookings interleaved over two racks and three tenants,
 * several on the same tick. Only the deploy lane has a tenant cap.
 */
TEST(Congestion, InterleavedClassesPinTheGrantStream)
{
    cloud::CongestionParams p;
    p.enabled = true;
    p.tenantShare = 0.5;
    p.servingShare = 0.2;
    p.scavengerShare = 0.1;
    cloud::CongestionController cc(p, 2);

    const sim::Bytes kib = 1 * sim::kKiB;
    const sim::Tick ms = sim::kMs;
    struct Step
    {
        Cls cls;
        unsigned rack;
        cloud::TenantId tenant;
        sim::Bytes bytes;
        sim::Tick now;
        sim::Tick start; //!< expected grant
    };
    const Step steps[] = {
        {Cls::Deploy, 0, 1, 1024 * kib, 0, 0},
        {Cls::Serving, 0, 1, 64 * kib, 0, 0},
        {Cls::Scavenger, 0, 2, 256 * kib, 0, 0},
        {Cls::Deploy, 0, 1, 1024 * kib, 0, 23967451},
        {Cls::Deploy, 0, 2, 512 * kib, 0, 35951176},
        {Cls::Serving, 0, 3, 64 * kib, 0, 2621440},
        {Cls::Serving, 1, 1, 128 * kib, 1 * ms, 1000000},
        {Cls::Scavenger, 0, 2, 256 * kib, 1 * ms, 20971520},
        {Cls::Deploy, 1, 3, 2048 * kib, 1 * ms, 1000000},
        {Cls::Scavenger, 1, 3, 128 * kib, 2 * ms, 2000000},
        {Cls::Deploy, 0, 3, 1024 * kib, 5 * ms, 41943038},
        {Cls::Serving, 0, 1, 64 * kib, 5 * ms, 5242880},
        {Cls::Scavenger, 0, 1, 64 * kib, 5 * ms, 41943040},
        {Cls::Deploy, 1, 3, 256 * kib, 20 * ms, 48934902},
        {Cls::Deploy, 0, 1, 256 * kib, 80 * ms, 80000000},
        {Cls::Serving, 0, 2, 32 * kib, 80 * ms, 80000000},
    };
    for (const Step &s : steps)
        EXPECT_EQ(book(cc, s.cls, s.rack, s.tenant, s.bytes, s.now),
                  s.start);

    EXPECT_EQ(cc.grantedBytes(0), 3840 * kib);
    EXPECT_EQ(cc.grants(0), 5u);
    EXPECT_EQ(cc.throttleDelay(0), 96861665u);
    EXPECT_EQ(cc.scavengerDelay(0), 56914560u);
    EXPECT_EQ(cc.tenantBytes(0, 1), 2304 * kib);
    EXPECT_EQ(cc.tenantBytes(0, 2), 512 * kib);
    EXPECT_EQ(cc.tenantBytes(0, 3), 1024 * kib);
    EXPECT_EQ(cc.grantedBytes(1), 2304 * kib);
    EXPECT_EQ(cc.grants(1), 2u);
    EXPECT_EQ(cc.throttleDelay(1), 28934902u);
    EXPECT_EQ(cc.scavengerDelay(1), 0u);
    EXPECT_EQ(cc.tenantBytes(1, 1), 0u);
    EXPECT_EQ(cc.tenantBytes(1, 3), 2304 * kib);

    // Serving and scavenger bytes, grants and delay, and their
    // per-tenant maps, as published.
    obs::Registry reg;
    cc.publish(reg, "x.");
    std::ostringstream os;
    reg.printTable(os);
    EXPECT_EQ(os.str(),
              "  x.congestion.granted_bytes [rack0]              3932160\n"
              "  x.congestion.grants [rack0]                     5\n"
              "  x.congestion.throttle_delay_ns [rack0]          96861665\n"
              "  x.congestion.tenant_bytes [rack0.t1]            2359296\n"
              "  x.congestion.tenant_bytes [rack0.t2]            524288\n"
              "  x.congestion.tenant_bytes [rack0.t3]            1048576\n"
              "  x.congestion.serving_bytes [rack0]              229376\n"
              "  x.congestion.serving_grants [rack0]             4\n"
              "  x.congestion.serving_delay_ns [rack0]           2864320\n"
              "  x.congestion.serving_tenant_bytes [rack0.t1]    131072\n"
              "  x.congestion.serving_tenant_bytes [rack0.t2]    32768\n"
              "  x.congestion.serving_tenant_bytes [rack0.t3]    65536\n"
              "  x.congestion.scavenger_bytes [rack0]            589824\n"
              "  x.congestion.scavenger_grants [rack0]           3\n"
              "  x.congestion.scavenger_delay_ns [rack0]         56914560\n"
              "  x.congestion.scavenger_tenant_bytes [rack0.t1]  65536\n"
              "  x.congestion.scavenger_tenant_bytes [rack0.t2]  524288\n"
              "  x.congestion.granted_bytes [rack1]              2359296\n"
              "  x.congestion.grants [rack1]                     2\n"
              "  x.congestion.throttle_delay_ns [rack1]          28934902\n"
              "  x.congestion.tenant_bytes [rack1.t3]            2359296\n"
              "  x.congestion.serving_bytes [rack1]              131072\n"
              "  x.congestion.serving_grants [rack1]             1\n"
              "  x.congestion.serving_delay_ns [rack1]           0\n"
              "  x.congestion.serving_tenant_bytes [rack1.t1]    131072\n"
              "  x.congestion.scavenger_bytes [rack1]            131072\n"
              "  x.congestion.scavenger_grants [rack1]           1\n"
              "  x.congestion.scavenger_delay_ns [rack1]         0\n"
              "  x.congestion.scavenger_tenant_bytes [rack1.t3]  131072\n");
}

TEST(Topology, SplitChargingMatchesSingleCallAccounting)
{
    net::TopologyConfig cfg;
    cfg.racks = 2;
    cfg.uplinkBps = 4e9;
    cfg.oversubscription = 4.0; // effective 1 Gb/s per link
    net::Topology one(cfg);
    net::Topology split(cfg);
    one.placeNode(0xA, 0);
    one.placeNode(0xB, 1);

    const sim::Bytes wire = 1500;
    sim::Tick extra = one.charge(0xA, 0xB, wire, 0);
    sim::Tick up = split.chargeUplink(0, wire, 0);
    sim::Tick done =
        split.chargeDownlink(1, wire, up + cfg.aggHopLatency);
    EXPECT_EQ(extra, done); // depart=0, so the delay is the arrival
    EXPECT_EQ(one.uplinkBytes(0), split.uplinkBytes(0));
    EXPECT_EQ(one.downlinkBytes(1), split.downlinkBytes(1));
    // FIFO queueing: a second frame waits for the first.
    sim::Tick up2 = split.chargeUplink(0, wire, 0);
    EXPECT_EQ(up2, 2 * up);
    // Intra-rack traffic never touches aggregation links.
    EXPECT_EQ(one.charge(0xA, 0xA, wire, 0), 0u);
}

} // namespace
