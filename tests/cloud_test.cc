/**
 * @file
 * Tests of the provider-side Cloud facade: multi-image provisioning,
 * pool exhaustion, per-instance lifecycle, and data integrity of
 * instances deployed from different golden images concurrently.
 */

#include <gtest/gtest.h>

#include "bmcast/cloud.hh"
#include "hw/disk_store.hh"

namespace {

constexpr std::uint64_t kUbuntu = 0xAAAA000000000001ULL;
constexpr std::uint64_t kCentos = 0xBBBB000000000001ULL;

bmcast::CloudConfig
testConfig(unsigned machines)
{
    bmcast::CloudConfig cfg;
    cfg.machines = machines;
    cfg.machineTemplate.disk.capacityBytes = 2 * sim::kGiB;
    cfg.vmm.bootTime = 5 * sim::kSec;
    cfg.vmm.moderation.vmmWriteInterval = 2 * sim::kMs;
    cfg.vmm.moderation.guestIoFreqThreshold = 1e9;
    cfg.guestTemplate.boot.loaderBytes = 1 * sim::kMiB;
    cfg.guestTemplate.boot.kernelBytes = 4 * sim::kMiB;
    cfg.guestTemplate.boot.numReads = 40;
    cfg.guestTemplate.boot.cpuTotal = 500 * sim::kMs;
    cfg.guestTemplate.boot.regionBytes = 16 * sim::kMiB;
    return cfg;
}

TEST(Cloud, ProvisionTwoImagesConcurrently)
{
    sim::EventQueue eq;
    bmcast::Cloud cloud(eq, "region", testConfig(2));
    cloud.addImage("ubuntu-14.04", 48 * sim::kMiB, kUbuntu);
    cloud.addImage("centos-6.3", 48 * sim::kMiB, kCentos);

    unsigned serving = 0;
    bmcast::Instance *a = cloud.provision(
        "ubuntu-14.04", [&](bmcast::Instance &) { ++serving; });
    bmcast::Instance *b = cloud.provision(
        "centos-6.3", [&](bmcast::Instance &) { ++serving; });
    ASSERT_NE(a, nullptr);
    ASSERT_NE(b, nullptr);
    EXPECT_EQ(cloud.freeMachines(), 0u);

    eq.stepWhile([&]() {
        return (a->state() != bmcast::Instance::State::BareMetal ||
                b->state() != bmcast::Instance::State::BareMetal) &&
               eq.now() < 40000 * sim::kSec;
    });

    EXPECT_EQ(serving, 2u);
    EXPECT_EQ(a->state(), bmcast::Instance::State::BareMetal);
    EXPECT_EQ(b->state(), bmcast::Instance::State::BareMetal);
    EXPECT_GT(a->timeToServingSec(), 0.0);

    // Each machine holds ITS image (no cross-contamination through
    // the shared server).
    sim::Lba img_sectors = (48 * sim::kMiB) / sim::kSectorSize;
    EXPECT_TRUE(a->machine().disk().store().rangeHasBase(
        0, img_sectors, kUbuntu));
    EXPECT_TRUE(b->machine().disk().store().rangeHasBase(
        0, img_sectors, kCentos));
}

TEST(Cloud, BareMetalStateSurvivesLateGuestBoot)
{
    // Devirtualization is transparent to the guest: a tiny image
    // finishes copying (and the VMM reaches bare metal) while the
    // guest is still grinding through a long CPU boot phase. The
    // late guest-ready callback must not downgrade the instance
    // state back to Serving.
    sim::EventQueue eq;
    bmcast::CloudConfig cfg = testConfig(1);
    cfg.guestTemplate.boot.cpuTotal = 60 * sim::kSec;
    bmcast::Cloud cloud(eq, "region", cfg);
    cloud.addImage("tiny", 8 * sim::kMiB, kUbuntu);

    bool served = false;
    bmcast::Instance *a = cloud.provision(
        "tiny", [&](bmcast::Instance &) { served = true; });
    ASSERT_NE(a, nullptr);

    eq.stepWhile([&]() {
        return (a->state() != bmcast::Instance::State::BareMetal ||
                !served) &&
               eq.now() < 40000 * sim::kSec;
    });

    ASSERT_TRUE(served);
    EXPECT_LT(a->deployer().timeline().bareMetal,
              a->deployer().timeline().guestBootDone)
        << "precondition: bare metal must precede guest-boot-done "
           "for this regression test to bite";
    EXPECT_EQ(a->state(), bmcast::Instance::State::BareMetal);
}

TEST(Cloud, PoolExhaustionReturnsNull)
{
    sim::EventQueue eq;
    bmcast::Cloud cloud(eq, "region", testConfig(1));
    cloud.addImage("img", 16 * sim::kMiB, kUbuntu);
    EXPECT_NE(cloud.provision("img", nullptr), nullptr);
    EXPECT_EQ(cloud.provision("img", nullptr), nullptr);
    EXPECT_EQ(cloud.freeMachines(), 0u);
}

TEST(Cloud, ReleaseReturnsMachineToPoolAndScrubs)
{
    sim::EventQueue eq;
    bmcast::Cloud cloud(eq, "region", testConfig(1));
    cloud.addImage("ubuntu-14.04", 32 * sim::kMiB, kUbuntu);
    cloud.addImage("centos-6.3", 32 * sim::kMiB, kCentos);

    bmcast::Instance *a = cloud.provision("ubuntu-14.04", nullptr);
    ASSERT_NE(a, nullptr);
    eq.stepWhile([&]() {
        return a->state() != bmcast::Instance::State::BareMetal &&
               eq.now() < 40000 * sim::kSec;
    });
    ASSERT_EQ(a->state(), bmcast::Instance::State::BareMetal);
    hw::Machine &node = a->machine();

    cloud.releaseLease(a->lease());
    EXPECT_EQ(a->state(), bmcast::Instance::State::Released);
    EXPECT_EQ(cloud.freeMachines(), 1u);
    // Tenant data scrubbed, nothing left running on the node.
    sim::Lba img_sectors = (32 * sim::kMiB) / sim::kSectorSize;
    EXPECT_FALSE(node.disk().store().rangeHasBase(0, 8, kUbuntu));
    EXPECT_FALSE(node.bus().anyInterceptActive());
    EXPECT_FALSE(node.profile().virtualized);

    // The same machine takes a new lease with a different image and
    // sees none of the previous tenant's blocks.
    bmcast::Instance *b = cloud.provision("centos-6.3", nullptr);
    ASSERT_NE(b, nullptr);
    EXPECT_EQ(&b->machine(), &node);
    eq.stepWhile([&]() {
        return b->state() != bmcast::Instance::State::BareMetal &&
               eq.now() < 40000 * sim::kSec;
    });
    ASSERT_EQ(b->state(), bmcast::Instance::State::BareMetal);
    EXPECT_TRUE(
        node.disk().store().rangeHasBase(0, img_sectors, kCentos));
}

TEST(Cloud, ReleaseMidDeploymentIsSafe)
{
    sim::EventQueue eq;
    bmcast::Cloud cloud(eq, "region", testConfig(1));
    // Images large enough that the background copy is still running
    // when the guest comes up, so release happens under mediation.
    cloud.addImage("img", 512 * sim::kMiB, kUbuntu);
    cloud.addImage("img2", 512 * sim::kMiB, kCentos);
    bmcast::Instance *a = cloud.provision("img", nullptr);
    ASSERT_NE(a, nullptr);
    eq.stepWhile([&]() {
        return a->state() == bmcast::Instance::State::Provisioning &&
               eq.now() < 4000 * sim::kSec;
    });
    ASSERT_EQ(a->state(), bmcast::Instance::State::Serving);
    hw::Machine &node = a->machine();
    cloud.releaseLease(a->lease());
    EXPECT_EQ(cloud.freeMachines(), 1u);
    EXPECT_FALSE(node.bus().anyInterceptActive());

    // Draining the queue must not crash (parked objects ignore their
    // remaining events), and the node must still be re-leasable.
    bmcast::Instance *b = cloud.provision("img2", nullptr);
    ASSERT_NE(b, nullptr);
    eq.stepWhile([&]() {
        return b->state() != bmcast::Instance::State::BareMetal &&
               eq.now() < 40000 * sim::kSec;
    });
    EXPECT_EQ(b->state(), bmcast::Instance::State::BareMetal);
    sim::Lba img_sectors = (512 * sim::kMiB) / sim::kSectorSize;
    EXPECT_TRUE(
        node.disk().store().rangeHasBase(0, img_sectors, kCentos));
}

TEST(Cloud, ReleaseWhileStillProvisioningIsSafe)
{
    // Churn guard at the shim layer: the tenant bails out while the
    // lease is still Deploying (guest not yet up). The control
    // plane's in-flight serving notification must be absorbed, the
    // machine scrubbed, and the slot re-leasable.
    sim::EventQueue eq;
    bmcast::Cloud cloud(eq, "region", testConfig(1));
    cloud.addImage("img", 512 * sim::kMiB, kUbuntu);
    cloud.addImage("img2", 512 * sim::kMiB, kCentos);

    unsigned served = 0;
    bmcast::Instance *a = cloud.provision(
        "img", [&](bmcast::Instance &) { ++served; });
    ASSERT_NE(a, nullptr);
    eq.runUntil(100 * sim::kMs);
    ASSERT_EQ(a->state(), bmcast::Instance::State::Provisioning);
    hw::Machine &node = a->machine();

    cloud.releaseLease(a->lease());
    EXPECT_EQ(a->state(), bmcast::Instance::State::Released);
    EXPECT_EQ(cloud.freeMachines(), 1u);
    EXPECT_FALSE(node.bus().anyInterceptActive());

    // Draining what the canceled deployment left behind must not
    // fire its serving callback or disturb the next lease.
    bmcast::Instance *b = cloud.provision("img2", nullptr);
    ASSERT_NE(b, nullptr);
    eq.stepWhile([&]() {
        return b->state() != bmcast::Instance::State::BareMetal &&
               eq.now() < 40000 * sim::kSec;
    });
    EXPECT_EQ(b->state(), bmcast::Instance::State::BareMetal);
    EXPECT_EQ(served, 0u);
    sim::Lba img_sectors = (512 * sim::kMiB) / sim::kSectorSize;
    EXPECT_TRUE(
        node.disk().store().rangeHasBase(0, img_sectors, kCentos));
}

TEST(Cloud, DoubleReleaseIsFatal)
{
    sim::EventQueue eq;
    bmcast::Cloud cloud(eq, "region", testConfig(1));
    cloud.addImage("img", 16 * sim::kMiB, kUbuntu);
    bmcast::Instance *a = cloud.provision("img", nullptr);
    ASSERT_NE(a, nullptr);
    cloud.releaseLease(a->lease());
    EXPECT_THROW(cloud.releaseLease(a->lease()), sim::FatalError);
}

TEST(Cloud, UnknownImageIsFatal)
{
    sim::EventQueue eq;
    bmcast::Cloud cloud(eq, "region", testConfig(1));
    EXPECT_THROW(cloud.provision("nope", nullptr), sim::FatalError);
}

TEST(Cloud, DuplicateImageIsFatal)
{
    sim::EventQueue eq;
    bmcast::Cloud cloud(eq, "region", testConfig(1));
    cloud.addImage("img", 16 * sim::kMiB, kUbuntu);
    EXPECT_THROW(cloud.addImage("img", 16 * sim::kMiB, kCentos),
                 sim::FatalError);
}

TEST(Cloud, RackAwarePlacementSpreadsAcrossRacks)
{
    // 8 machines striped over 4 racks: the first four leases must
    // land in four different racks (ties break toward the lower
    // rack), not fill rack 0's two slots first.
    sim::EventQueue eq;
    bmcast::CloudConfig cfg = testConfig(8);
    cfg.racks = 4;
    bmcast::Cloud cloud(eq, "region", cfg);
    cloud.addImage("img", 16 * sim::kMiB, kUbuntu);

    std::vector<bmcast::Instance *> fleet;
    for (unsigned i = 0; i < 4; ++i)
        fleet.push_back(cloud.provision("img", nullptr));
    for (unsigned i = 0; i < 4; ++i) {
        ASSERT_NE(fleet[i], nullptr);
        EXPECT_EQ(fleet[i]->rack(), i);
        EXPECT_EQ(cloud.rackLoad(i), 1u);
    }
    // The next wave doubles up, one per rack again.
    for (unsigned i = 0; i < 4; ++i) {
        bmcast::Instance *inst = cloud.provision("img", nullptr);
        ASSERT_NE(inst, nullptr);
        EXPECT_EQ(inst->rack(), i);
        EXPECT_EQ(cloud.rackLoad(i), 2u);
    }
    EXPECT_EQ(cloud.freeMachines(), 0u);
}

TEST(Cloud, SingleRackPlacementKeepsHistoricalOrder)
{
    // racks=1 (the default) must replay the historical
    // lowest-free-slot order: machine() pointers lease ascending.
    sim::EventQueue eq;
    bmcast::Cloud cloud(eq, "region", testConfig(3));
    cloud.addImage("img", 16 * sim::kMiB, kUbuntu);
    bmcast::Instance *a = cloud.provision("img", nullptr);
    bmcast::Instance *b = cloud.provision("img", nullptr);
    ASSERT_NE(a, nullptr);
    ASSERT_NE(b, nullptr);
    EXPECT_EQ(a->rack(), 0u);
    EXPECT_EQ(b->rack(), 0u);
    hw::Machine *slot0 = &a->machine();
    EXPECT_NE(slot0, &b->machine());
    cloud.releaseLease(a->lease());
    // The freed slot 0 is re-leased before the untouched slot 2.
    bmcast::Instance *c = cloud.provision("img", nullptr);
    ASSERT_NE(c, nullptr);
    EXPECT_EQ(&c->machine(), slot0);
}

} // namespace
