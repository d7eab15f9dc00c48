/**
 * @file
 * Integration tests of the full BMcast deployment pipeline: VMM
 * netboot, guest boot under copy-on-read, background copy,
 * de-virtualization, and data correctness end to end.
 */

#include <gtest/gtest.h>

#include "bmcast/deployer.hh"
#include "hw/disk_store.hh"
#include "tests/test_util.hh"

using namespace testutil;

namespace {

class DeployTest : public ::testing::TestWithParam<hw::StorageKind>
{
};

TEST_P(DeployTest, FullDeploymentReachesBareMetal)
{
    RigOptions opt;
    opt.storage = GetParam();
    Rig rig(opt);

    bmcast::BmcastDeployer dep(rig.eq, "dep", *rig.machine,
                               *rig.guest, {kServerMac},
                               opt.imageSectors, rig.fastVmmParams(),
                               /*coldFirmware=*/false);

    bool guest_ready = false;
    dep.run([&]() { guest_ready = true; });

    ASSERT_TRUE(runUntil(rig.eq, 4000 * sim::kSec,
                         [&]() { return dep.bareMetalReached(); }))
        << "deployment never reached bare metal";
    EXPECT_TRUE(guest_ready);
    EXPECT_TRUE(rig.guest->isReady());

    // Timeline ordering.
    const auto &tl = dep.timeline();
    EXPECT_LT(tl.vmmReady, tl.guestBootDone);
    EXPECT_LE(tl.copyComplete, tl.bareMetal);

    // Every image sector is on the local disk with image content
    // (modulo guest-written blocks — the guest only read here).
    EXPECT_TRUE(rig.machine->disk().store().rangeHasBase(
        0, opt.imageSectors, kImageBase));

    // De-virtualization is structural: no intercepts remain, profile
    // is bare metal, nested paging off everywhere.
    EXPECT_FALSE(rig.machine->bus().anyInterceptActive());
    EXPECT_FALSE(rig.machine->profile().virtualized);
    EXPECT_FALSE(rig.machine->vmx().anyNestedPaging());
}

TEST_P(DeployTest, GuestReadsSeeImageContentDuringDeployment)
{
    RigOptions opt;
    opt.storage = GetParam();
    Rig rig(opt);

    bmcast::BmcastDeployer dep(rig.eq, "dep", *rig.machine,
                               *rig.guest, {kServerMac},
                               opt.imageSectors, rig.fastVmmParams(),
                               false);

    bool guest_ready = false;
    dep.run([&]() { guest_ready = true; });
    ASSERT_TRUE(runUntil(rig.eq, 400 * sim::kSec,
                         [&]() { return guest_ready; }));

    // Read a block that has certainly not been background-copied
    // yet... or has been; either way content must equal the image.
    sim::Lba lba = opt.imageSectors - 64;
    std::vector<std::uint64_t> got;
    rig.guest->blk().read(lba, 16,
                          [&](const std::vector<std::uint64_t> &t) {
                              got = t;
                          });
    ASSERT_TRUE(runUntil(rig.eq, 4000 * sim::kSec,
                         [&]() { return !got.empty(); }));
    ASSERT_EQ(got.size(), 16u);
    for (std::uint32_t i = 0; i < 16; ++i)
        EXPECT_EQ(got[i], hw::sectorToken(kImageBase, lba + i))
            << "sector " << i;
}

TEST_P(DeployTest, GuestWriteSurvivesBackgroundCopy)
{
    RigOptions opt;
    opt.storage = GetParam();
    Rig rig(opt);

    bmcast::BmcastDeployer dep(rig.eq, "dep", *rig.machine,
                               *rig.guest, {kServerMac},
                               opt.imageSectors, rig.fastVmmParams(),
                               false);

    bool guest_ready = false;
    dep.run([&]() { guest_ready = true; });
    ASSERT_TRUE(runUntil(rig.eq, 400 * sim::kSec,
                         [&]() { return guest_ready; }));

    // Overwrite a not-yet-deployed block, then let deployment finish.
    const std::uint64_t my_base = 0x1111000000000001ULL;
    sim::Lba lba = opt.imageSectors / 2;
    bool wrote = false;
    rig.guest->blk().write(lba, 64, my_base, [&]() { wrote = true; });
    ASSERT_TRUE(
        runUntil(rig.eq, 4000 * sim::kSec, [&]() { return wrote; }));

    ASSERT_TRUE(runUntil(rig.eq, 8000 * sim::kSec,
                         [&]() { return dep.bareMetalReached(); }));

    // The guest's data must have survived the background copy.
    EXPECT_TRUE(rig.machine->disk().store().rangeHasBase(lba, 64,
                                                         my_base));
    // And a read after de-virtualization returns it.
    std::vector<std::uint64_t> got;
    rig.guest->blk().read(lba, 64,
                          [&](const std::vector<std::uint64_t> &t) {
                              got = t;
                          });
    ASSERT_TRUE(runUntil(rig.eq, 100 * sim::kSec,
                         [&]() { return !got.empty(); }));
    for (std::uint32_t i = 0; i < 64; ++i)
        EXPECT_EQ(got[i], hw::sectorToken(my_base, lba + i));
}

TEST_P(DeployTest, ServerSendsEachImageByteOnce)
{
    RigOptions opt;
    opt.storage = GetParam();
    // Small enough that the retriever reaches every range the guest
    // read before that range's copy-on-read stash lands, so the
    // retriever fetches the whole image.
    opt.imageSectors = (16 * sim::kMiB) / sim::kSectorSize;
    Rig rig(opt);

    bmcast::BmcastDeployer dep(rig.eq, "dep", *rig.machine,
                               *rig.guest, {kServerMac},
                               opt.imageSectors, rig.fastVmmParams(),
                               false);
    dep.run([]() {});
    ASSERT_TRUE(runUntil(rig.eq, 4000 * sim::kSec,
                         [&]() { return dep.bareMetalReached(); }));

    // Fault-free: every image sector crosses the wire once for the
    // copy, plus once more per redirected guest read. A re-fetched
    // queued range or a served duplicate request would show up as
    // surplus bytes.
    const sim::Bytes redirected =
        sim::Bytes(dep.vmm().mediator().stats().redirectedSectors) *
        sim::kSectorSize;
    EXPECT_GT(redirected, 0u);
    EXPECT_EQ(rig.server->dataBytesOut(),
              sim::Bytes(opt.imageSectors) * sim::kSectorSize +
                  redirected);
    EXPECT_EQ(rig.server->duplicatesSuppressed(), 0u);
}

INSTANTIATE_TEST_SUITE_P(AllControllers, DeployTest,
                         ::testing::Values(hw::StorageKind::Ide,
                                           hw::StorageKind::Ahci,
                                           hw::StorageKind::Nvme),
                         [](const auto &info) {
                             return storageName(info.param);
                         });

// The bare-metal hooks are single slots: a second registration while
// one is pending would silently replace the first, so it is fatal.
// Once bare metal is reached, a hook fires immediately.
TEST(BareMetalHook, SecondRegistrationWhilePendingIsFatal)
{
    Rig rig;
    bmcast::BmcastDeployer dep(rig.eq, "dep", *rig.machine, *rig.guest,
                               {kServerMac}, rig.opts.imageSectors,
                               rig.fastVmmParams(), false);
    int fired = 0;
    dep.onBareMetal([&]() { ++fired; });
    EXPECT_THROW(dep.onBareMetal([]() {}), sim::FatalError);
    // run() hooks the VMM for the deployer's own timeline.
    dep.vmm().onBareMetal([]() {});
    EXPECT_THROW(dep.run(nullptr), sim::FatalError);

    bmcast::BmcastDeployer dep2(rig.eq, "dep2", *rig.machine,
                                *rig.guest, {kServerMac},
                                rig.opts.imageSectors,
                                rig.fastVmmParams(), false);
    dep2.run(nullptr);
    ASSERT_TRUE(runUntil(rig.eq, 4000 * sim::kSec,
                         [&]() { return dep2.bareMetalReached(); }));
    bool late = false;
    dep2.onBareMetal([&]() { late = true; });
    EXPECT_TRUE(late);
    EXPECT_EQ(fired, 0);
}

} // namespace
