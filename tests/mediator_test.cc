/**
 * @file
 * Device-mediator and BMcast-core tests: I/O interpretation and
 * redirection mechanics (dummy restarts, virtual DMA into guest
 * buffers), multiplexing (status emulation, queued guest writes,
 * interrupt suppression), the consistency bitmap under adversarial
 * interleavings, reserved-region protection, bitmap persistence and
 * resume, moderation behaviour, de-virtualization invariants, and
 * the exit-accounting story (minimal exits during deployment, zero
 * after).
 */

#include <gtest/gtest.h>

#include "bmcast/block_bitmap.hh"
#include "bmcast/vmm.hh"
#include "tests/test_util.hh"

using namespace testutil;

namespace {

// --- BlockBitmap unit tests ---

TEST(BlockBitmap, EmptyUntilMarked)
{
    bmcast::BlockBitmap bm(1000);
    EXPECT_TRUE(bm.anyEmpty(0, 1000));
    EXPECT_TRUE(bm.claimForVmmWrite(0, 100));
    bm.markFilled(10, 20);
    EXPECT_TRUE(bm.isFilled(10, 20));
    EXPECT_FALSE(bm.isFilled(9, 2));
    EXPECT_FALSE(bm.claimForVmmWrite(0, 100)) << "overlap vetoes";
    EXPECT_TRUE(bm.claimForVmmWrite(30, 100));
}

TEST(BlockBitmap, EmptyRangesDecomposition)
{
    bmcast::BlockBitmap bm(100);
    bm.markFilled(20, 10);
    bm.markFilled(50, 10);
    auto gaps = bm.emptyRanges(10, 60);
    ASSERT_EQ(gaps.size(), 3u);
    EXPECT_EQ(gaps[0], sim::IntervalSet::Range(10, 20));
    EXPECT_EQ(gaps[1], sim::IntervalSet::Range(30, 50));
    EXPECT_EQ(gaps[2], sim::IntervalSet::Range(60, 70));
}

TEST(BlockBitmap, CompleteDetection)
{
    bmcast::BlockBitmap bm(64);
    bm.markFilled(0, 32);
    EXPECT_FALSE(bm.complete());
    bm.markFilled(32, 32);
    EXPECT_TRUE(bm.complete());
    EXPECT_FALSE(bm.firstEmpty(0).has_value());
}

TEST(BlockBitmap, PersistRestoreRoundTrip)
{
    bmcast::BlockBitmap bm(4096);
    bm.markFilled(100, 50);
    bm.markFilled(1000, 500);
    std::uint64_t token = bm.serializeToken();
    ASSERT_NE(token, 0u);

    bmcast::BlockBitmap other(4096);
    EXPECT_TRUE(other.restoreFromToken(token));
    EXPECT_TRUE(other.isFilled(100, 50));
    EXPECT_TRUE(other.isFilled(1000, 500));
    EXPECT_EQ(other.filledCount(), bm.filledCount());

    // Garbage tokens are rejected.
    bmcast::BlockBitmap third(4096);
    EXPECT_FALSE(third.restoreFromToken(0xDEAD));
}

TEST(BlockBitmap, MarkBeyondDevicePanics)
{
    bmcast::BlockBitmap bm(100);
    EXPECT_THROW(bm.markFilled(90, 20), sim::PanicError);
}

// --- Full-stack mediator behaviour (both controllers) ---

struct DeployedRig
{
    explicit DeployedRig(hw::StorageKind kind,
                         sim::Tick writeInterval = 50 * sim::kMs)
        : opts(makeOpts(kind)), rig(opts)
    {
        bmcast::VmmParams p;
        p.moderation.vmmWriteInterval = writeInterval;
        p.moderation.guestIoFreqThreshold = 1e9;
        vmm = std::make_unique<bmcast::Vmm>(
            rig.eq, "vmm", *rig.machine,
            std::vector<net::MacAddr>{kServerMac}, opts.imageSectors, p);
        bool ready = false;
        vmm->netboot([&]() { ready = true; });
        run(60 * sim::kSec, [&]() { return ready; });
        // Boot a tiny guest so drivers are initialized.
        bool booted = false;
        rig.guest->start([&]() { booted = true; });
        run(400 * sim::kSec, [&]() { return booted; });
    }

    static RigOptions
    makeOpts(hw::StorageKind kind)
    {
        RigOptions o;
        o.storage = kind;
        o.imageSectors = (32 * sim::kMiB) / sim::kSectorSize;
        return o;
    }

    template <typename Pred>
    bool
    run(sim::Tick limit, Pred &&pred)
    {
        return runUntil(rig.eq, rig.eq.now() + limit, pred);
    }

    guest::BlockDriver &blk() { return rig.guest->blk(); }

    RigOptions opts;
    Rig rig;
    std::unique_ptr<bmcast::Vmm> vmm;
};

class MediatorTest : public ::testing::TestWithParam<hw::StorageKind>
{
};

TEST_P(MediatorTest, RedirectionUsesDummyRestart)
{
    DeployedRig d(GetParam());
    auto before = d.vmm->mediator().stats();

    std::vector<std::uint64_t> got;
    sim::Lba lba = d.opts.imageSectors - 256;
    d.blk().read(lba, 64, [&](const auto &t) { got = t; });
    ASSERT_TRUE(d.run(60 * sim::kSec, [&]() { return !got.empty(); }));

    auto after = d.vmm->mediator().stats();
    EXPECT_EQ(after.redirectedReads, before.redirectedReads + 1);
    EXPECT_EQ(after.dummyRestarts, before.dummyRestarts + 1);
    EXPECT_GE(after.redirectedSectors, before.redirectedSectors + 64);
    for (std::uint32_t i = 0; i < 64; ++i)
        EXPECT_EQ(got[i], hw::sectorToken(kImageBase, lba + i));
}

TEST_P(MediatorTest, SecondReadIsLocalAfterCopyOnRead)
{
    DeployedRig d(GetParam());
    sim::Lba lba = d.opts.imageSectors - 512;

    std::vector<std::uint64_t> got;
    d.blk().read(lba, 64, [&](const auto &t) { got = t; });
    ASSERT_TRUE(d.run(60 * sim::kSec, [&]() { return !got.empty(); }));

    // Wait for the stash write to land (bitmap FILLED).
    ASSERT_TRUE(d.run(60 * sim::kSec, [&]() {
        return d.vmm->bitmap().isFilled(lba, 64);
    }));

    auto before = d.vmm->mediator().stats();
    got.clear();
    d.blk().read(lba, 64, [&](const auto &t) { got = t; });
    ASSERT_TRUE(d.run(60 * sim::kSec, [&]() { return !got.empty(); }));
    auto after = d.vmm->mediator().stats();
    EXPECT_EQ(after.redirectedReads, before.redirectedReads)
        << "second read must be served locally";
    EXPECT_EQ(after.passthroughReads, before.passthroughReads + 1);
    for (std::uint32_t i = 0; i < 64; ++i)
        EXPECT_EQ(got[i], hw::sectorToken(kImageBase, lba + i));
}

TEST_P(MediatorTest, MixedRedirectMergesLocalAndRemote)
{
    DeployedRig d(GetParam());
    const std::uint64_t mine = 0x1212000000000001ULL;
    sim::Lba lba = d.opts.imageSectors - 1024;

    // Guest writes the middle of the range first.
    bool wrote = false;
    d.blk().write(lba + 16, 16, mine, [&]() { wrote = true; });
    ASSERT_TRUE(d.run(60 * sim::kSec, [&]() { return wrote; }));

    auto before = d.vmm->mediator().stats();
    std::vector<std::uint64_t> got;
    d.blk().read(lba, 48, [&](const auto &t) { got = t; });
    ASSERT_TRUE(d.run(60 * sim::kSec, [&]() { return !got.empty(); }));
    auto after = d.vmm->mediator().stats();
    EXPECT_EQ(after.mixedRedirects, before.mixedRedirects + 1);

    // The FILLED middle must come from the local disk (the guest's
    // fresher data), the rest from the server.
    for (std::uint32_t i = 0; i < 48; ++i) {
        std::uint64_t want =
            (i >= 16 && i < 32) ? hw::sectorToken(mine, lba + i)
                                : hw::sectorToken(kImageBase, lba + i);
        ASSERT_EQ(got[i], want) << "sector " << i;
    }
}

TEST_P(MediatorTest, GuestWritesNeverLostToBackgroundCopy)
{
    // Adversarial interleaving: random guest writes race the
    // background copy; at the end, every guest write must have won.
    DeployedRig d(GetParam(), 2 * sim::kMs);
    sim::Rng rng(31337);
    std::vector<std::pair<sim::Lba, std::uint32_t>> writes;
    unsigned done = 0, issued = 0;

    for (int i = 0; i < 40; ++i) {
        sim::Lba lba =
            rng.uniformInt(0, d.opts.imageSectors - 70) & ~7ULL;
        auto n = static_cast<std::uint32_t>(rng.uniformInt(1, 64));
        std::uint64_t base = (0x5500ULL + i) << 32 | 1;
        writes.emplace_back(lba, n);
        ++issued;
        d.blk().write(lba, n, base, [&done]() { ++done; });
        // Stagger the writes through the deployment.
        d.rig.eq.runUntil(d.rig.eq.now() +
                          rng.uniformInt(1, 40) * sim::kMs);
    }
    ASSERT_TRUE(d.run(4000 * sim::kSec, [&]() {
        return done == issued && d.vmm->backgroundCopy().complete();
    }));

    // Later writes may overwrite earlier ones; verify
    // last-writer-wins against a reference replay.
    hw::DiskStore ref;
    ref.write(0, d.opts.imageSectors, kImageBase);
    for (std::size_t i = 0; i < writes.size(); ++i) {
        ref.write(writes[i].first, writes[i].second,
                  (0x5500ULL + i) << 32 | 1);
    }
    for (sim::Lba lba = 0; lba < d.opts.imageSectors; lba += 7) {
        ASSERT_EQ(d.rig.machine->disk().store().baseAt(lba),
                  ref.baseAt(lba))
            << "lba " << lba;
    }
}

TEST_P(MediatorTest, MultiplexedWriteWhileGuestBusy)
{
    DeployedRig d(GetParam());
    // Keep the guest busy with a stream of reads of FILLED data.
    const std::uint64_t mine = 0x3434000000000001ULL;
    bool laid = false;
    d.blk().write(2048, 2048, mine, [&]() { laid = true; });
    ASSERT_TRUE(d.run(60 * sim::kSec, [&]() { return laid; }));

    std::function<void()> pump = [&]() {
        d.blk().read(2048, 256, [&](const auto &) { pump(); });
    };
    pump();

    // Inject VMM writes; they must complete despite guest traffic.
    unsigned vmm_done = 0;
    std::function<void(sim::Lba)> post = [&](sim::Lba lba) {
        bool ok = d.vmm->mediator().vmmWrite(
            lba, 128, 0xABAB000000000001ULL,
            [&vmm_done]() { ++vmm_done; });
        if (!ok)
            d.rig.eq.schedule(1 * sim::kMs,
                              [&post, lba]() { post(lba); });
    };
    for (int i = 0; i < 4; ++i)
        post(40960 + sim::Lba(i) * 128);
    ASSERT_TRUE(
        d.run(200 * sim::kSec, [&]() { return vmm_done == 4; }));
    EXPECT_TRUE(d.rig.machine->disk().store().rangeHasBase(
        40960, 128, 0xABAB000000000001ULL));
    EXPECT_GT(d.vmm->mediator().stats().queuedGuestWrites, 0u);
}

TEST_P(MediatorTest, ReservedRegionProtectedFromGuest)
{
    DeployedRig d(GetParam());
    sim::Lba home = d.vmm->bitmapHomeLba();

    // A guest write aimed at the bitmap home is dropped...
    bool wrote = false;
    d.blk().write(home, 8, 0x6666000000000001ULL,
                  [&]() { wrote = true; });
    ASSERT_TRUE(d.run(60 * sim::kSec, [&]() { return wrote; }))
        << "the dropped write must still complete for the guest";
    EXPECT_FALSE(d.rig.machine->disk().store().rangeHasBase(
        home, 8, 0x6666000000000001ULL));
    EXPECT_GT(d.vmm->mediator().stats().reservedConversions, 0u);

    // ...and a guest read of the region returns zeros, not bitmap
    // bytes.
    std::vector<std::uint64_t> got;
    d.blk().read(home, 8, [&](const auto &t) { got = t; });
    ASSERT_TRUE(d.run(60 * sim::kSec, [&]() { return !got.empty(); }));
    for (auto t : got)
        EXPECT_EQ(t, 0u);
}

TEST_P(MediatorTest, DevirtualizationIsCompleteAndExitFree)
{
    DeployedRig d(GetParam(), 2 * sim::kMs);
    bool bare = false;
    d.vmm->onBareMetal([&]() { bare = true; });
    ASSERT_TRUE(d.run(4000 * sim::kSec, [&]() { return bare; }));

    EXPECT_FALSE(d.rig.machine->bus().anyInterceptActive());
    EXPECT_FALSE(d.rig.machine->vmx().anyNestedPaging());
    EXPECT_FALSE(d.rig.machine->profile().virtualized);

    // Zero overhead after de-virtualization: guest I/O causes no
    // further VM exits.
    auto exits_before = d.rig.machine->bus().interceptedAccesses();
    bool done = false;
    d.blk().read(100, 64, [&](const auto &) { done = true; });
    ASSERT_TRUE(d.run(60 * sim::kSec, [&]() { return done; }));
    EXPECT_EQ(d.rig.machine->bus().interceptedAccesses(),
              exits_before);
}

TEST_P(MediatorTest, ExitAccountingDuringDeployment)
{
    DeployedRig d(GetParam());
    auto &vmx = d.rig.machine->vmx();
    // Storage-access exits happened during the guest boot.
    EXPECT_GT(vmx.exits(GetParam() == hw::StorageKind::Ide
                            ? hw::ExitReason::PioAccess
                            : hw::ExitReason::MmioAccess),
              0u);
    // The preemption-timer poll loop is running.
    EXPECT_GT(vmx.exits(hw::ExitReason::PreemptionTimer), 0u);
}

TEST_P(MediatorTest, BitmapSurvivesRebootAndResumes)
{
    DeployedRig d(GetParam(), 5 * sim::kMs);
    // Let some copying happen, then crash the VMM.
    d.rig.eq.runUntil(d.rig.eq.now() + 20 * sim::kSec);
    bool saved = false;
    d.vmm->saveBitmapNow([&]() { saved = true; });
    ASSERT_TRUE(d.run(60 * sim::kSec, [&]() { return saved; }));
    sim::Lba filled = d.vmm->bitmap().filledCount();
    ASSERT_GT(filled, 0u);
    d.vmm->powerOff();

    bmcast::VmmParams p;
    p.moderation.vmmWriteInterval = 5 * sim::kMs;
    p.moderation.guestIoFreqThreshold = 1e9;
    bmcast::Vmm vmm2(d.rig.eq, "vmm2", *d.rig.machine, {kServerMac},
                     d.opts.imageSectors, p);
    bool ready = false;
    vmm2.netboot([&]() { ready = true; });
    ASSERT_TRUE(d.run(60 * sim::kSec, [&]() { return ready; }));
    EXPECT_GE(vmm2.bitmap().filledCount(), filled)
        << "resume must not restart from scratch";

    bool bare = false;
    vmm2.onBareMetal([&]() { bare = true; });
    ASSERT_TRUE(d.run(4000 * sim::kSec, [&]() { return bare; }));
    EXPECT_TRUE(d.rig.machine->disk().store().rangeHasBase(
        0, d.opts.imageSectors, kImageBase));
}

INSTANTIATE_TEST_SUITE_P(AllControllers, MediatorTest,
                         ::testing::Values(hw::StorageKind::Ide,
                                           hw::StorageKind::Ahci,
                                           hw::StorageKind::Nvme),
                         [](const auto &info) {
                             return storageName(info.param);
                         });

// --- Moderation ---

TEST(Moderation, WriterSuspendsUnderGuestLoad)
{
    RigOptions o;
    o.imageSectors = (64 * sim::kMiB) / sim::kSectorSize;
    Rig rig(o);
    bmcast::VmmParams p;
    p.moderation.vmmWriteInterval = 10 * sim::kMs;
    p.moderation.guestIoFreqThreshold = 20.0;
    p.moderation.vmmWriteSuspendInterval = 100 * sim::kMs;
    bmcast::Vmm vmm(rig.eq, "vmm", *rig.machine, {kServerMac},
                    o.imageSectors, p);
    bool ready = false;
    vmm.netboot([&]() { ready = true; });
    runUntil(rig.eq, 60 * sim::kSec, [&]() { return ready; });
    bool booted = false;
    rig.guest->start([&]() { booted = true; });
    runUntil(rig.eq, 1000 * sim::kSec, [&]() { return booted; });

    // Hammer the disk with small guest ops (> threshold).
    bool laid = false;
    rig.guest->blk().write(0, 2048, 0x777ULL << 8 | 1,
                           [&]() { laid = true; });
    runUntil(rig.eq, 100 * sim::kSec, [&]() { return laid; });

    sim::Bytes before = vmm.backgroundCopy().bytesWritten();
    unsigned reads = 0;
    std::function<void()> pump = [&]() {
        rig.guest->blk().read(0, 16, [&](const auto &) {
            ++reads;
            pump();
        });
    };
    pump();
    rig.eq.runUntil(rig.eq.now() + 10 * sim::kSec);
    sim::Bytes during = vmm.backgroundCopy().bytesWritten() - before;

    EXPECT_GT(vmm.backgroundCopy().suspensions(), 10u);
    // Writer nearly stopped: far below the unmoderated ~100 MB/s.
    EXPECT_LT(during, 12 * sim::kMiB);
    EXPECT_GT(reads, 100u);
}

} // namespace
