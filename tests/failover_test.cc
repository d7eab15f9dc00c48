/**
 * @file
 * Deployment failover tests: the primary AoE server crashes
 * mid-stream and the deployment must finish from the secondary,
 * resuming from the block bitmap with no block written twice and a
 * final disk image byte-identical to a fault-free run. Also covers
 * sole-server crash + supervised restart recovery and the background
 * copy's graceful degradation under sustained fetch errors.
 */

#include <gtest/gtest.h>

#include "bmcast/deployer.hh"
#include "simcore/fault_injector.hh"
#include "tests/test_util.hh"

using namespace testutil;
using sim::FaultSite;

namespace {

/** VMM parameters that detect a dead server quickly. Only the retry
 *  budget shrinks; the timeout floor stays at the production value —
 *  it must remain above a loaded server's worst-case service time
 *  (seek + media + wire for a 1 MiB block), or spurious
 *  retransmissions of healthy requests pile duplicate full-size jobs
 *  onto the server faster than they drain (congestion collapse). */
bmcast::VmmParams
failoverParams(const Rig &rig)
{
    bmcast::VmmParams p = rig.fastVmmParams();
    p.aoeMaxRetries = 4;
    return p;
}

// --- Primary dies at 25/50/75% of the deployment ---

class FailoverAt : public ::testing::TestWithParam<int>
{
};

TEST_P(FailoverAt, PrimaryCrashMidStreamCompletesFromSecondary)
{
    RigOptions o;
    o.imageSectors = (32 * sim::kMiB) / sim::kSectorSize;
    o.secondaryServer = true;
    Rig rig(o);

    bmcast::BmcastDeployer dep(
        rig.eq, "dep", *rig.machine, *rig.guest,
        std::vector<net::MacAddr>{kServerMac, kServer2Mac},
        o.imageSectors, failoverParams(rig), false);

    // Per-sector write counts: the IntervalSet-backed bitmap must
    // never let the VMM write a block twice, even across a failover
    // that retransmits every outstanding request.
    std::vector<std::uint8_t> writes(o.imageSectors, 0);
    std::uint64_t dupes = 0;
    bool observing = false;
    bool killed = false;
    sim::Lba baseFilled = 0;
    const sim::Lba killProgress =
        o.imageSectors * static_cast<sim::Lba>(GetParam()) / 100;

    dep.run([]() {});
    ASSERT_TRUE(runUntil(rig.eq, 40000 * sim::kSec, [&]() {
        bmcast::Vmm &vmm = dep.vmm();
        if (!observing &&
            vmm.phase() == bmcast::Vmm::Phase::Deployment) {
            observing = true;
            // filledCount() includes the pre-marked beyond-image
            // region; progress is measured relative to this baseline.
            baseFilled = vmm.bitmap().filledCount();
            vmm.backgroundCopy().addWriteObserver(
                [&](sim::Lba lba, std::uint32_t n) {
                    for (std::uint32_t i = 0; i < n; ++i) {
                        if (lba + i < o.imageSectors &&
                            ++writes[lba + i] > 1)
                            ++dupes;
                    }
                });
        }
        if (observing && !killed &&
            vmm.bitmap().filledCount() - baseFilled >= killProgress) {
            killed = true;
            rig.server->crash(); // stays down for good
        }
        return dep.bareMetalReached();
    })) << "deployment must survive the primary's death at "
        << GetParam() << "%";
    ASSERT_TRUE(killed) << "crash point was never reached";

    bmcast::Vmm &vmm = dep.vmm();
    EXPECT_EQ(vmm.failovers(), 1u);
    EXPECT_EQ(vmm.currentServer(), kServer2Mac);
    EXPECT_GE(vmm.fetchErrors(), 1u);
    EXPECT_EQ(rig.server->crashes(), 1u);
    EXPECT_FALSE(rig.server->online());
    EXPECT_GT(rig.server2->requestsServed(), 0u)
        << "the secondary never served anything";

    // No duplicate block writes, full single-pass coverage.
    EXPECT_EQ(dupes, 0u);
    sim::Lba writtenOnce = 0;
    for (sim::Lba s = 0; s < o.imageSectors; ++s)
        writtenOnce += writes[s] == 1;
    EXPECT_EQ(writtenOnce, o.imageSectors);
    EXPECT_EQ(vmm.backgroundCopy().bytesWritten(),
              sim::Bytes(o.imageSectors) * sim::kSectorSize);

    // Byte-identical to a fault-free deployment.
    EXPECT_TRUE(rig.machine->disk().store().rangeHasBase(
        0, o.imageSectors, kImageBase));
}

INSTANTIATE_TEST_SUITE_P(KillPoints, FailoverAt,
                         ::testing::Values(25, 50, 75),
                         [](const auto &info) {
                             return "At" +
                                    std::to_string(info.param) +
                                    "Pct";
                         });

// --- Sole server: crash + supervised auto-restart ---

TEST(Failover, SoleServerCrashAutoRestartRecovers)
{
    RigOptions o;
    o.imageSectors = (16 * sim::kMiB) / sim::kSectorSize;
    Rig rig(o);

    sim::FaultInjector fi(99);
    sim::SitePlan crash;
    crash.fireOn = {15}; // 15th request mid-stream
    crash.magnitude = 500 * sim::kMs; // supervisor restart delay
    fi.arm(FaultSite::ServerCrash, crash);
    rig.attachInjector(fi);

    bmcast::BmcastDeployer dep(rig.eq, "dep", *rig.machine,
                               *rig.guest, {kServerMac}, o.imageSectors,
                               failoverParams(rig), false);
    dep.run([]() {});
    ASSERT_TRUE(runUntil(rig.eq, 40000 * sim::kSec,
                         [&]() { return dep.bareMetalReached(); }));

    EXPECT_EQ(fi.triggers(FaultSite::ServerCrash), 1u);
    EXPECT_EQ(fi.triggers(FaultSite::ServerRestart), 1u);
    EXPECT_EQ(rig.server->crashes(), 1u);
    EXPECT_EQ(rig.server->restarts(), 1u);
    EXPECT_TRUE(rig.server->online());
    EXPECT_GT(rig.server->framesDroppedOffline(), 0u)
        << "retransmissions during the outage should have hit a "
           "dead server";
    // Single-server chain: recovery, not failover.
    EXPECT_EQ(dep.vmm().failovers(), 0u);
    EXPECT_TRUE(rig.machine->disk().store().rangeHasBase(
        0, o.imageSectors, kImageBase));
}

// --- Graceful degradation of the background copy ---

TEST(Failover, FetchTroubleDegradesPacingThenRecovers)
{
    RigOptions o;
    o.imageSectors = (16 * sim::kMiB) / sim::kSectorSize;
    Rig rig(o);

    bmcast::VmmParams p = failoverParams(rig);
    p.aoeMaxRetries = 2; // errors surface fast

    bmcast::BmcastDeployer dep(rig.eq, "dep", *rig.machine,
                               *rig.guest, {kServerMac}, o.imageSectors,
                               p, false);

    bool observing = false, killed = false, restarted = false;
    sim::Lba baseFilled = 0;
    sim::Tick crashedAt = 0;
    unsigned peakShift = 0;

    dep.run([]() {});
    ASSERT_TRUE(runUntil(rig.eq, 40000 * sim::kSec, [&]() {
        bmcast::Vmm &vmm = dep.vmm();
        if (!observing &&
            vmm.phase() == bmcast::Vmm::Phase::Deployment) {
            observing = true;
            baseFilled = vmm.bitmap().filledCount();
        }
        if (observing && !killed &&
            vmm.bitmap().filledCount() - baseFilled >=
                o.imageSectors / 10) {
            killed = true;
            crashedAt = rig.eq.now();
            rig.server->crash();
        }
        if (killed && !restarted) {
            peakShift = std::max(
                peakShift, vmm.backgroundCopy().backoffShift());
            if (rig.eq.now() > crashedAt + 1 * sim::kSec) {
                restarted = true;
                rig.server->restart();
            }
        }
        return dep.bareMetalReached();
    }));
    ASSERT_TRUE(killed);
    ASSERT_TRUE(restarted);

    bmcast::BackgroundCopy &copy = dep.vmm().backgroundCopy();
    EXPECT_GT(copy.degradeEvents(), 0u)
        << "a second of dead fetch path must slow the writer";
    EXPECT_GT(peakShift, 0u);
    EXPECT_EQ(copy.backoffShift(), 0u)
        << "a successful fetch must restore full-speed pacing";
    EXPECT_GE(dep.vmm().fetchErrors(), 1u);
    EXPECT_TRUE(rig.machine->disk().store().rangeHasBase(
        0, o.imageSectors, kImageBase));
}

} // namespace
