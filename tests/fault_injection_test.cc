/**
 * @file
 * Fault-injection and edge-case tests built on sim::FaultInjector:
 * injector semantics (scripted plans, key filters, budgets,
 * determinism), a chaos matrix deploying under every fault plan x
 * every storage controller and asserting byte-identical final disk
 * images plus exact trigger counts, seed-sweep determinism of chaotic
 * runs, the AoE initiator's retry budget and terminal-error surface,
 * AoE parser fuzzing, mediator behaviour at region boundaries,
 * moderation edge settings, and the VMM memory reservation.
 */

#include <gtest/gtest.h>

#include <tuple>

#include "aoe/protocol.hh"
#include "bench/migrate_world.hh"
#include "bmcast/cloud.hh"
#include "bmcast/deployer.hh"
#include "migrate/migration.hh"
#include "net/l2.hh"
#include "simcore/fault_injector.hh"
#include "tests/test_util.hh"

using namespace testutil;
using sim::FaultSite;

namespace {

// --- FaultInjector semantics ---

TEST(FaultInjectorUnit, UnarmedSiteNeverCountsOrFires)
{
    sim::FaultInjector fi(7);
    EXPECT_FALSE(fi.anyActive());
    for (int i = 0; i < 100; ++i)
        EXPECT_FALSE(fi.shouldFire(FaultSite::NetDrop, i));
    EXPECT_EQ(fi.queries(FaultSite::NetDrop), 0u);
    EXPECT_EQ(fi.triggers(FaultSite::NetDrop), 0u);
}

TEST(FaultInjectorUnit, ScriptedPlanFiresOnExactOccurrences)
{
    sim::FaultInjector fi(7);
    sim::SitePlan plan;
    plan.fireOn = {2, 5};
    fi.arm(FaultSite::NetDrop, plan);

    std::vector<int> fired;
    for (int i = 1; i <= 10; ++i) {
        if (fi.shouldFire(FaultSite::NetDrop))
            fired.push_back(i);
    }
    EXPECT_EQ(fired, (std::vector<int>{2, 5}));
    EXPECT_EQ(fi.queries(FaultSite::NetDrop), 10u);
    EXPECT_EQ(fi.stats(FaultSite::NetDrop).eligible, 10u);
    EXPECT_EQ(fi.triggers(FaultSite::NetDrop), 2u);
}

TEST(FaultInjectorUnit, KeyFilterGatesEligibility)
{
    sim::FaultInjector fi(7);
    sim::SitePlan plan;
    plan.fireOn = {1};
    plan.keyLo = 100;
    plan.keyHi = 200;
    fi.arm(FaultSite::DiskReadError, plan);

    EXPECT_FALSE(fi.shouldFire(FaultSite::DiskReadError, 50));
    EXPECT_FALSE(fi.shouldFire(FaultSite::DiskReadError, 201));
    EXPECT_TRUE(fi.shouldFire(FaultSite::DiskReadError, 150));
    EXPECT_EQ(fi.queries(FaultSite::DiskReadError), 3u);
    EXPECT_EQ(fi.stats(FaultSite::DiskReadError).eligible, 1u);
    EXPECT_EQ(fi.triggers(FaultSite::DiskReadError), 1u);
}

TEST(FaultInjectorUnit, TriggerBudgetStopsFiring)
{
    sim::FaultInjector fi(7);
    sim::SitePlan plan;
    plan.probability = 1.0;
    plan.maxTriggers = 3;
    fi.arm(FaultSite::ServerStall, plan);

    int fired = 0;
    for (int i = 0; i < 10; ++i) {
        if (fi.shouldFire(FaultSite::ServerStall))
            ++fired;
    }
    EXPECT_EQ(fired, 3);
    EXPECT_EQ(fi.triggers(FaultSite::ServerStall), 3u);
    EXPECT_FALSE(fi.active(FaultSite::ServerStall))
        << "an exhausted budget means the site can no longer fire";
}

TEST(FaultInjectorUnit, SitesDrawFromIndependentStreams)
{
    // Arming an unrelated site must not perturb another site's
    // probability draws: each site owns its own Rng stream.
    auto sequence = [](sim::FaultInjector &fi) {
        std::vector<bool> s;
        for (int i = 0; i < 200; ++i)
            s.push_back(fi.shouldFire(FaultSite::NetDrop));
        return s;
    };

    sim::FaultInjector alone(42);
    sim::SitePlan drop;
    drop.probability = 0.3;
    alone.arm(FaultSite::NetDrop, drop);

    sim::FaultInjector crowded(42);
    crowded.arm(FaultSite::NetDrop, drop);
    sim::SitePlan other;
    other.probability = 0.5;
    crowded.arm(FaultSite::DiskWriteError, other);
    // Interleave foreign draws; NetDrop's stream must not notice.
    std::vector<bool> a, b;
    for (int i = 0; i < 200; ++i) {
        a.push_back(alone.shouldFire(FaultSite::NetDrop));
        (void)crowded.shouldFire(FaultSite::DiskWriteError);
        b.push_back(crowded.shouldFire(FaultSite::NetDrop));
    }
    EXPECT_EQ(a, b);

    // And the same seed reproduces the same sequence wholesale.
    sim::FaultInjector again(42);
    again.arm(FaultSite::NetDrop, drop);
    EXPECT_EQ(sequence(again), [&]() {
        sim::FaultInjector fresh(42);
        fresh.arm(FaultSite::NetDrop, drop);
        return sequence(fresh);
    }());
}

TEST(FaultInjectorUnit, SummaryNamesTouchedSites)
{
    sim::FaultInjector fi(7);
    sim::SitePlan plan;
    plan.fireOn = {1};
    fi.arm(FaultSite::NetCorrupt, plan);
    (void)fi.shouldFire(FaultSite::NetCorrupt);
    std::string s = fi.summary();
    EXPECT_NE(s.find("net.corrupt"), std::string::npos) << s;
}

TEST(FaultInjectorUnit, StoreSitesAreNamedInSummaries)
{
    sim::FaultInjector fi(7);
    sim::SitePlan plan;
    plan.fireOn = {1};
    fi.arm(FaultSite::StoreSourceTimeout, plan);
    fi.arm(FaultSite::StoreShardCorrupt, plan);
    EXPECT_TRUE(fi.shouldFire(FaultSite::StoreSourceTimeout));
    EXPECT_TRUE(fi.shouldFire(FaultSite::StoreShardCorrupt));
    std::string s = fi.summary();
    EXPECT_NE(s.find("store.source_timeout"), std::string::npos) << s;
    EXPECT_NE(s.find("store.shard_corrupt"), std::string::npos) << s;
}

// --- Store-tier chaos: source timeouts and corrupted shards ---

TEST(StoreChaos, DeploymentSurvivesSourceTimeoutsAndCorruption)
{
    sim::EventQueue eq;
    bmcast::CloudConfig cfg;
    cfg.machines = 1;
    cfg.machineTemplate.disk.capacityBytes = 2 * sim::kGiB;
    cfg.vmm.bootTime = 5 * sim::kSec;
    cfg.vmm.moderation.vmmWriteInterval = 2 * sim::kMs;
    cfg.vmm.moderation.guestIoFreqThreshold = 1e9;
    cfg.guestTemplate.boot.loaderBytes = 1 * sim::kMiB;
    cfg.guestTemplate.boot.kernelBytes = 4 * sim::kMiB;
    cfg.guestTemplate.boot.numReads = 40;
    cfg.guestTemplate.boot.cpuTotal = 500 * sim::kMs;
    cfg.guestTemplate.boot.regionBytes = 16 * sim::kMiB;
    cfg.store.enabled = true;
    cfg.store.seedServers = 4;
    cfg.store.dataShards = 2;
    cfg.store.parityShards = 2;
    bmcast::Cloud cloud(eq, "region", cfg);

    constexpr std::uint64_t image_base = 0xAAAA000000000001ULL;
    constexpr sim::Bytes image_bytes = 24 * sim::kMiB;
    constexpr sim::Lba image_sectors = image_bytes / sim::kSectorSize;
    cloud.addImage("img", image_bytes, image_base);

    sim::FaultInjector fi(1234);
    sim::SitePlan swallow;
    swallow.probability = 0.02;
    fi.arm(FaultSite::StoreSourceTimeout, swallow);
    sim::SitePlan corrupt;
    corrupt.probability = 0.02;
    fi.arm(FaultSite::StoreShardCorrupt, corrupt);
    cloud.setFaultInjector(&fi);

    bmcast::Instance *a = cloud.provision("img", nullptr);
    ASSERT_NE(a, nullptr);
    ASSERT_TRUE(runUntil(eq, 80000 * sim::kSec, [&]() {
        return a->state() == bmcast::Instance::State::BareMetal;
    })) << "store chaos must degrade, not stall; injector: "
        << fi.summary();

    EXPECT_GT(fi.triggers(FaultSite::StoreSourceTimeout), 0u);
    EXPECT_GT(fi.triggers(FaultSite::StoreShardCorrupt), 0u);
    // Per-fragment digests catch every injected corruption and the
    // piece is re-fetched: the landed image is still byte-exact.
    aoe::AoeInitiator &ini = a->deployer().vmm().initiator();
    EXPECT_GT(ini.shardDigestMismatches(), 0u);
    EXPECT_TRUE(a->machine().disk().store().rangeHasBase(
        0, image_sectors, image_base));
    EXPECT_TRUE(cloud.storeFabric()->catalog().verifyDisk(
        "img", a->machine().disk().store()));
}

// --- Chaos matrix: fault plan x storage controller ---

struct ChaosPlan
{
    const char *name;
    void (*arm)(sim::FaultInjector &fi);
    void (*check)(const sim::FaultInjector &fi, Rig &rig);
};

const ChaosPlan kChaosPlans[] = {
    {"NetLoss",
     [](sim::FaultInjector &fi) {
         sim::SitePlan p;
         p.probability = 0.05;
         fi.arm(FaultSite::NetDrop, p);
     },
     [](const sim::FaultInjector &fi, Rig &) {
         EXPECT_GT(fi.triggers(FaultSite::NetDrop), 0u);
     }},
    {"NetChaos",
     [](sim::FaultInjector &fi) {
         sim::SitePlan dup;
         dup.probability = 0.03;
         fi.arm(FaultSite::NetDuplicate, dup);
         sim::SitePlan reorder;
         reorder.probability = 0.03;
         reorder.magnitude = 300 * sim::kUs;
         fi.arm(FaultSite::NetReorder, reorder);
         sim::SitePlan corrupt;
         corrupt.probability = 0.02;
         fi.arm(FaultSite::NetCorrupt, corrupt);
     },
     [](const sim::FaultInjector &fi, Rig &) {
         EXPECT_GT(fi.triggers(FaultSite::NetDuplicate), 0u);
         EXPECT_GT(fi.triggers(FaultSite::NetReorder), 0u);
         EXPECT_GT(fi.triggers(FaultSite::NetCorrupt), 0u);
     }},
    {"DiskFaults",
     [](sim::FaultInjector &fi) {
         sim::SitePlan werr;
         werr.fireOn = {3, 9};
         fi.arm(FaultSite::DiskWriteError, werr);
         sim::SitePlan spike;
         spike.fireOn = {5};
         spike.magnitude = 20 * sim::kMs;
         fi.arm(FaultSite::DiskLatencySpike, spike);
     },
     [](const sim::FaultInjector &fi, Rig &rig) {
         // Scripted plans fire exactly as written.
         EXPECT_EQ(fi.triggers(FaultSite::DiskWriteError), 2u);
         EXPECT_EQ(fi.triggers(FaultSite::DiskLatencySpike), 1u);
         EXPECT_EQ(rig.machine->disk().mediaRetries(), 2u);
     }},
    {"ServerStalls",
     [](sim::FaultInjector &fi) {
         sim::SitePlan stall;
         stall.fireOn = {5, 15};
         stall.magnitude = 50 * sim::kMs;
         fi.arm(FaultSite::ServerStall, stall);
     },
     [](const sim::FaultInjector &fi, Rig &rig) {
         EXPECT_EQ(fi.triggers(FaultSite::ServerStall), 2u);
         EXPECT_EQ(rig.server->crashes(), 0u);
     }},
    {"IrqChaos",
     [](sim::FaultInjector &fi) {
         // Mediated controllers raise only a handful of real IRQs
         // per deployment, so script the very first occurrences.
         // The spurious injection rides the first raise; the second
         // raise is swallowed (losing the first could suppress the
         // rest: completions recovered by a watchdog poll never
         // re-raise).
         sim::SitePlan lost;
         lost.fireOn = {2};
         fi.arm(FaultSite::IrqLost, lost);
         sim::SitePlan spurious;
         spurious.fireOn = {1};
         fi.arm(FaultSite::IrqSpurious, spurious);
     },
     [](const sim::FaultInjector &fi, Rig &rig) {
         EXPECT_EQ(fi.triggers(FaultSite::IrqLost), 1u);
         EXPECT_EQ(fi.triggers(FaultSite::IrqSpurious), 1u);
         EXPECT_EQ(rig.machine->intc().lostIrqs(), 1u);
         EXPECT_EQ(rig.machine->intc().injectedSpurious(), 1u);
     }},
    {"Everything",
     [](sim::FaultInjector &fi) {
         sim::SitePlan drop;
         drop.probability = 0.02;
         fi.arm(FaultSite::NetDrop, drop);
         sim::SitePlan dup;
         dup.probability = 0.01;
         fi.arm(FaultSite::NetDuplicate, dup);
         sim::SitePlan werr;
         werr.fireOn = {7};
         fi.arm(FaultSite::DiskWriteError, werr);
         sim::SitePlan stall;
         stall.fireOn = {25};
         stall.magnitude = 30 * sim::kMs;
         fi.arm(FaultSite::ServerStall, stall);
         sim::SitePlan lost;
         lost.fireOn = {2};
         fi.arm(FaultSite::IrqLost, lost);
     },
     [](const sim::FaultInjector &fi, Rig &) {
         EXPECT_GT(fi.triggers(FaultSite::NetDrop), 0u);
         EXPECT_EQ(fi.triggers(FaultSite::DiskWriteError), 1u);
         EXPECT_EQ(fi.triggers(FaultSite::ServerStall), 1u);
         EXPECT_EQ(fi.triggers(FaultSite::IrqLost), 1u);
         EXPECT_FALSE(fi.summary().empty());
     }},
};

constexpr int kNumChaosPlans =
    static_cast<int>(sizeof(kChaosPlans) / sizeof(kChaosPlans[0]));

class ChaosMatrix
    : public ::testing::TestWithParam<std::tuple<int, hw::StorageKind>>
{
};

TEST_P(ChaosMatrix, DeploysByteIdenticalImage)
{
    const ChaosPlan &plan = kChaosPlans[std::get<0>(GetParam())];

    RigOptions o;
    o.storage = std::get<1>(GetParam());
    o.imageSectors = (16 * sim::kMiB) / sim::kSectorSize;
    Rig rig(o);

    sim::FaultInjector fi(1234);
    plan.arm(fi);
    rig.attachInjector(fi);

    bmcast::BmcastDeployer dep(rig.eq, "dep", *rig.machine,
                               *rig.guest, {kServerMac}, o.imageSectors,
                               rig.fastVmmParams(), false);
    dep.run([]() {});
    ASSERT_TRUE(runUntil(rig.eq, 40000 * sim::kSec,
                         [&]() { return dep.bareMetalReached(); }))
        << "deployment must survive plan " << plan.name
        << "; injector: " << fi.summary();

    // The final disk image must be byte-identical to a fault-free
    // deployment: every image sector carries the golden content.
    EXPECT_TRUE(rig.machine->disk().store().rangeHasBase(
        0, o.imageSectors, kImageBase))
        << "corrupted final image under plan " << plan.name;

    plan.check(fi, rig);
}

INSTANTIATE_TEST_SUITE_P(
    PlansByController, ChaosMatrix,
    ::testing::Combine(::testing::Range(0, kNumChaosPlans),
                       ::testing::Values(hw::StorageKind::Ide,
                                         hw::StorageKind::Ahci,
                                         hw::StorageKind::Nvme)),
    [](const auto &info) {
        return std::string(kChaosPlans[std::get<0>(info.param)].name) +
               "_" + storageName(std::get<1>(info.param));
    });

// --- Seed-sweep determinism ---

struct RunFingerprint
{
    std::uint64_t executed = 0;
    sim::Tick endTick = 0;
    bmcast::MediatorStats ms;
    std::array<std::uint64_t, sim::kNumFaultSites> triggers{};
    std::uint64_t retx = 0;
    std::uint64_t served = 0;
};

void
armMixedPlan(sim::FaultInjector &fi)
{
    sim::SitePlan drop;
    drop.probability = 0.04;
    fi.arm(FaultSite::NetDrop, drop);
    sim::SitePlan dup;
    dup.probability = 0.02;
    fi.arm(FaultSite::NetDuplicate, dup);
    sim::SitePlan werr;
    werr.probability = 0.01;
    fi.arm(FaultSite::DiskWriteError, werr);
    sim::SitePlan spike;
    spike.probability = 0.01;
    spike.magnitude = 10 * sim::kMs;
    fi.arm(FaultSite::DiskLatencySpike, spike);
    sim::SitePlan stall;
    stall.fireOn = {10};
    stall.magnitude = 20 * sim::kMs;
    fi.arm(FaultSite::ServerStall, stall);
}

RunFingerprint
chaosRun(std::uint64_t injectorSeed)
{
    RigOptions o;
    o.imageSectors = (8 * sim::kMiB) / sim::kSectorSize;
    Rig rig(o);
    sim::FaultInjector fi(injectorSeed);
    armMixedPlan(fi);
    rig.attachInjector(fi);

    bmcast::BmcastDeployer dep(rig.eq, "dep", *rig.machine,
                               *rig.guest, {kServerMac}, o.imageSectors,
                               rig.fastVmmParams(), false);
    dep.run([]() {});
    EXPECT_TRUE(runUntil(rig.eq, 40000 * sim::kSec,
                         [&]() { return dep.bareMetalReached(); }));

    RunFingerprint fp;
    fp.executed = rig.eq.executed();
    fp.endTick = rig.eq.now();
    fp.ms = dep.vmm().mediator().stats();
    for (std::size_t s = 0; s < sim::kNumFaultSites; ++s)
        fp.triggers[s] = fi.triggers(static_cast<FaultSite>(s));
    fp.retx = dep.vmm().initiator().retransmissions();
    fp.served = rig.server->requestsServed();
    return fp;
}

void
expectSameFingerprint(const RunFingerprint &a, const RunFingerprint &b)
{
    EXPECT_EQ(a.executed, b.executed);
    EXPECT_EQ(a.endTick, b.endTick);
    EXPECT_EQ(a.triggers, b.triggers);
    EXPECT_EQ(a.retx, b.retx);
    EXPECT_EQ(a.served, b.served);
    EXPECT_EQ(a.ms.passthroughReads, b.ms.passthroughReads);
    EXPECT_EQ(a.ms.passthroughWrites, b.ms.passthroughWrites);
    EXPECT_EQ(a.ms.redirectedReads, b.ms.redirectedReads);
    EXPECT_EQ(a.ms.redirectedSectors, b.ms.redirectedSectors);
    EXPECT_EQ(a.ms.mixedRedirects, b.ms.mixedRedirects);
    EXPECT_EQ(a.ms.vmmOps, b.ms.vmmOps);
    EXPECT_EQ(a.ms.queuedGuestWrites, b.ms.queuedGuestWrites);
    EXPECT_EQ(a.ms.reservedConversions, b.ms.reservedConversions);
    EXPECT_EQ(a.ms.dummyRestarts, b.ms.dummyRestarts);
}

TEST(ChaosDeterminism, SameSeedSamePlanIsBitIdentical)
{
    for (std::uint64_t seed : {7ULL, 1234ULL, 999ULL}) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        RunFingerprint a = chaosRun(seed);
        RunFingerprint b = chaosRun(seed);
        expectSameFingerprint(a, b);
    }
}

TEST(ChaosDeterminism, DifferentSeedsDiverge)
{
    RunFingerprint a = chaosRun(7);
    RunFingerprint b = chaosRun(8);
    EXPECT_TRUE(a.executed != b.executed || a.triggers != b.triggers ||
                a.endTick != b.endTick)
        << "two injector seeds produced indistinguishable chaos";
}

// --- AoE initiator retry budget ---

struct InitiatorHarness
{
    explicit InitiatorHarness(aoe::InitiatorParams ip)
        : port(rig.lan.attach(0x525400000042ULL,
                              net::PortConfig{1e9, 9000, 0.0})),
          endpoint(port),
          ini(rig.eq, "ini", endpoint, kServerMac, ip)
    {
    }

    Rig rig;
    net::Port &port;
    net::PortEndpoint endpoint;
    aoe::AoeInitiator ini;
};

aoe::InitiatorParams
fastRetryParams(int maxRetries)
{
    aoe::InitiatorParams ip;
    ip.maxRetries = maxRetries;
    ip.minTimeout = 1 * sim::kMs;
    return ip;
}

TEST(RetryBudget, ExhaustedBudgetSurfacesTerminalError)
{
    InitiatorHarness h(fastRetryParams(3));
    h.rig.server->crash(); // never answers

    std::vector<aoe::DeployError> errs;
    h.ini.setErrorHandler([&](const aoe::DeployError &e) {
        errs.push_back(e);
        return aoe::ErrorAction::Drop;
    });

    bool done = false;
    h.ini.readSectors(100, 8, [&](const auto &) { done = true; });
    ASSERT_TRUE(runUntil(h.rig.eq, 100 * sim::kSec,
                         [&]() { return !errs.empty(); }));

    ASSERT_EQ(errs.size(), 1u);
    EXPECT_FALSE(errs[0].isWrite);
    EXPECT_EQ(errs[0].lba, 100u);
    EXPECT_EQ(errs[0].count, 8u);
    EXPECT_EQ(errs[0].retries, 3);
    EXPECT_EQ(errs[0].server, kServerMac);
    EXPECT_EQ(h.ini.terminalErrors(), 1u);
    EXPECT_EQ(h.ini.retransmissions(), 3u);
    EXPECT_EQ(h.ini.inflight(), 0u) << "dropped requests must vacate";
    EXPECT_FALSE(done) << "a dropped request's callback never fires";

    // The queue must drain: no retransmission lives on.
    runUntil(h.rig.eq, h.rig.eq.now() + 10 * sim::kSec,
             []() { return false; });
    EXPECT_EQ(h.ini.retransmissions(), 3u);
}

TEST(RetryBudget, DefaultHandlerDropsDoomedRequests)
{
    InitiatorHarness h(fastRetryParams(2));
    h.rig.server->crash();

    bool done = false;
    h.ini.readSectors(0, 4, [&](const auto &) { done = true; });
    ASSERT_TRUE(runUntil(h.rig.eq, 100 * sim::kSec, [&]() {
        return h.ini.terminalErrors() == 1;
    }));
    EXPECT_EQ(h.ini.inflight(), 0u);
    EXPECT_FALSE(done);
}

TEST(RetryBudget, RetryActionResetsBudgetAndRecovers)
{
    InitiatorHarness h(fastRetryParams(2));
    h.rig.server->crash();

    int errors = 0;
    h.ini.setErrorHandler([&](const aoe::DeployError &) {
        if (++errors == 1)
            h.rig.server->restart(); // failback before retrying
        return aoe::ErrorAction::Retry;
    });

    std::vector<std::uint64_t> got;
    h.ini.readSectors(64, 4, [&](const auto &t) { got = t; });
    ASSERT_TRUE(runUntil(h.rig.eq, 100 * sim::kSec,
                         [&]() { return !got.empty(); }));
    EXPECT_GE(errors, 1);
    ASSERT_EQ(got.size(), 4u);
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(got[i], hw::sectorToken(kImageBase, 64 + i));
    EXPECT_EQ(h.ini.terminalErrors(),
              static_cast<std::uint64_t>(errors));
}

TEST(RetryBudget, NegativeBudgetRetriesForever)
{
    InitiatorHarness h(fastRetryParams(-1));
    h.rig.server->crash();

    std::vector<std::uint64_t> got;
    h.ini.readSectors(8, 2, [&](const auto &t) { got = t; });
    runUntil(h.rig.eq, 2 * sim::kSec, []() { return false; });
    EXPECT_EQ(h.ini.terminalErrors(), 0u);
    EXPECT_GT(h.ini.retransmissions(), 5u);
    EXPECT_EQ(h.ini.inflight(), 1u);

    h.rig.server->restart();
    ASSERT_TRUE(runUntil(h.rig.eq, h.rig.eq.now() + 100 * sim::kSec,
                         [&]() { return !got.empty(); }));
    EXPECT_EQ(got[0], hw::sectorToken(kImageBase, 8));
}

// --- AoE parser fuzz: random bytes must never crash ---

class AoeFuzz : public ::testing::TestWithParam<int>
{
};

TEST_P(AoeFuzz, RandomFramesParseSafely)
{
    sim::Rng rng(GetParam() * 977);
    for (int i = 0; i < 2000; ++i) {
        net::Frame f;
        f.etherType = rng.chance(0.5)
                          ? aoe::kEtherType
                          : static_cast<std::uint16_t>(rng.next());
        f.payload.resize(rng.uniformInt(0, 200));
        for (auto &b : f.payload)
            b = static_cast<std::uint8_t>(rng.next());
        auto parsed = aoe::parse(f); // must not throw or crash
        if (parsed) {
            // Whatever parsed must re-serialize without issue.
            (void)aoe::toFrame(*parsed, 0x1);
        }
    }
    SUCCEED();
}

INSTANTIATE_TEST_SUITE_P(Seeds, AoeFuzz, ::testing::Range(1, 5));

// --- Region-boundary behaviour ---

class BoundaryTest : public ::testing::TestWithParam<hw::StorageKind>
{
  protected:
    struct World
    {
        explicit World(hw::StorageKind kind)
        {
            RigOptions o;
            o.storage = kind;
            o.imageSectors = (16 * sim::kMiB) / sim::kSectorSize;
            rig = std::make_unique<Rig>(o);
            vmm = std::make_unique<bmcast::Vmm>(
                rig->eq, "vmm", *rig->machine,
                std::vector<net::MacAddr>{kServerMac}, o.imageSectors,
                rig->fastVmmParams());
            bool ready = false;
            vmm->netboot([&]() { ready = true; });
            runUntil(rig->eq, 60 * sim::kSec,
                     [&]() { return ready; });
            bool booted = false;
            rig->guest->start([&]() { booted = true; });
            runUntil(rig->eq, 1000 * sim::kSec,
                     [&]() { return booted; });
        }
        std::unique_ptr<Rig> rig;
        std::unique_ptr<bmcast::Vmm> vmm;
    };
};

TEST_P(BoundaryTest, ReadStraddlingImageEndIsServed)
{
    World w(GetParam());
    sim::Lba img = w.rig->opts.imageSectors;
    // [img-8, img+8): half image (EMPTY -> fetch), half beyond-image
    // (pre-marked FILLED, local zeros).
    std::vector<std::uint64_t> got;
    w.rig->guest->blk().read(img - 8, 16,
                             [&](const auto &t) { got = t; });
    ASSERT_TRUE(runUntil(w.rig->eq, 100 * sim::kSec,
                         [&]() { return !got.empty(); }));
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(got[i], hw::sectorToken(kImageBase, img - 8 + i));
    for (int i = 8; i < 16; ++i)
        EXPECT_EQ(got[i], 0u) << "beyond-image sector must be local";
}

TEST_P(BoundaryTest, SingleSectorOps)
{
    World w(GetParam());
    std::vector<std::uint64_t> got;
    w.rig->guest->blk().read(5, 1, [&](const auto &t) { got = t; });
    ASSERT_TRUE(runUntil(w.rig->eq, 100 * sim::kSec,
                         [&]() { return !got.empty(); }));
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got[0], hw::sectorToken(kImageBase, 5));

    bool wrote = false;
    w.rig->guest->blk().write(5, 1, 0xF00ULL << 8 | 1,
                              [&]() { wrote = true; });
    ASSERT_TRUE(runUntil(w.rig->eq, 100 * sim::kSec,
                         [&]() { return wrote; }));
    EXPECT_EQ(w.rig->machine->disk().store().baseAt(5),
              0xF00ULL << 8 | 1);
}

TEST_P(BoundaryTest, BackToBackRedirectsSerialize)
{
    World w(GetParam());
    // Two immediately consecutive cold reads: the second must queue
    // behind the first's redirection and still return image data.
    std::vector<std::uint64_t> a, b;
    w.rig->guest->blk().read(4096, 32, [&](const auto &t) { a = t; });
    w.rig->guest->blk().read(8192, 32, [&](const auto &t) { b = t; });
    ASSERT_TRUE(runUntil(w.rig->eq, 100 * sim::kSec, [&]() {
        return !a.empty() && !b.empty();
    }));
    EXPECT_EQ(a[0], hw::sectorToken(kImageBase, 4096));
    EXPECT_EQ(b[0], hw::sectorToken(kImageBase, 8192));
    EXPECT_GE(w.vmm->mediator().stats().redirectedReads, 2u);
}

TEST_P(BoundaryTest, DevirtUnderContinuousLoad)
{
    World w(GetParam());
    // Guest hammers the disk while the copy finishes; the devirt
    // point must still be found and be seamless (no lost ops).
    std::uint64_t completed = 0;
    bool stop = false;
    std::function<void(int)> pump = [&](int i) {
        if (stop)
            return;
        sim::Lba lba = (sim::Lba(i) * 911) %
                       (w.rig->opts.imageSectors - 64);
        w.rig->guest->blk().read(lba, 16, [&, i](const auto &) {
            ++completed;
            pump(i + 1);
        });
    };
    pump(0);

    bool bare = false;
    w.vmm->onBareMetal([&]() { bare = true; });
    ASSERT_TRUE(runUntil(w.rig->eq, 40000 * sim::kSec,
                         [&]() { return bare; }));
    std::uint64_t at_devirt = completed;
    // Keep going after devirt: I/O must continue uninterrupted.
    ASSERT_TRUE(runUntil(w.rig->eq,
                         w.rig->eq.now() + 10 * sim::kSec, [&]() {
                             return completed > at_devirt + 20;
                         }));
    stop = true;
    EXPECT_FALSE(w.rig->machine->bus().anyInterceptActive());
}

INSTANTIATE_TEST_SUITE_P(AllControllers, BoundaryTest,
                         ::testing::Values(hw::StorageKind::Ide,
                                           hw::StorageKind::Ahci,
                                           hw::StorageKind::Nvme),
                         [](const auto &info) {
                             return storageName(info.param);
                         });

// --- VMM memory reservation ---

TEST(VmmMemory, ReservedViaE820)
{
    RigOptions o;
    o.imageSectors = (16 * sim::kMiB) / sim::kSectorSize;
    Rig rig(o);
    bmcast::VmmParams p = rig.fastVmmParams();
    bmcast::Vmm vmm(rig.eq, "vmm", *rig.machine, {kServerMac},
                    o.imageSectors, p);
    bool ready = false;
    vmm.netboot([&]() { ready = true; });
    ASSERT_TRUE(
        runUntil(rig.eq, 60 * sim::kSec, [&]() { return ready; }));

    // The BIOS map hides the VMM region from the guest (§3.4)...
    EXPECT_TRUE(rig.machine->firmware().overlapsReserved(
        bmcast::kReservedBase, bmcast::kReservedBytes));
    // ...and, as in the prototype (§4.3), it is NOT released after
    // de-virtualization.
    bool bare = false;
    vmm.onBareMetal([&]() { bare = true; });
    rig.guest->start([]() {});
    ASSERT_TRUE(runUntil(rig.eq, 40000 * sim::kSec,
                         [&]() { return bare; }));
    EXPECT_TRUE(rig.machine->firmware().overlapsReserved(
        bmcast::kReservedBase, bmcast::kReservedBytes));
}

// --- Moderation edge settings ---

TEST(ModerationEdge, ZeroIntervalIsFullSpeed)
{
    RigOptions o;
    o.imageSectors = (32 * sim::kMiB) / sim::kSectorSize;
    Rig rig(o);
    bmcast::VmmParams p = rig.fastVmmParams();
    p.moderation.vmmWriteInterval = 1; // effectively no idle gap
    bmcast::BmcastDeployer dep(rig.eq, "dep", *rig.machine,
                               *rig.guest, {kServerMac}, o.imageSectors,
                               p, false);
    dep.run([]() {});
    ASSERT_TRUE(runUntil(rig.eq, 4000 * sim::kSec,
                         [&]() { return dep.bareMetalReached(); }));
    // 32 MiB at full speed finishes well inside the boot+copy span.
    EXPECT_LT(sim::toSeconds(dep.timeline().bareMetal), 120.0);
}

TEST(ModerationEdge, HugeSuspendStillCompletes)
{
    RigOptions o;
    o.imageSectors = (16 * sim::kMiB) / sim::kSectorSize;
    Rig rig(o);
    bmcast::VmmParams p = rig.fastVmmParams();
    p.moderation.guestIoFreqThreshold = 0.5; // trigger on any I/O
    p.moderation.vmmWriteSuspendInterval = 2 * sim::kSec;
    p.moderation.vmmWriteInterval = 2 * sim::kMs;
    bmcast::BmcastDeployer dep(rig.eq, "dep", *rig.machine,
                               *rig.guest, {kServerMac}, o.imageSectors,
                               p, false);
    dep.run([]() {});
    ASSERT_TRUE(runUntil(rig.eq, 40000 * sim::kSec,
                         [&]() { return dep.bareMetalReached(); }));
    EXPECT_GT(dep.vmm().backgroundCopy().suspensions(), 0u);
}

// --- Migration chaos: aborted mobility must roll back losslessly ---

constexpr std::uint64_t kMigImg = 0xCCAA000000000001ULL;

bmcast::CloudConfig
migChaosConfig()
{
    bmcast::CloudConfig cfg;
    cfg.machines = 2;
    cfg.machineTemplate.disk.capacityBytes = 2 * sim::kGiB;
    cfg.vmm.bootTime = 5 * sim::kSec;
    cfg.vmm.moderation.vmmWriteInterval = 2 * sim::kMs;
    cfg.vmm.moderation.guestIoFreqThreshold = 1e9;
    cfg.guestTemplate.boot.loaderBytes = 1 * sim::kMiB;
    cfg.guestTemplate.boot.kernelBytes = 4 * sim::kMiB;
    cfg.guestTemplate.boot.numReads = 40;
    cfg.guestTemplate.boot.cpuTotal = 500 * sim::kMs;
    cfg.guestTemplate.boot.regionBytes = 16 * sim::kMiB;
    cfg.migrate.memoryBytes = 8 * sim::kMiB;
    cfg.migrate.memoryDirtyBytesPerSec = 1 * sim::kMiB;
    cfg.migrate.stopCopyThresholdBytes = 2 * sim::kMiB;
    cfg.migrate.handoffTime = 50 * sim::kMs;
    return cfg;
}

/** Stripe-isolated random writer mirroring issued writes into a
 *  shadow disk (same contract as tests/migration_test.cc). */
struct MigWriter
{
    MigWriter(sim::EventQueue &eq, bmcast::Instance &inst,
              std::uint64_t seed, sim::Lba sectors)
        : eq(eq), inst(inst), rng(seed), sectors(sectors)
    {
        shadow.write(0, sectors, kMigImg);
        arm();
    }

    void
    arm()
    {
        eq.schedule(3 * sim::kMs, [this]() {
            migrate::MigrationManager *mig = inst.migration();
            if (mig && mig->finished())
                return;
            if ((!mig || !mig->paused()) &&
                (seq + 1) * 64 <= sectors) {
                sim::Lba off = rng.uniformInt(0, 31);
                std::uint64_t burst = rng.uniformInt(1, 64 - off);
                sim::Lba lba = seq * 64 + off;
                std::uint64_t base =
                    0xD000000000000000ULL | rng.next() >> 16;
                shadow.write(lba, burst, base);
                inst.guest().blk().write(
                    lba, static_cast<std::uint32_t>(burst), base,
                    [this]() { ++done; });
                ++seq;
                ++issued;
            }
            arm();
        });
    }

    sim::EventQueue &eq;
    bmcast::Instance &inst;
    sim::Rng rng;
    sim::Lba sectors;
    hw::DiskStore shadow;
    std::uint64_t seq = 0;
    std::uint64_t issued = 0;
    std::uint64_t done = 0;
};

/** Deploy, write, migrate into an armed fault plan; assert the
 *  migration aborts exactly once and the source rolls back with
 *  every completed write intact. */
void
runAbortedMigration(sim::FaultInjector &fi, FaultSite site)
{
    const sim::Lba img_sectors = (16 * sim::kMiB) / sim::kSectorSize;
    sim::EventQueue eq;
    bmcast::Cloud cloud(eq, "region", migChaosConfig());
    cloud.setFaultInjector(&fi);
    cloud.addImage("img", 16 * sim::kMiB, kMigImg);

    bmcast::Instance *inst = cloud.provision("img", nullptr);
    ASSERT_NE(inst, nullptr);
    ASSERT_TRUE(runUntil(eq, 40000 * sim::kSec, [&]() {
        return inst->state() == bmcast::Instance::State::BareMetal &&
               inst->lease().state() == cloud::LeaseState::Serving;
    }));

    hw::Machine &src = inst->machine();
    const unsigned src_slot = inst->lease().slot();
    MigWriter wr(eq, *inst, 77, img_sectors);

    ASSERT_EQ(cloud.migrate(*inst, 1u - src_slot),
              cloud::MigrateReject::None);
    migrate::MigrationManager *mig = inst->migration();

    // The plan fires exactly once, the migration aborts, and the
    // source de-virtualizes back to bare metal.
    ASSERT_TRUE(runUntil(eq, 40000 * sim::kSec, [&]() {
        return mig->finished() &&
               inst->state() == bmcast::Instance::State::BareMetal &&
               inst->lease().state() == cloud::LeaseState::Serving;
    })) << "aborted migration never rolled back; injector: "
        << fi.summary();

    EXPECT_TRUE(mig->stats().aborted);
    EXPECT_EQ(fi.triggers(site), 1u);
    EXPECT_GE(fi.queries(site), 1u);

    // The instance never moved: same machine, same slot, lease
    // Serving on the source, the failure counted.
    EXPECT_EQ(&inst->machine(), &src);
    EXPECT_EQ(inst->lease().slot(), src_slot);
    EXPECT_EQ(cloud.plane().stats().migrated, 0u);
    EXPECT_EQ(cloud.plane().stats().migrateFailed, 1u);

    // Zero lost writes: drain the tail, then the source disk must
    // hold the image plus every write the guest issued.
    ASSERT_TRUE(runUntil(eq, eq.now() + 400 * sim::kSec, [&]() {
        return wr.done == wr.issued && inst->guest().blk().idle();
    }));
    EXPECT_GT(wr.issued, 0u);
    EXPECT_TRUE(migrate::diffDisks(src.disk().store(), wr.shadow, 0,
                                   img_sectors)
                    .empty())
        << "rollback lost guest writes";

    // The reserved destination slot returns to the pool.
    ASSERT_TRUE(runUntil(eq, eq.now() + 400 * sim::kSec, [&]() {
        return cloud.freeMachines() == 1u;
    }));
}

TEST(MigrateChaos, StreamDropDuringPreCopyRollsBackToSource)
{
    sim::FaultInjector fi(99);
    sim::SitePlan drop;
    drop.fireOn = {2}; // second pre-copy round's shipment
    fi.arm(FaultSite::MigrateStreamDrop, drop);
    runAbortedMigration(fi, FaultSite::MigrateStreamDrop);
}

TEST(MigrateChaos, StreamDropAtStopAndCopyRollsBackToSource)
{
    // Key filter pins the drop to the stop-and-copy shipment (keyed
    // rounds+1); every pre-copy round passes unharmed, so the guest
    // was already paused when the abort unpauses it.
    sim::FaultInjector fi(99);
    sim::SitePlan drop;
    drop.probability = 1.0;
    drop.keyLo = 2;
    drop.keyHi = 1000;
    fi.arm(FaultSite::MigrateStreamDrop, drop);
    runAbortedMigration(fi, FaultSite::MigrateStreamDrop);
}

TEST(MigrateChaos, DestCrashAtHandoffRollsBackToSource)
{
    sim::FaultInjector fi(31);
    sim::SitePlan crash;
    crash.fireOn = {1};
    fi.arm(FaultSite::MigrateDestCrash, crash);
    runAbortedMigration(fi, FaultSite::MigrateDestCrash);
}

// Seed-sweep determinism for chaotic sharded migrations: the same
// (seed, plan) is bit-identical across shard counts, and different
// seeds genuinely diverge.
TEST(MigrateChaos, ChaoticShardedMigrationsAreSeedDeterministic)
{
    auto world = [](std::uint64_t seed, unsigned shards) {
        bench::MigrateWorldParams p;
        p.racks = 4;
        p.shards = shards;
        p.seed = seed;
        p.imageBytes = 8 * sim::kMiB;
        p.migrate.memoryBytes = 4 * sim::kMiB;
        p.migrate.memoryDirtyBytesPerSec = 512 * sim::kKiB;
        p.migrate.stopCopyThresholdBytes = 1 * sim::kMiB;
        p.migrate.handoffTime = 20 * sim::kMs;
        p.runFor = 5 * sim::kSec;
        p.streamDrop.probability = 0.25;
        p.destCrash.probability = 0.25;
        bench::MigrateWorld w(p);
        w.run();
        return w.fingerprint();
    };

    bool saw_divergence = false;
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        std::uint64_t serial = world(seed, 1);
        EXPECT_EQ(world(seed, 2), serial) << "seed " << seed;
        EXPECT_EQ(world(seed, 4), serial) << "seed " << seed;
        if (serial != world(seed + 100, 1))
            saw_divergence = true;
    }
    EXPECT_TRUE(saw_divergence)
        << "chaos plans never changed an outcome across seeds";
}

} // namespace
