/**
 * @file
 * Chaos tests of the background repair scheduler: a dead seed is
 * healed back to full stripe health, injected source timeouts and
 * destination crashes force retries on fresh plans without ever
 * double-counting repaired bytes, unarmed injection stays
 * bit-identical, and fault-seed sweeps are deterministic.
 */

#include <gtest/gtest.h>

#include "bmcast/cloud.hh"
#include "simcore/fault_injector.hh"

namespace {

constexpr std::uint64_t kBase = 0xABCD000000000001ULL;
constexpr sim::Bytes kImageBytes = 32 * sim::kMiB;
constexpr unsigned kCrashSeed = 3;

bmcast::CloudConfig
repairConfig(store::ec::CodeKind code = store::ec::CodeKind::FlatRs)
{
    bmcast::CloudConfig cfg;
    cfg.machines = 1;
    cfg.store.enabled = true;
    cfg.store.code = code;
    cfg.store.seedServers = 10;
    cfg.store.repair.enabled = true;
    return cfg;
}

struct HealRun
{
    bool healthy = false;
    std::uint64_t executed = 0;
    sim::Tick endTick = 0;
    store::RepairStats stats;
};

/** Crash one seed, drive until the scheduler heals the pool. */
HealRun
runHeal(const bmcast::CloudConfig &cfg, sim::FaultInjector *fi)
{
    sim::EventQueue eq;
    bmcast::Cloud cloud(eq, "region", cfg);
    if (fi)
        cloud.setFaultInjector(fi);
    cloud.addImage("img", kImageBytes, kBase);
    store::RepairScheduler *sched = cloud.repairScheduler();
    cloud.seedServer(kCrashSeed).crash();

    auto healed = [&]() {
        return sched->idle() && sched->allHealthy();
    };
    eq.stepWhile(
        [&]() { return !healed() && eq.now() < 600 * sim::kSec; });

    HealRun r;
    r.healthy = sched->allHealthy();
    r.executed = eq.executed();
    r.endTick = eq.now();
    r.stats = sched->stats();
    return r;
}

TEST(RepairChaos, DeadSeedIsHealedAndRedeploysClean)
{
    sim::EventQueue eq;
    bmcast::Cloud cloud(eq, "region", repairConfig());
    cloud.addImage("img", kImageBytes, kBase);
    store::RepairScheduler *sched = cloud.repairScheduler();
    EXPECT_TRUE(sched->started());
    EXPECT_TRUE(sched->allHealthy());

    cloud.seedServer(kCrashSeed).crash();
    EXPECT_FALSE(sched->allHealthy());

    auto healed = [&]() {
        return sched->idle() && sched->allHealthy();
    };
    eq.stepWhile(
        [&]() { return !healed() && eq.now() < 600 * sim::kSec; });
    ASSERT_TRUE(sched->allHealthy());
    EXPECT_GT(sched->stats().deadMembersSeen, 0u);
    EXPECT_GT(sched->stats().jobsCompleted, 0u);
    EXPECT_GT(sched->stats().repairedBytes, 0u);
    EXPECT_GT(sched->stats().dataRepairedBytes, 0u);
    EXPECT_EQ(sched->stats().wireBytes, sched->stats().repairedBytes)
        << "no failed attempts, so no wasted wire bytes";

    // The healed pool serves a deployment with zero degraded reads:
    // every stripe member answers, so nothing reconstructs.
    bmcast::Instance *inst = cloud.provision("img", nullptr);
    ASSERT_NE(inst, nullptr);
    eq.stepWhile([&]() {
        return inst->state() != bmcast::Instance::State::BareMetal &&
               eq.now() < 5000 * sim::kSec;
    });
    ASSERT_EQ(inst->state(), bmcast::Instance::State::BareMetal);
    ASSERT_TRUE(cloud.storeFabric()->catalog().verifyDisk(
        "img", inst->machine().disk().store()));
    ASSERT_NE(inst->deployer().vmm().streamer(), nullptr);
    EXPECT_EQ(inst->deployer().vmm().streamer()->reconstructions(), 0u)
        << "a repaired stripe reads healthy, not degraded";
}

TEST(RepairChaos, SourceTimeoutsRetryOnFreshPlansWithoutDoubleCount)
{
    HealRun clean = runHeal(repairConfig(), nullptr);
    ASSERT_TRUE(clean.healthy);

    sim::FaultInjector fi(42);
    sim::SitePlan plan;
    plan.probability = 0.05;
    plan.maxTriggers = 12;
    fi.arm(sim::FaultSite::RepairSourceTimeout, plan);
    HealRun faulty = runHeal(repairConfig(), &fi);

    ASSERT_TRUE(faulty.healthy) << "retries must still converge";
    EXPECT_GT(faulty.stats.sourceTimeouts, 0u);
    EXPECT_GT(faulty.stats.retries, 0u);
    EXPECT_EQ(faulty.stats.repairedBytes, clean.stats.repairedBytes)
        << "a retried job books its bytes exactly once";
    EXPECT_EQ(faulty.stats.jobsCompleted, clean.stats.jobsCompleted);
    EXPECT_GT(faulty.stats.wireBytes, faulty.stats.repairedBytes)
        << "the aborted attempts' fetches are wasted wire traffic";
}

TEST(RepairChaos, DestCrashesRetryWithoutDoubleCount)
{
    HealRun clean = runHeal(repairConfig(), nullptr);
    ASSERT_TRUE(clean.healthy);

    sim::FaultInjector fi(7);
    sim::SitePlan plan;
    plan.fireOn = {1, 3};
    fi.arm(sim::FaultSite::RepairDestCrash, plan);
    HealRun faulty = runHeal(repairConfig(), &fi);

    ASSERT_TRUE(faulty.healthy);
    EXPECT_EQ(faulty.stats.destCrashes, 2u);
    EXPECT_EQ(faulty.stats.retries, 2u);
    EXPECT_EQ(faulty.stats.repairedBytes, clean.stats.repairedBytes)
        << "a crashed landing never counts as repaired";
    EXPECT_EQ(faulty.stats.jobsCompleted, clean.stats.jobsCompleted);
}

TEST(RepairChaos, UnarmedInjectorIsBitIdentical)
{
    HealRun bare = runHeal(repairConfig(), nullptr);
    sim::FaultInjector fi(99); // attached but nothing armed
    HealRun armed = runHeal(repairConfig(), &fi);
    EXPECT_EQ(armed.executed, bare.executed);
    EXPECT_EQ(armed.endTick, bare.endTick);
    EXPECT_EQ(armed.stats.repairedBytes, bare.stats.repairedBytes);
}

TEST(RepairChaos, FaultSeedSweepIsDeterministic)
{
    for (std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
        sim::SitePlan plan;
        plan.probability = 0.05;
        plan.maxTriggers = 8;

        sim::FaultInjector a(seed);
        a.arm(sim::FaultSite::RepairSourceTimeout, plan);
        HealRun ra = runHeal(repairConfig(), &a);

        sim::FaultInjector b(seed);
        b.arm(sim::FaultSite::RepairSourceTimeout, plan);
        HealRun rb = runHeal(repairConfig(), &b);

        ASSERT_TRUE(ra.healthy) << "seed " << seed;
        EXPECT_EQ(ra.executed, rb.executed) << "seed " << seed;
        EXPECT_EQ(ra.endTick, rb.endTick) << "seed " << seed;
        EXPECT_EQ(ra.stats.sourceTimeouts, rb.stats.sourceTimeouts);
        EXPECT_EQ(ra.stats.repairedBytes, rb.stats.repairedBytes);
    }
}

TEST(RepairChaos, StructuredCodesHealCheaperThanFlatRs)
{
    HealRun flat = runHeal(repairConfig(store::ec::CodeKind::FlatRs),
                           nullptr);
    HealRun lrc =
        runHeal(repairConfig(store::ec::CodeKind::Lrc), nullptr);
    ASSERT_TRUE(flat.healthy);
    ASSERT_TRUE(lrc.healthy);
    ASSERT_GT(flat.stats.dataRepairedBytes, 0u);
    EXPECT_LE(2 * lrc.stats.dataRepairedBytes,
              flat.stats.dataRepairedBytes + sim::kMiB)
        << "LRC rebuilds a data member from one local group";
}

TEST(RepairChaos, ElasticTransformQueuesOnlyParityBuilds)
{
    sim::EventQueue eq;
    bmcast::Cloud cloud(eq, "region", repairConfig());
    cloud.addImage("img", kImageBytes, kBase);
    store::RepairScheduler *sched = cloud.repairScheduler();

    sched->transformTo(store::ec::CodeKind::Lrc);
    EXPECT_GT(sched->stats().transforms, 0u);
    eq.stepWhile(
        [&]() { return !sched->idle() && eq.now() < 600 * sim::kSec; });
    ASSERT_TRUE(sched->idle());
    EXPECT_TRUE(sched->allHealthy());
    EXPECT_EQ(cloud.storeFabric()->placement().code().kind(),
              store::ec::CodeKind::Lrc);
    EXPECT_GT(sched->stats().transformBytes, 0u);
    EXPECT_EQ(sched->stats().repairedBytes, 0u)
        << "builds are transform traffic, not repairs";

    // Healthy reads of the transformed stripes stay undegraded.
    const auto &images = cloud.storeFabric()->catalog().images();
    for (const auto &[name, desc] : images) {
        for (store::Digest d : desc.chunks) {
            auto plan = cloud.storeFabric()->placement().readPlanFor(
                d, [](net::MacAddr) { return true; }, 64);
            ASSERT_TRUE(plan.has_value());
            EXPECT_FALSE(plan->degraded());
        }
    }
}

} // namespace
