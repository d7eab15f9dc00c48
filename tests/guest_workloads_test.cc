/**
 * @file
 * Guest-OS, workload, and baseline tests: boot-trace behaviour, the
 * cpu cost model (zero at bare metal by construction), YCSB/DB
 * dynamics, fio/ioping measurement sanity, SysBench and kernbench
 * responses to profiles, the OSU collectives schedules, IB perftest
 * saturation behaviour, and the deployment baselines.
 */

#include <gtest/gtest.h>

#include "baselines/image_copy.hh"
#include "baselines/kvm.hh"
#include "baselines/net_root.hh"
#include "tests/test_util.hh"
#include "workloads/cpu_model.hh"
#include "workloads/fio.hh"
#include "workloads/ib_perftest.hh"
#include "workloads/kernbench.hh"
#include "workloads/osu_mpi.hh"
#include "workloads/sysbench.hh"
#include "workloads/ycsb.hh"

using namespace testutil;

namespace {

// --- CPU cost model ---

TEST(CpuModel, BareMetalIsExactlyOne)
{
    workloads::CpuSensitivity s;
    s.tlbShare = 0.5;
    s.cacheShare = 1.0;
    s.stealShare = 1.0;
    EXPECT_DOUBLE_EQ(workloads::cpuSlowdown(hw::bareMetalProfile(), s),
                     1.0);
    EXPECT_DOUBLE_EQ(
        workloads::lockHolderPenaltyNs(hw::bareMetalProfile(), s),
        0.0);
}

TEST(CpuModel, MonotoneInProfileCosts)
{
    workloads::CpuSensitivity s;
    hw::VirtProfile light;
    light.virtualized = true;
    light.vmmCpuSteal = 0.01;
    hw::VirtProfile heavy = light;
    heavy.vmmCpuSteal = 0.10;
    heavy.cachePollutionFactor = 0.5;
    heavy.tlbMissRateMult = 5.0;
    heavy.tlbMissLatencyMult = 2.0;
    EXPECT_LT(workloads::cpuSlowdown(light, s),
              workloads::cpuSlowdown(heavy, s));
}

// --- GuestOs boot ---

TEST(GuestOs, BootReadsApproximateTraceVolume)
{
    Rig rig;
    rig.machine->disk().store().write(0, rig.opts.imageSectors,
                                      kImageBase);
    bool up = false;
    rig.guest->start([&]() { up = true; });
    ASSERT_TRUE(runUntil(rig.eq, 4000 * sim::kSec,
                         [&]() { return up; }));
    EXPECT_GT(rig.guest->bootDuration(), 0u);
    sim::Bytes read = rig.machine->disk().bytesRead();
    sim::Bytes expect = rig.guest->bootReadBytes();
    EXPECT_GT(read, expect / 2);
    EXPECT_LT(read, expect * 2);
}

TEST(GuestOs, CannotStartTwice)
{
    Rig rig;
    rig.machine->disk().store().write(0, rig.opts.imageSectors,
                                      kImageBase);
    bool up = false;
    rig.guest->start([&]() { up = true; });
    runUntil(rig.eq, 4000 * sim::kSec, [&]() { return up; });
    EXPECT_THROW(rig.guest->start([]() {}), sim::PanicError);
}

// --- YCSB / DB model ---

TEST(Ycsb, LatencyAndThroughputAreConsistent)
{
    Rig rig;
    workloads::DbParams dp = workloads::memcachedParams();
    workloads::DbInstance db(rig.eq, "db", *rig.machine, nullptr, dp);
    workloads::YcsbParams yp;
    yp.threads = 10;
    yp.duration = 5 * sim::kSec;
    workloads::YcsbClient c(rig.eq, "ycsb", db, yp);
    bool done = false;
    c.run([&]() { done = true; });
    ASSERT_TRUE(
        runUntil(rig.eq, 100 * sim::kSec, [&]() { return done; }));

    // Closed loop: threads = throughput x latency (Little's law).
    double tput = c.meanThroughputOpsPerSec();
    double lat_s = c.meanLatencyUs() / 1e6;
    EXPECT_NEAR(tput * lat_s, 10.0, 0.8);
    EXPECT_GT(c.opsCompleted(), 1000u);
}

TEST(Ycsb, VirtualizedProfileDegradesService)
{
    auto measure = [](bool virtualized) {
        Rig rig;
        if (virtualized) {
            hw::VirtProfile p;
            p.virtualized = true;
            p.vmmCpuSteal = 0.06;
            p.nestedPaging = true;
            p.tlbMissRateMult = 5.0;
            p.tlbMissLatencyMult = 2.0;
            p.cachePollutionFactor = 0.01;
            rig.machine->setProfile(p);
        }
        workloads::DbInstance db(rig.eq, "db", *rig.machine, nullptr,
                                 workloads::memcachedParams());
        workloads::YcsbParams yp;
        yp.threads = 10;
        yp.duration = 5 * sim::kSec;
        workloads::YcsbClient c(rig.eq, "ycsb", db, yp);
        bool done = false;
        c.run([&]() { done = true; });
        runUntil(rig.eq, 100 * sim::kSec, [&]() { return done; });
        return c.meanThroughputOpsPerSec();
    };
    double bare = measure(false);
    double virt = measure(true);
    EXPECT_LT(virt, bare);
    EXPECT_GT(virt, bare * 0.85); // modest, BMcast-like degradation
}

TEST(Ycsb, WriteHeavyFlushesTouchDisk)
{
    Rig rig;
    rig.machine->disk().store().write(0, rig.opts.imageSectors,
                                      kImageBase);
    bool up = false;
    rig.guest->start([&]() { up = true; });
    runUntil(rig.eq, 4000 * sim::kSec, [&]() { return up; });

    auto writes_before = rig.machine->disk().writes();
    workloads::DbParams dp = workloads::cassandraParams(8 * 2048);
    dp.opsPerFlush = 200;
    workloads::DbInstance db(rig.eq, "db", *rig.machine,
                             &rig.guest->blk(), dp);
    workloads::YcsbParams yp;
    yp.threads = 64;
    yp.readFraction = 0.3;
    yp.duration = 5 * sim::kSec;
    workloads::YcsbClient c(rig.eq, "ycsb", db, yp);
    bool done = false;
    c.run([&]() { done = true; });
    ASSERT_TRUE(
        runUntil(rig.eq, 200 * sim::kSec, [&]() { return done; }));
    EXPECT_GT(rig.machine->disk().writes(), writes_before);
}

// --- fio / ioping ---

TEST(Fio, MeasuresSequentialRate)
{
    Rig rig;
    rig.machine->disk().store().write(0, rig.opts.imageSectors,
                                      kImageBase);
    bool up = false;
    rig.guest->start([&]() { up = true; });
    runUntil(rig.eq, 4000 * sim::kSec, [&]() { return up; });

    workloads::FioParams fp;
    fp.totalBytes = 32 * sim::kMiB;
    workloads::Fio fio(rig.eq, "fio", rig.guest->blk(), fp);
    workloads::FioResult res;
    bool done = false;
    fio.run([&](workloads::FioResult r) {
        res = r;
        done = true;
    });
    ASSERT_TRUE(
        runUntil(rig.eq, 400 * sim::kSec, [&]() { return done; }));
    EXPECT_NEAR(res.mbPerSec,
                rig.machine->disk().params().readMBps, 10.0);
}

TEST(Ioping, LatencyReflectsDiskModel)
{
    Rig rig;
    rig.machine->disk().store().write(0, rig.opts.imageSectors,
                                      kImageBase);
    bool up = false;
    rig.guest->start([&]() { up = true; });
    runUntil(rig.eq, 4000 * sim::kSec, [&]() { return up; });

    workloads::IopingParams ip;
    ip.samples = 30;
    ip.startLba = 2048;
    ip.interval = 10 * sim::kMs;
    workloads::Ioping probe(rig.eq, "ioping", rig.guest->blk(), ip);
    workloads::IopingResult res;
    bool done = false;
    probe.run([&](workloads::IopingResult r) {
        res = r;
        done = true;
    });
    ASSERT_TRUE(
        runUntil(rig.eq, 400 * sim::kSec, [&]() { return done; }));
    EXPECT_GT(res.meanMs, 0.1);
    EXPECT_LT(res.meanMs, 30.0);
    EXPECT_GE(res.p99Ms, res.meanMs);
}

// --- SysBench ---

TEST(SysbenchThreads, ScalesWithThreadsAndProfile)
{
    Rig rig;
    workloads::SysbenchThreads bench(rig.eq, "sbt", *rig.machine);
    auto run_t = [&](unsigned t) {
        sim::Tick e = 0;
        bool done = false;
        bench.run(t, [&](sim::Tick v) {
            e = v;
            done = true;
        });
        runUntil(rig.eq, 4000 * sim::kSec, [&]() { return done; });
        return e;
    };
    sim::Tick one = run_t(1);
    sim::Tick many = run_t(24);
    EXPECT_GT(many, one); // contention + oversubscription

    hw::VirtProfile kvm;
    kvm.virtualized = true;
    kvm.lockHolderPreemptProb = 0.01;
    kvm.vcpuDescheduleNs = 150 * sim::kUs;
    rig.machine->setProfile(kvm);
    sim::Tick many_kvm = run_t(24);
    EXPECT_GT(many_kvm, many * 5 / 4);
}

TEST(SysbenchMemory, OverheadGrowsWithBlockSize)
{
    Rig rig;
    hw::VirtProfile kvm;
    kvm.virtualized = true;
    kvm.nestedPaging = true;
    kvm.tlbMissRateMult = 1.6;
    kvm.tlbMissLatencyMult = 2.0;
    kvm.cachePollutionFactor = 0.35;
    workloads::SysbenchMemory mem(*rig.machine);

    double small_bare = mem.throughputMiBps(1 * sim::kKiB);
    double big_bare = mem.throughputMiBps(16 * sim::kKiB);
    rig.machine->setProfile(kvm);
    double small_kvm = mem.throughputMiBps(1 * sim::kKiB);
    double big_kvm = mem.throughputMiBps(16 * sim::kKiB);

    double small_loss = 1.0 - small_kvm / small_bare;
    double big_loss = 1.0 - big_kvm / big_bare;
    EXPECT_GT(big_loss, small_loss * 2);
    EXPECT_NEAR(big_loss, 0.26, 0.12); // paper ballpark: -35%
}

// --- kernbench ---

TEST(Kernbench, DevirtEqualsBare)
{
    auto measure = [](bool with_profile) {
        Rig rig;
        rig.machine->disk().store().write(0, rig.opts.imageSectors,
                                          kImageBase);
        bool up = false;
        rig.guest->start([&]() { up = true; });
        runUntil(rig.eq, 4000 * sim::kSec, [&]() { return up; });
        if (with_profile) {
            hw::VirtProfile p;
            p.virtualized = true;
            p.vmmCpuSteal = 0.06;
            rig.machine->setProfile(p);
        }
        workloads::KernbenchParams kp;
        kp.files = 40;
        kp.totalCpu = 20 * sim::kSec;
        kp.treeLba = 2048;
        workloads::Kernbench kb(rig.eq, "kb", *rig.machine,
                                rig.guest->blk(), kp);
        sim::Tick e = 0;
        bool done = false;
        kb.run([&](sim::Tick v) {
            e = v;
            done = true;
        });
        runUntil(rig.eq, 4000 * sim::kSec, [&]() { return done; });
        return e;
    };
    sim::Tick bare = measure(false);
    sim::Tick steal = measure(true);
    EXPECT_GT(steal, bare);
    EXPECT_LT(double(steal), double(bare) * 1.12);
}

// --- OSU MPI ---

TEST(OsuMpi, CollectiveLatencyOrdering)
{
    sim::EventQueue eq;
    net::Network lan(eq, "lan");
    hw::IbFabric ib(eq, "ib");
    std::vector<std::unique_ptr<hw::Machine>> ms;
    std::vector<hw::Machine *> cluster;
    for (unsigned i = 0; i < 8; ++i) {
        hw::MachineConfig mc;
        mc.name = "n" + std::to_string(i);
        mc.hasInfiniBand = true;
        mc.ibNodeId = i;
        ms.push_back(std::make_unique<hw::Machine>(
            eq, mc, lan, 100 + i, lan, 200 + i, &ib));
        cluster.push_back(ms.back().get());
    }
    workloads::OsuMpiParams op;
    op.iterations = 30;
    workloads::OsuMpi osu(eq, "osu", cluster, op);

    auto run_c = [&](workloads::Collective c) {
        sim::Tick mean = 0;
        bool done = false;
        osu.run(c, [&](sim::Tick m) {
            mean = m;
            done = true;
        });
        eq.run();
        EXPECT_TRUE(done);
        return mean;
    };

    sim::Tick barrier = run_c(workloads::Collective::Barrier);
    sim::Tick bcast = run_c(workloads::Collective::Bcast);
    sim::Tick allgather = run_c(workloads::Collective::Allgather);
    // A data-less barrier is cheaper than a bcast; a ring allgather
    // (n-1 steps) is costlier than a log-depth bcast.
    EXPECT_LT(barrier, allgather);
    EXPECT_LT(bcast, allgather);
}

// --- IB perftest ---

TEST(IbPerftest, SaturationHidesLatencyOverhead)
{
    auto run_pair = [](double rdma_overhead, double &bw,
                       double &lat) {
        sim::EventQueue eq;
        net::Network lan(eq, "lan");
        hw::IbFabric ib(eq, "ib");
        hw::MachineConfig mc;
        mc.hasInfiniBand = true;
        mc.name = "a";
        mc.ibNodeId = 0;
        hw::Machine a(eq, mc, lan, 1, lan, 2, &ib);
        mc.name = "b";
        mc.ibNodeId = 1;
        mc.seed = 2;
        hw::Machine b(eq, mc, lan, 3, lan, 4, &ib);
        if (rdma_overhead > 0) {
            hw::VirtProfile p;
            p.virtualized = true;
            p.rdmaLatencyOverhead = rdma_overhead;
            a.setProfile(p);
            b.setProfile(p);
        }
        workloads::IbPerftestParams ip;
        ip.iterations = 200;
        workloads::IbPerftest pt(eq, "pt", a, b, ip);
        bool done = false;
        pt.runBandwidth([&](workloads::IbPerftestResult r) {
            bw = r.mbPerSec;
            done = true;
        });
        eq.run();
        done = false;
        pt.runLatency([&](workloads::IbPerftestResult r) {
            lat = r.meanLatencyUs;
            done = true;
        });
        eq.run();
    };
    double bw0, lat0, bw1, lat1;
    run_pair(0.0, bw0, lat0);
    run_pair(0.236, bw1, lat1);
    EXPECT_NEAR(bw1, bw0, bw0 * 0.02); // throughput unchanged
    EXPECT_NEAR(lat1 / lat0, 1.236, 0.05);
}

// --- Baselines ---

TEST(ImageCopy, DeploysWholeImage)
{
    RigOptions o;
    o.imageSectors = (64 * sim::kMiB) / sim::kSectorSize;
    Rig rig(o);
    baselines::ImageCopyDeployer dep(rig.eq, "dep", *rig.machine,
                                     *rig.guest, kServerMac,
                                     o.imageSectors,
                                     baselines::ImageCopyParams{},
                                     /*coldFirmware=*/false);
    bool up = false;
    dep.run([&]() { up = true; });
    ASSERT_TRUE(
        runUntil(rig.eq, 40000 * sim::kSec, [&]() { return up; }));
    EXPECT_TRUE(rig.machine->disk().store().rangeHasBase(
        0, o.imageSectors, kImageBase));
    EXPECT_EQ(dep.bytesCopied(),
              sim::Bytes(o.imageSectors) * sim::kSectorSize);
    // Image copy transfers the whole image; BMcast would have
    // transferred only the boot working set.
    EXPECT_GT(dep.timeline().copyDone, dep.timeline().installerReady);
}

TEST(KvmDriver, LocalBackendRoundTrip)
{
    Rig rig;
    rig.machine->disk().store().write(0, rig.opts.imageSectors,
                                      kImageBase);
    baselines::KvmConfig cfg;
    baselines::KvmVmm kvm(rig.eq, "kvm", *rig.machine, cfg,
                          kServerMac);
    bool booted = false;
    kvm.boot([&]() { booted = true; });
    runUntil(rig.eq, 60 * sim::kSec, [&]() { return booted; });
    EXPECT_TRUE(rig.machine->profile().virtualized);

    auto &blk = kvm.blockDriver();
    bool wrote = false;
    blk.write(4096, 64, 0x2323000000000001ULL,
              [&]() { wrote = true; });
    ASSERT_TRUE(
        runUntil(rig.eq, 60 * sim::kSec, [&]() { return wrote; }));
    std::vector<std::uint64_t> got;
    blk.read(4096, 64, [&](const auto &t) { got = t; });
    ASSERT_TRUE(runUntil(rig.eq, 60 * sim::kSec,
                         [&]() { return !got.empty(); }));
    for (std::uint32_t i = 0; i < 64; ++i)
        EXPECT_EQ(got[i],
                  hw::sectorToken(0x2323000000000001ULL, 4096 + i));
}

TEST(KvmDriver, NetworkBackendReadsImage)
{
    Rig rig;
    baselines::KvmConfig cfg;
    cfg.storage = baselines::KvmStorage::Nfs;
    baselines::KvmVmm kvm(rig.eq, "kvm", *rig.machine, cfg,
                          kServerMac);
    auto &blk = kvm.blockDriver();
    blk.initialize();
    std::vector<std::uint64_t> got;
    blk.read(100, 32, [&](const auto &t) { got = t; });
    ASSERT_TRUE(runUntil(rig.eq, 60 * sim::kSec,
                         [&]() { return !got.empty(); }));
    for (std::uint32_t i = 0; i < 32; ++i)
        EXPECT_EQ(got[i], hw::sectorToken(kImageBase, 100 + i));
}

TEST(NetRoot, EveryOpCrossesTheNetwork)
{
    Rig rig;
    baselines::NetRootDriver drv(rig.eq, "nr", *rig.machine,
                                 kServerMac);
    drv.initialize();
    auto served_before = rig.server->requestsServed();
    bool done = false;
    drv.read(0, 64, [&](const auto &) { done = true; });
    ASSERT_TRUE(
        runUntil(rig.eq, 60 * sim::kSec, [&]() { return done; }));
    EXPECT_GT(rig.server->requestsServed(), served_before);
    EXPECT_EQ(rig.machine->disk().reads(), 0u)
        << "network boot never touches the local disk";
}

} // namespace
