/**
 * @file
 * Figure 7: kernbench (Linux kernel compile, allnoconfig, -j12)
 * elapsed time (paper §5.4): Baremetal ~16 s; BMcast Deploy +8%;
 * BMcast Devirt +0%; KVM +3%.
 */

#include "baselines/kvm.hh"
#include "bench/harness.hh"
#include "workloads/kernbench.hh"

using namespace bench;

namespace {

double
runKernbench(Testbed &tb, hw::Machine &m, guest::BlockDriver &blk)
{
    workloads::Kernbench kb(tb.eq, "kernbench", m, blk);
    double secs = 0;
    bool done = false;
    kb.run([&](sim::Tick t) {
        secs = sim::toSeconds(t);
        done = true;
    });
    tb.runUntil(tb.eq.now() + 4000 * sim::kSec,
                [&]() { return done; });
    return secs;
}

} // namespace

int
main()
{
    figureHeader("Figure 7: kernbench elapsed time (seconds)");
    std::vector<std::pair<std::string, double>> rows;

    {
        Testbed tb;
        tb.machine().disk().store().write(0, tb.imageSectors,
                                          kImageBase);
        bool up = false;
        tb.guest().start([&]() { up = true; });
        tb.runUntil(400 * sim::kSec, [&]() { return up; });
        rows.emplace_back(
            "Baremetal",
            runKernbench(tb, tb.machine(), tb.guest().blk()));
    }

    {
        // BMcast, deployment in progress throughout the compile.
        Testbed tb;
        bmcast::BmcastDeployer dep(tb.eq, "dep", tb.machine(),
                                   tb.guest(), {kServerMac},
                                   tb.imageSectors, paperVmmParams(),
                                   false);
        bool up = false;
        dep.run([&]() { up = true; });
        tb.runUntil(1000 * sim::kSec, [&]() { return up; });
        rows.emplace_back(
            "BMcast (Deploy)",
            runKernbench(tb, tb.machine(), tb.guest().blk()));
    }

    {
        // BMcast after de-virtualization (small image to reach the
        // bare-metal phase quickly; the compile state is identical).
        sim::Lba small = (2 * sim::kGiB) / sim::kSectorSize;
        Testbed tb(1, hw::StorageKind::Ahci, small);
        bmcast::VmmParams fast = paperVmmParams();
        fast.moderation.vmmWriteInterval = 2 * sim::kMs;
        bmcast::BmcastDeployer dep(tb.eq, "dep", tb.machine(),
                                   tb.guest(), {kServerMac}, small,
                                   fast, false);
        dep.run([]() {});
        tb.runUntil(4000 * sim::kSec,
                    [&]() { return dep.bareMetalReached(); });
        rows.emplace_back(
            "BMcast (Devirt)",
            runKernbench(tb, tb.machine(), tb.guest().blk()));
    }

    {
        Testbed tb;
        tb.machine().disk().store().write(0, tb.imageSectors,
                                          kImageBase);
        baselines::KvmConfig cfg;
        baselines::KvmVmm kvm(tb.eq, "kvm", tb.machine(), cfg,
                              kServerMac);
        guest::GuestOsParams gp;
        gp.boot = paperBootTrace();
        gp.externalDriver = &kvm.blockDriver();
        guest::GuestOs g(tb.eq, "kvm-guest", tb.machine(), gp);
        bool up = false;
        kvm.boot([&]() { g.start([&]() { up = true; }); });
        tb.runUntil(400 * sim::kSec, [&]() { return up; });
        rows.emplace_back("KVM",
                          runKernbench(tb, tb.machine(), g.blk()));
    }

    double base = rows[0].second;
    sim::Table t({"System", "Elapsed (s)", "vs bare"});
    for (auto &[name, secs] : rows)
        t.addRow({name, sim::Table::num(secs, 2),
                  sim::Table::pct(secs, base)});
    t.print(std::cout);
    std::cout << "\nPaper: Baremetal ~16 s; Deploy +8%; Devirt +0%; "
                 "KVM +3%.\n";
    sim::printBarChart(std::cout, "\nkernbench elapsed:", rows, "s");
    return 0;
}
