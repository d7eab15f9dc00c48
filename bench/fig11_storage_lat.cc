/**
 * @file
 * Figure 11: storage latency — ioping-style 4 KiB reads (paper
 * §5.5.2). Deploy adds +4.3 ms (guest requests queue behind the
 * VMM's multiplexed background-copy writes); Devirt is
 * indistinguishable from bare metal.
 */

#include "baselines/kvm.hh"
#include "baselines/net_root.hh"
#include "bench/harness.hh"
#include "workloads/fio.hh"

using namespace bench;

namespace {

double
runIoping(Testbed &tb, guest::BlockDriver &blk, sim::Lba lba = 0)
{
    workloads::IopingParams ip;
    if (lba)
        ip.startLba = lba;
    workloads::Ioping probe(tb.eq, "ioping", blk, ip);
    bool done = false;
    double mean = 0;
    probe.run([&](workloads::IopingResult r) {
        mean = r.meanMs;
        done = true;
    });
    tb.runUntil(tb.eq.now() + 4000 * sim::kSec,
                [&]() { return done; });
    return mean;
}

} // namespace

int
main()
{
    figureHeader("Figure 11: storage latency (ms), ioping 4 KiB "
                 "reads x 100");
    std::vector<std::pair<std::string, double>> rows;

    {
        Testbed tb;
        tb.machine().disk().store().write(0, tb.imageSectors,
                                          kImageBase);
        bool up = false;
        tb.guest().start([&]() { up = true; });
        tb.runUntil(400 * sim::kSec, [&]() { return up; });
        rows.emplace_back("Baremetal",
                          runIoping(tb, tb.guest().blk()));
    }
    {
        Testbed tb;
        bmcast::BmcastDeployer dep(tb.eq, "dep", tb.machine(),
                                   tb.guest(), {kServerMac},
                                   tb.imageSectors, paperVmmParams(),
                                   false);
        bool up = false;
        dep.run([&]() { up = true; });
        tb.runUntil(1000 * sim::kSec, [&]() { return up; });
        sim::Lba cold = (16ULL * sim::kGiB) / sim::kSectorSize;
        rows.emplace_back("Deploy",
                          runIoping(tb, tb.guest().blk(), cold));
        tb.noteMediator("Deploy", dep.vmm().mediator());
    }
    {
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
        rows.emplace_back("Devirt", runIoping(tb, tb.guest().blk()));
    }
    {
        Testbed tb(1, hw::StorageKind::Ahci, kImageSectors, 0.35);
        baselines::NetRootDriver drv(tb.eq, "nfsroot", tb.machine(),
                                     kServerMac);
        drv.initialize();
        rows.emplace_back("Netboot", runIoping(tb, drv));
    }
    {
        Testbed tb;
        tb.machine().disk().store().write(0, tb.imageSectors,
                                          kImageBase);
        baselines::KvmConfig cfg;
        baselines::KvmVmm kvm(tb.eq, "kvm", tb.machine(), cfg,
                              kServerMac);
        tb.machine().setProfile(kvm.profile());
        kvm.blockDriver().initialize();
        rows.emplace_back("KVM/Local",
                          runIoping(tb, kvm.blockDriver()));
    }

    double base = rows[0].second;
    sim::Table t({"System", "Mean latency (ms)", "delta vs bare"});
    for (auto &[name, ms] : rows)
        t.addRow({name, sim::Table::num(ms, 2),
                  (ms >= base ? "+" : "") +
                      sim::Table::num(ms - base, 2) + " ms"});
    t.print(std::cout);
    std::cout << "\nPaper: Deploy +4.3 ms (blocking behind "
                 "multiplexed VMM I/O); Devirt ~= bare metal.\n";
    sim::printBarChart(std::cout, "\nMean 4K read latency:", rows,
                       "ms");

    // NVMe backend on the same mediation core: deploy-time latency
    // and post-devirt latency should track the AHCI rows.
    std::vector<std::pair<std::string, double>> nvme;
    {
        Testbed tb(1, hw::StorageKind::Nvme);
        bmcast::BmcastDeployer dep(tb.eq, "dep", tb.machine(),
                                   tb.guest(), {kServerMac},
                                   tb.imageSectors, paperVmmParams(),
                                   false);
        bool up = false;
        dep.run([&]() { up = true; });
        tb.runUntil(1000 * sim::kSec, [&]() { return up; });
        sim::Lba cold = (16ULL * sim::kGiB) / sim::kSectorSize;
        nvme.emplace_back("Deploy/NVMe",
                          runIoping(tb, tb.guest().blk(), cold));
        tb.noteMediator("Deploy/NVMe", dep.vmm().mediator());
    }
    {
        sim::Lba small = (2 * sim::kGiB) / sim::kSectorSize;
        Testbed tb(1, hw::StorageKind::Nvme, small);
        bmcast::VmmParams fast = paperVmmParams();
        fast.moderation.vmmWriteInterval = 2 * sim::kMs;
        bmcast::BmcastDeployer dep(tb.eq, "dep", tb.machine(),
                                   tb.guest(), {kServerMac}, small,
                                   fast, false);
        dep.run([]() {});
        tb.runUntil(4000 * sim::kSec,
                    [&]() { return dep.bareMetalReached(); });
        nvme.emplace_back("Devirt/NVMe",
                          runIoping(tb, tb.guest().blk()));
    }
    std::cout << "\nNVMe backend (same mediation core):\n";
    sim::Table nt({"System", "Mean latency (ms)", "delta vs bare"});
    for (auto &[name, ms] : nvme)
        nt.addRow({name, sim::Table::num(ms, 2),
                   (ms >= base ? "+" : "") +
                       sim::Table::num(ms - base, 2) + " ms"});
    nt.print(std::cout);
    return 0;
}
