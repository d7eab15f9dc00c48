/**
 * @file
 * Figure 10: fio sequential storage throughput, read and write
 * (paper §5.5.2 — 200 MB, 1 MB blocks, direct I/O): Baremetal
 * 116.6/111.9 MB/s; Deploy read -4.1%; Devirt read -1.7%; Netboot
 * (continuous network path); KVM/Local -10.5/-13.6%; KVM/NFS
 * -12.3/-15.3%.
 */

#include "baselines/kvm.hh"
#include "baselines/net_root.hh"
#include "bench/harness.hh"
#include "workloads/fio.hh"

using namespace bench;

namespace {

struct Pair
{
    double read = 0;
    double write = 0;
};

Pair
runFio(Testbed &tb, guest::BlockDriver &blk, sim::Lba readLba = 0)
{
    Pair out;
    {
        workloads::FioParams fp;
        fp.isWrite = false;
        if (readLba)
            fp.startLba = readLba;
        workloads::Fio fio(tb.eq, "fio-r", blk, fp);
        bool done = false;
        fio.run([&](workloads::FioResult r) {
            out.read = r.mbPerSec;
            done = true;
        });
        tb.runUntil(tb.eq.now() + 4000 * sim::kSec,
                    [&]() { return done; });
    }
    {
        workloads::FioParams fp;
        fp.isWrite = true;
        fp.startLba = 64 * 2048; // separate file
        workloads::Fio fio(tb.eq, "fio-w", blk, fp);
        bool done = false;
        fio.run([&](workloads::FioResult r) {
            out.write = r.mbPerSec;
            done = true;
        });
        tb.runUntil(tb.eq.now() + 4000 * sim::kSec,
                    [&]() { return done; });
    }
    return out;
}

} // namespace

int
main()
{
    figureHeader("Figure 10: storage throughput (MB/s), fio 200 MB "
                 "x 1 MB blocks");
    std::vector<std::pair<std::string, Pair>> rows;

    {
        Testbed tb;
        tb.machine().disk().store().write(0, tb.imageSectors,
                                          kImageBase);
        bool up = false;
        tb.guest().start([&]() { up = true; });
        tb.runUntil(400 * sim::kSec, [&]() { return up; });
        rows.emplace_back("Baremetal", runFio(tb, tb.guest().blk()));
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
        // Read a file the background copy has not reached yet.
        sim::Lba cold = (16ULL * sim::kGiB) / sim::kSectorSize;
        rows.emplace_back("Deploy",
                          runFio(tb, tb.guest().blk(), cold));
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
        rows.emplace_back("Devirt", runFio(tb, tb.guest().blk()));
    }
    {
        Testbed tb(1, hw::StorageKind::Ahci, kImageSectors, 0.35);
        baselines::NetRootDriver drv(tb.eq, "nfsroot", tb.machine(),
                                     kServerMac);
        drv.initialize();
        rows.emplace_back("Netboot", runFio(tb, drv));
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
        rows.emplace_back("KVM/Local", runFio(tb, kvm.blockDriver()));
    }
    {
        Testbed tb(1, hw::StorageKind::Ahci, kImageSectors, 0.35);
        baselines::KvmConfig cfg;
        cfg.storage = baselines::KvmStorage::Nfs;
        baselines::KvmVmm kvm(tb.eq, "kvm", tb.machine(), cfg,
                              kServerMac);
        tb.machine().setProfile(kvm.profile());
        kvm.blockDriver().initialize();
        rows.emplace_back("KVM/NFS", runFio(tb, kvm.blockDriver()));
    }

    Pair base = rows[0].second;
    sim::Table t({"System", "Read MB/s", "vs bare", "Write MB/s",
                  "vs bare"});
    for (auto &[name, p] : rows)
        t.addRow({name, sim::Table::num(p.read, 1),
                  sim::Table::pct(p.read, base.read),
                  sim::Table::num(p.write, 1),
                  sim::Table::pct(p.write, base.write)});
    t.print(std::cout);
    std::cout << "\nPaper: bare 116.6/111.9; Deploy read -4.1%; "
                 "Devirt read -1.7%; KVM/Local -10.5%/-13.6%; "
                 "KVM/NFS -12.3%/-15.3%.\n";

    // The NVMe backend rides the same mediation core: its deploy-time
    // and post-devirt throughput should track the AHCI rows.
    std::vector<std::pair<std::string, Pair>> nvme;
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
                          runFio(tb, tb.guest().blk(), cold));
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
                          runFio(tb, tb.guest().blk()));
    }
    std::cout << "\nNVMe backend (same mediation core):\n";
    sim::Table nt({"System", "Read MB/s", "vs bare", "Write MB/s",
                   "vs bare"});
    for (auto &[name, p] : nvme)
        nt.addRow({name, sim::Table::num(p.read, 1),
                   sim::Table::pct(p.read, base.read),
                   sim::Table::num(p.write, 1),
                   sim::Table::pct(p.write, base.write)});
    nt.print(std::cout);
    return 0;
}
