/**
 * @file
 * Figure 9: SysBench memory benchmark — throughput of repeated
 * allocate-and-fill until 1 MB is written, block sizes 1K..16K
 * (paper §5.5.1). KVM loses 35% at 16 KiB (nested paging + cache
 * pollution); BMcast ~6% while deploying, zero after.
 */

#include "baselines/kvm.hh"
#include "bench/harness.hh"
#include "workloads/sysbench.hh"

using namespace bench;

int
main()
{
    figureHeader("Figure 9: SysBench memory — throughput (MiB/s) vs "
                 "block size");

    const sim::Bytes sizes[] = {1 * sim::kKiB, 2 * sim::kKiB,
                                4 * sim::kKiB, 8 * sim::kKiB,
                                16 * sim::kKiB};

    Testbed bare;
    workloads::SysbenchMemory mem_bare(bare.machine());

    Testbed bm;
    bmcast::BmcastDeployer dep(bm.eq, "dep", bm.machine(), bm.guest(),
                               {kServerMac}, bm.imageSectors,
                               paperVmmParams(), false);
    bool up = false;
    dep.run([&]() { up = true; });
    bm.runUntil(1000 * sim::kSec, [&]() { return up; });
    workloads::SysbenchMemory mem_bm(bm.machine());

    Testbed kvm;
    baselines::KvmConfig cfg;
    baselines::KvmVmm vmm(kvm.eq, "kvm", kvm.machine(), cfg,
                          kServerMac);
    kvm.machine().setProfile(vmm.profile());
    workloads::SysbenchMemory mem_kvm(kvm.machine());

    sim::Table t({"Block", "Baremetal", "BMcast(Deploy)", "KVM",
                  "BMcast vs bare", "KVM vs bare"});
    for (sim::Bytes bs : sizes) {
        double b = mem_bare.throughputMiBps(bs);
        double d = mem_bm.throughputMiBps(bs);
        double k = mem_kvm.throughputMiBps(bs);
        t.addRow({std::to_string(bs / sim::kKiB) + "K",
                  sim::Table::num(b, 0), sim::Table::num(d, 0),
                  sim::Table::num(k, 0), sim::Table::pct(d, b),
                  sim::Table::pct(k, b)});
    }
    t.print(std::cout);
    std::cout << "\nPaper: KVM -35% at 16K blocks; BMcast -6% during "
                 "deployment, 0% after de-virtualization.\n";
    return 0;
}
