/**
 * @file
 * Figure 8: SysBench thread benchmark — average elapsed time of
 * 1000 acquire-yield-release rounds over 8 mutexes, for 1..24
 * threads (paper §5.5.1). KVM suffers lock-holder preemption (+68%
 * at 24 threads); BMcast stays within ~6% even while deploying.
 */

#include "baselines/kvm.hh"
#include "bench/harness.hh"
#include "workloads/sysbench.hh"

using namespace bench;

namespace {

const unsigned kThreadCounts[] = {1, 2, 4, 8, 12, 16, 20, 24};

std::map<unsigned, double>
sweep(Testbed &tb, hw::Machine &m)
{
    std::map<unsigned, double> out;
    workloads::SysbenchThreads bench(tb.eq, "sbt", m);
    for (unsigned t : kThreadCounts) {
        bool done = false;
        sim::Tick elapsed = 0;
        bench.run(t, [&](sim::Tick e) {
            elapsed = e;
            done = true;
        });
        tb.runUntil(tb.eq.now() + 4000 * sim::kSec,
                    [&]() { return done; });
        out[t] = sim::toMillis(elapsed);
    }
    return out;
}

} // namespace

int
main()
{
    figureHeader("Figure 8: SysBench threads — elapsed time (ms), "
                 "1000 iterations x 8 mutexes");

    Testbed bare;
    auto r_bare = sweep(bare, bare.machine());

    Testbed bm;
    bmcast::BmcastDeployer dep(bm.eq, "dep", bm.machine(), bm.guest(),
                               {kServerMac}, bm.imageSectors,
                               paperVmmParams(), false);
    bool up = false;
    dep.run([&]() { up = true; });
    bm.runUntil(1000 * sim::kSec, [&]() { return up; });
    auto r_bm = sweep(bm, bm.machine());

    Testbed kvm;
    baselines::KvmConfig cfg;
    baselines::KvmVmm vmm(kvm.eq, "kvm", kvm.machine(), cfg,
                          kServerMac);
    kvm.machine().setProfile(vmm.profile());
    auto r_kvm = sweep(kvm, kvm.machine());

    sim::Table t({"Threads", "Baremetal", "BMcast(Deploy)", "KVM",
                  "BMcast vs bare", "KVM vs bare"});
    for (unsigned n : kThreadCounts) {
        t.addRow({std::to_string(n), sim::Table::num(r_bare[n], 2),
                  sim::Table::num(r_bm[n], 2),
                  sim::Table::num(r_kvm[n], 2),
                  sim::Table::pct(r_bm[n], r_bare[n]),
                  sim::Table::pct(r_kvm[n], r_bare[n])});
    }
    t.print(std::cout);
    std::cout << "\nPaper: KVM +68% at 24 threads (lock-holder "
                 "preemption); BMcast +6%.\n";
    return 0;
}
