/**
 * @file
 * Figures 12 & 13: raw InfiniBand RDMA throughput and latency
 * (paper §5.5.3 — ib_rdma_bw / ib_rdma_lat, 64 KB x 1000).
 *
 * Throughput is identical across systems (the HCA's command queuing
 * hides per-op overhead at saturation); latency exposes KVM/Direct's
 * IOMMU + nested-paging cost (+23.6%) while BMcast adds <1% during
 * deployment and nothing after.
 */

#include "baselines/kvm.hh"
#include "bench/harness.hh"
#include "workloads/ib_perftest.hh"

using namespace bench;

namespace {

struct Res
{
    double bw = 0;
    double lat = 0;
};

Res
run(Testbed &tb)
{
    workloads::IbPerftest pt(tb.eq, "perftest", tb.machine(0),
                             tb.machine(1));
    Res out;
    bool done = false;
    pt.runBandwidth([&](workloads::IbPerftestResult r) {
        out.bw = r.mbPerSec;
        done = true;
    });
    tb.runUntil(tb.eq.now() + 400 * sim::kSec, [&]() { return done; });
    done = false;
    pt.runLatency([&](workloads::IbPerftestResult r) {
        out.lat = r.meanLatencyUs;
        done = true;
    });
    tb.runUntil(tb.eq.now() + 400 * sim::kSec, [&]() { return done; });
    return out;
}

} // namespace

int
main()
{
    figureHeader("Figures 12/13: InfiniBand RDMA 64 KB x 1000 — "
                 "throughput (MB/s) and latency (us)");
    std::vector<std::pair<std::string, Res>> rows;

    {
        Testbed tb(2);
        rows.emplace_back("Baremetal", run(tb));
    }
    {
        Testbed tb(2);
        std::vector<std::unique_ptr<bmcast::BmcastDeployer>> deps;
        unsigned up = 0;
        for (unsigned i = 0; i < 2; ++i) {
            deps.push_back(std::make_unique<bmcast::BmcastDeployer>(
                tb.eq, "dep" + std::to_string(i), tb.machine(i),
                tb.guest(i), std::vector<net::MacAddr>{kServerMac},
                tb.imageSectors, paperVmmParams(), false));
            deps.back()->run([&up]() { ++up; });
        }
        tb.runUntil(2000 * sim::kSec, [&]() { return up == 2; });
        rows.emplace_back("Deploy", run(tb));
    }
    {
        sim::Lba small = (2 * sim::kGiB) / sim::kSectorSize;
        Testbed tb(2, hw::StorageKind::Ahci, small);
        std::vector<std::unique_ptr<bmcast::BmcastDeployer>> deps;
        bmcast::VmmParams fast = paperVmmParams();
        fast.moderation.vmmWriteInterval = 2 * sim::kMs;
        unsigned done_n = 0;
        for (unsigned i = 0; i < 2; ++i) {
            deps.push_back(std::make_unique<bmcast::BmcastDeployer>(
                tb.eq, "dep" + std::to_string(i), tb.machine(i),
                tb.guest(i), std::vector<net::MacAddr>{kServerMac}, small,
                fast, false));
            deps.back()->run([]() {});
        }
        tb.runUntil(4000 * sim::kSec, [&]() {
            done_n = 0;
            for (auto &d : deps)
                if (d->bareMetalReached())
                    ++done_n;
            return done_n == 2;
        });
        rows.emplace_back("Devirt", run(tb));
    }
    {
        Testbed tb(2);
        baselines::KvmConfig cfg;
        for (unsigned i = 0; i < 2; ++i) {
            baselines::KvmVmm kvm(tb.eq, "kvm" + std::to_string(i),
                                  tb.machine(i), cfg, kServerMac);
            tb.machine(i).setProfile(kvm.profile());
        }
        rows.emplace_back("KVM/Direct", run(tb));
    }

    Res base = rows[0].second;
    sim::Table t({"System", "Throughput MB/s", "vs bare",
                  "Latency us", "vs bare"});
    for (auto &[name, r] : rows)
        t.addRow({name, sim::Table::num(r.bw, 0),
                  sim::Table::pct(r.bw, base.bw),
                  sim::Table::num(r.lat, 2),
                  sim::Table::pct(r.lat, base.lat)});
    t.print(std::cout);
    std::cout << "\nPaper: throughput identical everywhere "
                 "(saturated); latency KVM/Direct +23.6%, BMcast "
                 "Deploy <1%, Devirt 0%.\n";
    return 0;
}
