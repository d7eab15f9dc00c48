/**
 * @file
 * Ablation (paper §4.2): "the original vblade cannot fully utilize
 * the network bandwidth because it is single-threaded and becomes a
 * performance bottleneck when the VMM sends a significant volume of
 * read requests. Therefore, we implemented a thread pool."
 *
 * vblade is a user-space daemon: each jumbo frame costs a packet
 * syscall plus copies (~180 us on the testbed-era CPU), so one
 * thread tops out below gigabit line rate; the pool spreads the
 * per-frame work across cores.
 */

#include "aoe/initiator.hh"
#include "aoe/server.hh"
#include "bench/harness.hh"
#include "net/l2.hh"

using namespace bench;

namespace {

double
runWorkers(unsigned workers)
{
    sim::EventQueue eq;
    net::Network lan(eq, "lan");
    net::Port &sport = lan.attach(1, {1e9, 9000, 0.0});
    aoe::ServerParams sp;
    sp.workers = workers;
    // User-space datapath costs of the original vblade on the
    // paper-era CPU: syscall + copy per jumbo frame.
    sp.cpuPerRequest = 200 * sim::kUs;
    sp.cpuPerFragment = 180 * sim::kUs;
    sp.cacheHitRate = 0.9; // image mostly warm; CPU is the story
    aoe::AoeServer server(eq, "server", sport, sp);
    server.addTarget(0, 0, 1 << 24, kImageBase);

    // Four clients keep deep pipelines of 1-MiB reads outstanding —
    // the "significant volume of read requests" regime.
    constexpr unsigned kClients = 4;
    constexpr unsigned kReadsPer = 48;
    std::vector<std::unique_ptr<net::PortEndpoint>> eps;
    std::vector<std::unique_ptr<aoe::AoeInitiator>> inits;
    unsigned done = 0;
    for (unsigned c = 0; c < kClients; ++c) {
        net::Port &p = lan.attach(10 + c, {1e9, 9000, 0.0});
        eps.push_back(std::make_unique<net::PortEndpoint>(p));
        aoe::InitiatorParams ip;
        ip.minTimeout = 4 * sim::kSec; // a loaded server is not loss
        inits.push_back(std::make_unique<aoe::AoeInitiator>(
            eq, "init" + std::to_string(c), *eps.back(), 1, ip));
    }
    for (unsigned c = 0; c < kClients; ++c) {
        for (unsigned i = 0; i < kReadsPer; ++i) {
            sim::Lba lba =
                ((sim::Lba(c) * 7919 + i * 131) % 8000) * 2048;
            inits[c]->readSectors(lba, 2048,
                                  [&done](const auto &) { ++done; });
        }
    }
    eq.stepWhile([&]() { return done < kClients * kReadsPer; });
    double total_mb = double(kClients * kReadsPer) * 1.048576;
    return total_mb / sim::toSeconds(eq.now());
}

} // namespace

int
main()
{
    figureHeader("Ablation (paper §4.2): vblade single thread vs "
                 "thread pool — aggregate serve rate");
    sim::Table t({"Server workers", "Aggregate MB/s", "vs 1 worker"});
    double base = 0;
    for (unsigned w : {1u, 2u, 4u, 8u}) {
        double mbps = runWorkers(w);
        if (w == 1)
            base = mbps;
        t.addRow({std::to_string(w), sim::Table::num(mbps, 1),
                  sim::Table::num(mbps / base, 2) + "x"});
    }
    t.print(std::cout);
    std::cout << "\nOne worker is CPU-bound below line rate; the "
                 "pool restores wire-limited serving (~118 MB/s on "
                 "GbE\nwith jumbo frames), matching the paper's "
                 "§4.2 fix.\n";
    return 0;
}
