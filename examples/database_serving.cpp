/**
 * @file
 * Database serving while deploying: the paper's §5.2 scenario as an
 * application example. A memcached-style instance starts serving a
 * YCSB load the moment the guest boots; performance during the
 * deployment phase, the seamless de-virtualization step, and the
 * final bare-metal level are printed as a 30-second time series.
 */

#include <iostream>

#include "aoe/server.hh"
#include "bmcast/deployer.hh"
#include "guest/guest_os.hh"
#include "hw/machine.hh"
#include "net/network.hh"
#include "simcore/table.hh"
#include "workloads/ycsb.hh"

int
main()
{
    sim::EventQueue eq;
    net::Network lan(eq, "lan");
    constexpr net::MacAddr kServerMac = 0x525400000001;
    constexpr std::uint64_t kImage = 0xABCD000000000001ULL;
    const sim::Lba image_sectors = (6 * sim::kGiB) / sim::kSectorSize;

    net::Port &sport = lan.attach(kServerMac, {1e9, 9000, 0.0});
    aoe::AoeServer server(eq, "server", sport);
    server.addTarget(0, 0, image_sectors, kImage);

    hw::MachineConfig mc;
    mc.name = "db-node";
    hw::Machine machine(eq, mc, lan, 0x52540000A0, lan, 0x52540000B0);
    guest::GuestOs guest(eq, "guest", machine);

    bmcast::VmmParams vp;
    vp.moderation.vmmWriteInterval = 28 * sim::kMs;
    bmcast::BmcastDeployer deployer(eq, "deployer", machine, guest,
                                    {kServerMac}, image_sectors, vp,
                                    /*coldFirmware=*/false);

    bool up = false;
    deployer.run([&]() { up = true; });
    eq.stepWhile([&]() { return !up; });
    std::cout << "guest up at " << sim::toSeconds(eq.now())
              << " s; database starts serving\n\n";

    workloads::DbInstance db(eq, "memcached", machine, &guest.blk(),
                             workloads::memcachedParams());

    sim::Table t({"t(s)", "throughput KT/s", "latency us", "phase"});
    bool devirt_seen = false;
    while (true) {
        workloads::YcsbParams yp;
        yp.threads = 10;
        yp.duration = 1 * sim::kSec;
        yp.seed = eq.now();
        workloads::YcsbClient client(eq, "ycsb", db, yp);
        bool done = false;
        client.run([&]() { done = true; });
        eq.stepWhile([&]() { return !done; });

        bool bare = deployer.bareMetalReached();
        t.addRow({sim::Table::num(sim::toSeconds(eq.now()), 0),
                  sim::Table::num(
                      client.meanThroughputOpsPerSec() / 1000.0, 1),
                  sim::Table::num(client.meanLatencyUs(), 0),
                  bare ? "bare-metal" : "deploying"});
        if (bare && !devirt_seen) {
            devirt_seen = true;
        } else if (bare) {
            break; // one more sample after de-virtualization
        }
        eq.runUntil(eq.now() + 29 * sim::kSec);
    }
    t.print(std::cout);

    std::cout << "\nNo suspension at the phase shift: the guest kept "
                 "serving throughout (paper §5.2).\n";
    return 0;
}
