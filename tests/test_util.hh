/**
 * @file
 * Shared test rig: one simulated machine on a management network
 * with an AoE storage server exporting a golden image, plus a guest
 * OS with a small boot trace. Used by integration and property
 * tests.
 */

#ifndef TESTS_TEST_UTIL_HH
#define TESTS_TEST_UTIL_HH

#include <memory>

#include "aoe/server.hh"
#include "bmcast/deployer.hh"
#include "guest/guest_os.hh"
#include "hw/machine.hh"
#include "net/network.hh"
#include "simcore/event_queue.hh"
#include "simcore/fault_injector.hh"

namespace testutil {

constexpr net::MacAddr kServerMac = 0x525400000001ULL;
constexpr net::MacAddr kServer2Mac = 0x525400000002ULL;
constexpr net::MacAddr kGuestMac = 0x525400000010ULL;
constexpr net::MacAddr kMgmtMac = 0x525400000011ULL;

/** Content base of the golden image exported by the server. */
constexpr std::uint64_t kImageBase = 0xABCD000000000001ULL;

/** Parameterized-test name for a storage kind. */
inline const char *
storageName(hw::StorageKind kind)
{
    switch (kind) {
      case hw::StorageKind::Ide:
        return "Ide";
      case hw::StorageKind::Ahci:
        return "Ahci";
      case hw::StorageKind::Nvme:
        return "Nvme";
    }
    return "Unknown";
}

/** Rig options. */
struct RigOptions
{
    hw::StorageKind storage = hw::StorageKind::Ahci;
    /** Image size in sectors (64 MiB default: fast tests). */
    sim::Lba imageSectors = (64 * sim::kMiB) / sim::kSectorSize;
    /** Small disk so bitmap edges are reachable quickly. */
    sim::Bytes diskBytes = 2 * sim::kGiB;
    unsigned serverWorkers = 4;
    double lossProbability = 0.0;
    bool tinyBoot = true;
    /** Attach a secondary AoE server ("server2") with the same
     *  image for failover tests. */
    bool secondaryServer = false;
};

/** The rig. */
struct Rig
{
    explicit Rig(RigOptions opt = RigOptions{})
        : opts(opt),
          lan(eq, "lan", 4 * sim::kUs, 42),
          serverPort(lan.attach(kServerMac,
                                net::PortConfig{1e9, 9000,
                                                opt.lossProbability}))
    {
        aoe::ServerParams sp;
        sp.workers = opt.serverWorkers;
        server = std::make_unique<aoe::AoeServer>(eq, "server",
                                                  serverPort, sp);
        server->addTarget(0, 0, opt.imageSectors, kImageBase);

        if (opt.secondaryServer) {
            net::Port &p2 = lan.attach(
                kServer2Mac, net::PortConfig{1e9, 9000, 0.0});
            server2 = std::make_unique<aoe::AoeServer>(
                eq, "server2", p2, sp);
            server2->addTarget(0, 0, opt.imageSectors, kImageBase);
        }

        hw::MachineConfig mc;
        mc.name = "node0";
        mc.storage = opt.storage;
        mc.disk.capacityBytes = opt.diskBytes;
        mc.firmwareColdInit = 133 * sim::kSec;
        machine = std::make_unique<hw::Machine>(
            eq, mc, lan, kGuestMac, lan, kMgmtMac);

        guest::GuestOsParams gp;
        if (opt.tinyBoot) {
            gp.boot.loaderBytes = 1 * sim::kMiB;
            gp.boot.kernelBytes = 4 * sim::kMiB;
            gp.boot.numReads = 40;
            gp.boot.avgReadBytes = 16 * sim::kKiB;
            gp.boot.cpuTotal = 500 * sim::kMs;
            gp.boot.regionBytes = 32 * sim::kMiB;
        }
        guest = std::make_unique<guest::GuestOs>(eq, "guest",
                                                 *machine, gp);
    }

    /** VMM parameters tuned for fast tests. */
    bmcast::VmmParams
    fastVmmParams() const
    {
        bmcast::VmmParams p;
        p.bootTime = 5 * sim::kSec;
        p.moderation.vmmWriteInterval = 2 * sim::kMs;
        p.moderation.guestIoFreqThreshold = 1e9; // no suspensions
        return p;
    }

    /** Wire a fault injector into every site of this rig. */
    void
    attachInjector(sim::FaultInjector &fi)
    {
        lan.setFaultInjector(&fi);
        machine->setFaultInjector(&fi);
        server->setFaultInjector(&fi);
        if (server2)
            server2->setFaultInjector(&fi);
    }

    RigOptions opts;
    sim::EventQueue eq;
    net::Network lan;
    net::Port &serverPort;
    std::unique_ptr<aoe::AoeServer> server;
    std::unique_ptr<aoe::AoeServer> server2;
    std::unique_ptr<hw::Machine> machine;
    std::unique_ptr<guest::GuestOs> guest;
};

/** Run the queue until the predicate holds or the deadline passes.
 *  @return true if the predicate held. */
template <typename Pred>
bool
runUntil(sim::EventQueue &eq, sim::Tick deadline, Pred &&pred)
{
    eq.stepWhile([&]() { return !pred() && eq.now() <= deadline; });
    return pred();
}

} // namespace testutil

#endif // TESTS_TEST_UTIL_HH
