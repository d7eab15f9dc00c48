/**
 * @file
 * Chaos failover: a deployment streams from two vblade servers with
 * a lossy network, and the primary server is killed mid-stream. The
 * AoE retry budget detects the dead server, the VMM retargets every
 * outstanding request at the secondary, and the block bitmap resumes
 * the copy without re-writing a single block — the final image is
 * byte-identical to a fault-free run.
 */

#include <iostream>

#include "aoe/server.hh"
#include "bmcast/deployer.hh"
#include "guest/guest_os.hh"
#include "hw/machine.hh"
#include "net/network.hh"
#include "simcore/fault_injector.hh"

int
main()
{
    sim::EventQueue eq;
    net::Network lan(eq, "lan");
    constexpr net::MacAddr kPrimaryMac = 0x525400000001;
    constexpr net::MacAddr kSecondaryMac = 0x525400000002;
    constexpr std::uint64_t kImage = 0xABCD000000000001ULL;
    const sim::Lba image_sectors = (2 * sim::kGiB) / sim::kSectorSize;

    net::Port &p1 = lan.attach(kPrimaryMac, {1e9, 9000, 0.0});
    aoe::AoeServer primary(eq, "primary", p1);
    primary.addTarget(0, 0, image_sectors, kImage);

    net::Port &p2 = lan.attach(kSecondaryMac, {1e9, 9000, 0.0});
    aoe::AoeServer secondary(eq, "secondary", p2);
    secondary.addTarget(0, 0, image_sectors, kImage);

    hw::MachineConfig mc;
    mc.name = "node0";
    hw::Machine machine(eq, mc, lan, 0x52540000A0, lan, 0x52540000B0);
    guest::GuestOs guest(eq, "guest", machine);

    // 2% random frame loss on top of the crash, via the central
    // fault injector.
    sim::FaultInjector chaos(2026);
    sim::SitePlan loss;
    loss.probability = 0.02;
    chaos.arm(sim::FaultSite::NetDrop, loss);
    lan.setFaultInjector(&chaos);
    primary.setFaultInjector(&chaos);
    secondary.setFaultInjector(&chaos);
    machine.setFaultInjector(&chaos);

    bmcast::VmmParams vp;
    vp.moderation.vmmWriteInterval = 12 * sim::kMs;
    vp.aoeMaxRetries = 4; // detect the dead server fast

    bmcast::BmcastDeployer dep(
        eq, "dep", machine, guest,
        std::vector<net::MacAddr>{kPrimaryMac, kSecondaryMac},
        image_sectors, vp, false);
    dep.vmm().onDeployError([&](const aoe::DeployError &e) {
        std::cout << "t=" << sim::toSeconds(eq.now())
                  << " s: request lba=" << e.lba << " gave up after "
                  << e.retries << " retries\n";
    });
    dep.run([&]() {
        std::cout << "t=" << sim::toSeconds(eq.now())
                  << " s: guest OS up (instance usable)\n";
    });

    // Kill the primary at the halfway point.
    bool killed = false;
    sim::Lba base_filled = 0;
    bool observing = false;
    eq.stepWhile([&]() {
        if (dep.bareMetalReached())
            return false;
        bmcast::Vmm &vmm = dep.vmm();
        if (!observing &&
            vmm.phase() == bmcast::Vmm::Phase::Deployment) {
            observing = true;
            base_filled = vmm.bitmap().filledCount();
        }
        if (observing && !killed &&
            vmm.bitmap().filledCount() - base_filled >=
                image_sectors / 2) {
            killed = true;
            primary.crash();
            std::cout << "t=" << sim::toSeconds(eq.now())
                      << " s: PRIMARY SERVER KILLED at 50% "
                         "deployed\n";
        }
        return true;
    });

    std::cout << "t=" << sim::toSeconds(eq.now())
              << " s: bare metal reached\n"
              << "failovers: " << dep.vmm().failovers()
              << ", now streaming from "
              << (dep.vmm().currentServer() == kSecondaryMac
                      ? "secondary"
                      : "primary")
              << "\n"
              << "secondary served " << secondary.requestsServed()
              << " requests; frames lost to chaos: "
              << chaos.triggers(sim::FaultSite::NetDrop) << "\n"
              << "image intact: "
              << (machine.disk().store().rangeHasBase(0, image_sectors,
                                                      kImage)
                      ? "yes"
                      : "NO")
              << "\n";
    return 0;
}
