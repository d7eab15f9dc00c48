/**
 * @file
 * Elastic scale-out: a tenant asks for 8 bare-metal instances at
 * once (the paper's agility/elasticity motivation, §1).
 *
 * With image copying, every instance must pull the full image
 * through the shared storage server before it can boot; with BMcast
 * every instance is serving within about a minute while deployment
 * streams in the background, and the server only ships the blocks
 * each guest actually touches during boot (§5.1: ~72 MB instead of
 * 32 GB).
 */

#include <iostream>
#include <memory>
#include <vector>

#include "aoe/server.hh"
#include "baselines/image_copy.hh"
#include "bmcast/cloud.hh"
#include "bmcast/deployer.hh"
#include "guest/guest_os.hh"
#include "hw/machine.hh"
#include "net/network.hh"
#include "simcore/table.hh"

namespace {

constexpr unsigned kInstances = 8;
constexpr net::MacAddr kServerMac = 0x525400000001;
constexpr std::uint64_t kImage = 0xABCD000000000001ULL;
const sim::Lba kImageSectors = (8 * sim::kGiB) / sim::kSectorSize;

struct Cloud
{
    Cloud()
        : lan(eq, "lan"),
          sport(lan.attach(kServerMac, {1e9, 9000, 0.0})),
          server(eq, "server", sport)
    {
        server.addTarget(0, 0, kImageSectors, kImage);
        for (unsigned i = 0; i < kInstances; ++i) {
            hw::MachineConfig mc;
            mc.name = "node" + std::to_string(i);
            mc.seed = i + 1;
            machines.push_back(std::make_unique<hw::Machine>(
                eq, mc, lan, 0x5254000100 + i, lan,
                0x5254000200 + i));
            guest::GuestOsParams gp;
            gp.seed = i + 11;
            guests.push_back(std::make_unique<guest::GuestOs>(
                eq, mc.name + ".guest", *machines.back(), gp));
        }
    }

    sim::EventQueue eq;
    net::Network lan;
    net::Port &sport;
    aoe::AoeServer server;
    std::vector<std::unique_ptr<hw::Machine>> machines;
    std::vector<std::unique_ptr<guest::GuestOs>> guests;
};

} // namespace

int
main()
{
    std::vector<double> ready_bmcast, ready_copy;

    {
        Cloud cloud;
        std::vector<std::unique_ptr<bmcast::BmcastDeployer>> deps;
        for (unsigned i = 0; i < kInstances; ++i) {
            deps.push_back(std::make_unique<bmcast::BmcastDeployer>(
                cloud.eq, "dep" + std::to_string(i), *cloud.machines[i],
                *cloud.guests[i], std::vector<net::MacAddr>{kServerMac},
                kImageSectors, bmcast::VmmParams{},
                /*coldFirmware=*/false));
            deps.back()->run([&cloud, &ready_bmcast]() {
                ready_bmcast.push_back(
                    sim::toSeconds(cloud.eq.now()));
            });
        }
        cloud.eq.stepWhile([&]() {
            return ready_bmcast.size() < kInstances &&
                   cloud.eq.now() < 40000 * sim::kSec;
        });
        std::cout << "BMcast: server shipped "
                  << cloud.server.dataBytesOut() / sim::kMiB
                  << " MiB by the time all " << kInstances
                  << " instances were serving\n";
    }

    {
        Cloud cloud;
        std::vector<std::unique_ptr<baselines::ImageCopyDeployer>>
            deps;
        for (unsigned i = 0; i < kInstances; ++i) {
            deps.push_back(
                std::make_unique<baselines::ImageCopyDeployer>(
                    cloud.eq, "dep" + std::to_string(i),
                    *cloud.machines[i], *cloud.guests[i], kServerMac,
                    kImageSectors, baselines::ImageCopyParams{},
                    /*coldFirmware=*/false));
            deps.back()->run([&cloud, &ready_copy]() {
                ready_copy.push_back(sim::toSeconds(cloud.eq.now()));
            });
        }
        cloud.eq.stepWhile([&]() {
            return ready_copy.size() < kInstances &&
                   cloud.eq.now() < 400000 * sim::kSec;
        });
    }

    sim::Table t({"Instance", "BMcast ready (s)",
                  "Image copy ready (s)"});
    for (unsigned i = 0; i < kInstances; ++i)
        t.addRow({std::to_string(i),
                  sim::Table::num(ready_bmcast.at(i), 1),
                  sim::Table::num(ready_copy.at(i), 1)});
    t.print(std::cout);

    std::cout << "\nLast instance ready: BMcast "
              << sim::Table::num(ready_bmcast.back(), 1)
              << " s vs image copy "
              << sim::Table::num(ready_copy.back(), 1) << " s ("
              << sim::Table::num(ready_copy.back() /
                                     ready_bmcast.back(),
                                 1)
              << "x)\n";

    // Elasticity is lease AND reclaim: run a small region through a
    // full provision -> release -> re-lease cycle on the provider
    // facade. Released machines are scrubbed and go straight back
    // into the pool, so the second tenant's wave deploys onto the
    // same hardware.
    {
        sim::EventQueue eq;
        bmcast::CloudConfig cfg;
        cfg.machines = 4;
        cfg.vmm.bootTime = 5 * sim::kSec;
        bmcast::Cloud region(eq, "region", cfg);
        region.addImage("tenant-a", 512 * sim::kMiB, kImage);
        region.addImage("tenant-b", 512 * sim::kMiB,
                        0xBEEF000000000001ULL);

        std::vector<bmcast::Instance *> wave1;
        for (unsigned i = 0; i < 4; ++i)
            wave1.push_back(region.provision("tenant-a", nullptr));
        auto all_serving = [](const auto &wave) {
            for (auto *inst : wave)
                if (inst->state() ==
                    bmcast::Instance::State::Provisioning)
                    return false;
            return true;
        };
        eq.stepWhile([&]() { return !all_serving(wave1); });
        std::cout << "\nRegion: 4/4 machines leased to tenant A at t="
                  << sim::Table::num(sim::toSeconds(eq.now()), 1)
                  << " s (free: " << region.freeMachines() << ")\n";

        // Tenant A scales in by half; the freed machines are
        // re-leased to tenant B while A's remaining pair keeps
        // deploying in the background.
        region.releaseLease(wave1[0]->lease());
        region.releaseLease(wave1[1]->lease());
        std::cout << "Region: tenant A released 2 machines (free: "
                  << region.freeMachines() << ")\n";

        std::vector<bmcast::Instance *> wave2;
        wave2.push_back(region.provision("tenant-b", nullptr));
        wave2.push_back(region.provision("tenant-b", nullptr));
        eq.stepWhile([&]() { return !all_serving(wave2); });
        std::cout << "Region: 2 machines re-leased to tenant B at t="
                  << sim::Table::num(sim::toSeconds(eq.now()), 1)
                  << " s (free: " << region.freeMachines() << ")\n";
    }
    return 0;
}
