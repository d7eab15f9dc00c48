/**
 * @file
 * Interrupted deployment: the §3.3 shutdown/reboot story. The VMM
 * persists its block bitmap in a reserved on-disk region; when the
 * machine comes back, a fresh VMM reloads it and resumes the copy
 * instead of starting over — and the region survives because guest
 * access to it is converted to dummy reads.
 */

#include <iostream>

#include "aoe/server.hh"
#include "bmcast/vmm.hh"
#include "guest/guest_os.hh"
#include "hw/machine.hh"
#include "net/network.hh"

int
main()
{
    sim::EventQueue eq;
    net::Network lan(eq, "lan");
    constexpr net::MacAddr kServerMac = 0x525400000001;
    constexpr std::uint64_t kImage = 0xABCD000000000001ULL;
    const sim::Lba image_sectors = (4 * sim::kGiB) / sim::kSectorSize;

    net::Port &sport = lan.attach(kServerMac, {1e9, 9000, 0.0});
    aoe::AoeServer server(eq, "server", sport);
    server.addTarget(0, 0, image_sectors, kImage);

    hw::MachineConfig mc;
    mc.name = "node0";
    hw::Machine machine(eq, mc, lan, 0x52540000A0, lan, 0x52540000B0);

    bmcast::VmmParams vp;
    vp.moderation.vmmWriteInterval = 12 * sim::kMs;

    // --- First deployment attempt; "power failure" mid-copy.
    auto vmm1 = std::make_unique<bmcast::Vmm>(
        eq, "vmm1", machine, std::vector<net::MacAddr>{kServerMac},
        image_sectors, vp);
    vmm1->netboot([]() {});
    eq.runUntil(eq.now() + 25 * sim::kSec);

    auto filled_in_image = [&](bmcast::BlockBitmap &bm) {
        sim::Lba empty = 0;
        for (auto [a, b] : bm.emptyRanges(0, image_sectors))
            empty += b - a;
        return image_sectors - empty;
    };
    sim::Lba filled_before = filled_in_image(vmm1->bitmap());
    bool saved = false;
    vmm1->saveBitmapNow([&]() { saved = true; });
    eq.stepWhile([&]() { return !saved; });
    std::cout << "power failure at t=" << sim::toSeconds(eq.now())
              << " s with "
              << filled_before * sim::kSectorSize / sim::kMiB
              << " MiB deployed; bitmap saved to the reserved "
                 "region\n";
    vmm1->powerOff(); // the machine goes down (object kept as a
                      // husk until its guarded events drain)

    // --- Reboot: a fresh VMM resumes from the saved bitmap.
    auto vmm2 = std::make_unique<bmcast::Vmm>(
        eq, "vmm2", machine, std::vector<net::MacAddr>{kServerMac},
        image_sectors, vp);
    bool ready = false;
    vmm2->netboot([&]() { ready = true; });
    eq.stepWhile([&]() { return !ready; });

    std::cout << "after reboot the new VMM sees "
              << filled_in_image(vmm2->bitmap()) * sim::kSectorSize /
                     sim::kMiB
              << " MiB already deployed (resumed, not restarted)\n";

    bool done = false;
    vmm2->onBareMetal([&]() { done = true; });
    eq.stepWhile(
        [&]() { return !done && eq.now() < 40000 * sim::kSec; });

    std::cout << "deployment finished at t="
              << sim::toSeconds(eq.now()) << " s; image intact: "
              << (machine.disk().store().rangeHasBase(0, image_sectors,
                                                      kImage)
                      ? "yes"
                      : "NO")
              << "\n";
    return 0;
}
