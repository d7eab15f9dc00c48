/**
 * @file
 * Quickstart: deploy one bare-metal instance with BMcast.
 *
 * Builds a small cloud — a storage server exporting a golden OS
 * image and one fresh machine — then runs the full BMcast pipeline:
 * the de-virtualizable VMM network-boots, the unmodified guest OS
 * boots immediately under copy-on-read, the background copy fills
 * the local disk, and the VMM de-virtualizes itself away.
 *
 * The run is traced through sim::obs: a Chrome trace_event JSON
 * (load quickstart.trace.json in chrome://tracing or Perfetto) and a
 * deployment-timeline report are written next to the binary.
 *
 * Build & run:
 *   cmake -B build -G Ninja && cmake --build build
 *   ./build/examples/quickstart
 */

#include <iostream>

#include "aoe/server.hh"
#include "bmcast/deployer.hh"
#include "guest/guest_os.hh"
#include "hw/machine.hh"
#include "net/network.hh"
#include "obs/chrome_trace.hh"
#include "obs/obs.hh"
#include "obs/run_report.hh"

int
main()
{
    sim::EventQueue eq;

    // --- Observability: arm a tracer for the whole run. Every layer
    // is instrumented but records nothing until this call.
    obs::Tracer tracer;
    obs::arm(&tracer);
    obs::setClock(
        [](const void *ctx) {
            return static_cast<const sim::EventQueue *>(ctx)->now();
        },
        &eq);

    // --- The provider's infrastructure: a management LAN with an
    // AoE storage server exporting a 4-GiB golden image.
    net::Network lan(eq, "lan");
    constexpr net::MacAddr kServerMac = 0x525400000001;
    constexpr std::uint64_t kImage = 0xABCD000000000001ULL;
    const sim::Lba image_sectors = (4 * sim::kGiB) / sim::kSectorSize;

    net::Port &sport = lan.attach(kServerMac, {1e9, 9000, 0.0});
    aoe::AoeServer server(eq, "server", sport);
    server.addTarget(0, 0, image_sectors, kImage);

    // --- One bare-metal machine (AHCI disk, two NICs; the second is
    // dedicated to the VMM).
    hw::MachineConfig mc;
    mc.name = "node0";
    hw::Machine machine(eq, mc, lan, 0x52540000A0, lan, 0x52540000B0);

    // --- The customer's unmodified OS.
    guest::GuestOs guest(eq, "guest", machine);

    // --- Deploy with BMcast.
    bmcast::BmcastDeployer deployer(eq, "deployer", machine, guest,
                                    {kServerMac}, image_sectors,
                                    bmcast::VmmParams{},
                                    /*coldFirmware=*/false);

    deployer.onBareMetal([&]() {
        std::cout << "[" << sim::toSeconds(eq.now())
                  << "s] de-virtualized: VMM is gone, guest owns the "
                     "hardware\n";
    });

    deployer.run([&]() {
        std::cout << "[" << sim::toSeconds(eq.now())
                  << "s] instance ready: guest OS booted (deployment "
                     "continues in the background)\n";
    });

    eq.run();

    const auto &tl = deployer.timeline();
    std::cout << "\nTimeline:\n"
              << "  VMM network boot done:  "
              << sim::toSeconds(tl.vmmReady) << " s\n"
              << "  guest OS ready:         "
              << sim::toSeconds(tl.guestBootDone) << " s\n"
              << "  image fully deployed:   "
              << sim::toSeconds(tl.copyComplete) << " s\n"
              << "  bare metal reached:     "
              << sim::toSeconds(tl.bareMetal) << " s\n";

    std::cout << "\nVerification:\n"
              << "  local disk holds the golden image: "
              << (machine.disk().store().rangeHasBase(0, image_sectors,
                                                      kImage)
                      ? "yes"
                      : "NO")
              << "\n  intercepts removed: "
              << (machine.bus().anyInterceptActive() ? "NO" : "yes")
              << "\n  profile: " << machine.profile().name << "\n";

    // --- Export the trace and the reconstructed timeline.
    obs::disarm();
    obs::writeChromeTraceFile("quickstart.trace.json", tracer);
    obs::RunReport report = obs::RunReport::build(tracer);
    report.writeJsonFile("quickstart.report.json");
    std::cout << "\nTrace: quickstart.trace.json ("
              << tracer.recorded() << " events, "
              << report.events().size() << " milestones; open in "
                 "chrome://tracing or ui.perfetto.dev)\n";
    return 0;
}
