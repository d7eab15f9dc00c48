/**
 * @file
 * Ablation: VM-exit accounting across BMcast's phases, the minimal-
 * exit configuration (§4.1), the VMXOFF question (§4.3), and the
 * shared-NIC mediation tier's exit profile.
 *
 * During deployment only storage-controller accesses and the
 * preemption timer exit; after de-virtualization interposition is
 * gone. Without VMXOFF (the evaluated prototype) VMX stays enabled
 * and only the unconditional-but-rare CPUID exits remain — "their
 * overhead was negligible" (§5.5.2); with the VMXOFF extension even
 * those disappear.
 *
 * The netmed sweep measures the NIC half of the story on
 * BMCAST_NODES independent serving cells: a guest TX/RX burst
 * through trapping mediation (every doorbell exits) versus the
 * exitless doorbell page (the sidecore poll loop moves the data).
 * The exit counters are the same hw::IoBus intercept counters
 * abl_shared_nic gates on; this bench's gate is the same >= 10x cut.
 * Emits BENCH_exit_rate.json with uniform ScaleRecords; `--smoke`
 * runs only the (fast) netmed sweep for the bench-smoke label.
 */

#include <chrono>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "aoe/server.hh"
#include "bench/harness.hh"
#include "hw/e1000_driver.hh"
#include "hw/machine.hh"
#include "hw/nic_doorbell.hh"
#include "netmed/net_mediation_core.hh"
#include "workloads/fio.hh"

using namespace bench;

namespace {

void
run(bool vmxoff)
{
    sim::Lba img = (2 * sim::kGiB) / sim::kSectorSize;
    Testbed tb(1, hw::StorageKind::Ahci, img);
    bmcast::VmmParams p = paperVmmParams();
    p.moderation.vmmWriteInterval = 2 * sim::kMs;
    bmcast::BmcastDeployer dep(tb.eq, "dep", tb.machine(),
                               tb.guest(), {kServerMac}, img, p, false,
                               /*vmxoffSupported=*/vmxoff);
    bool up = false;
    dep.run([&]() { up = true; });
    tb.runUntil(1000 * sim::kSec, [&]() { return up; });

    auto &vmx = tb.machine().vmx();
    auto &bus = tb.machine().bus();
    sim::Tick boot_span =
        dep.timeline().guestBootDone - dep.timeline().vmmReady;
    std::uint64_t io_exits_boot =
        vmx.exits(hw::ExitReason::MmioAccess) +
        vmx.exits(hw::ExitReason::PioAccess);

    // Run an I/O-heavy minute during deployment.
    workloads::FioParams fp;
    fp.totalBytes = 64 * sim::kMiB;
    fp.layoutFirst = true;
    workloads::Fio fio(tb.eq, "fio", tb.guest().blk(), fp);
    bool fio_done = false;
    std::uint64_t exits_before = vmx.totalExits();
    sim::Tick t0 = tb.eq.now();
    fio.run([&](workloads::FioResult) { fio_done = true; });
    tb.runUntil(tb.eq.now() + 400 * sim::kSec,
                [&]() { return fio_done; });
    double deploy_rate =
        double(vmx.totalExits() - exits_before) /
        sim::toSeconds(tb.eq.now() - t0);

    // Finish deployment, de-virtualize.
    tb.runUntil(40000 * sim::kSec,
                [&]() { return dep.bareMetalReached(); });

    std::uint64_t intercepted_after = bus.interceptedAccesses();
    bool done2 = false;
    workloads::FioParams fp2;
    fp2.totalBytes = 64 * sim::kMiB;
    fp2.startLba = 500 * 2048;
    fp2.layoutFirst = true;
    workloads::Fio fio2(tb.eq, "fio2", tb.guest().blk(), fp2);
    fio2.run([&](workloads::FioResult) { done2 = true; });
    tb.runUntil(tb.eq.now() + 400 * sim::kSec,
                [&]() { return done2; });

    sim::Table t({"Metric", "Value"});
    t.addRow({"I/O exits during guest boot",
              std::to_string(io_exits_boot)});
    t.addRow({"  (boot span)",
              sim::Table::num(sim::toSeconds(boot_span), 1) + " s"});
    t.addRow({"Exit rate during deploy-phase fio",
              sim::Table::num(deploy_rate, 0) + " /s"});
    t.addRow({"Intercepted accesses after devirt",
              std::to_string(bus.interceptedAccesses() -
                             intercepted_after)});
    t.addRow({"VMX still enabled after devirt",
              tb.machine().vmx().anyInVmx() ? "yes (CPUID-only exits)"
                                            : "no (VMXOFF)"});
    t.print(std::cout);
    std::cout << "\n";
}

/** Per-mode result of the netmed sweep. */
struct NicSweep
{
    std::uint64_t exits = 0;   ///< guest-NIC-window exits, burst only
    std::uint64_t frames = 0;  ///< frames each way, summed over cells
    double exitsPerFrame = 0.0;
    ScaleRecord rec;
};

/**
 * One serving cell per node: a mediated machine, one guest driver,
 * a peer; 100 frames each way after the rings settle, counting
 * guest-context intercepts in the NIC register window.
 */
NicSweep
nicSweep(netmed::MedMode mode, unsigned nodes)
{
    NicSweep out;
    std::uint64_t fp = 0x452821E638D01377ULL;
    auto t0 = std::chrono::steady_clock::now();
    std::uint64_t events = 0;
    for (unsigned node = 0; node < nodes; ++node) {
        sim::EventQueue eq;
        net::Network lan(eq, "lan", 4 * sim::kUs, 1000 + node);
        hw::MachineConfig mc;
        mc.name = "cell" + std::to_string(node);
        mc.seed = 100 + node;
        hw::Machine m(eq, mc, lan, 0x525400000010ULL, lan,
                      0x525400000011ULL);
        hw::MemArena vmmArena(0x78000000, 128 * sim::kMiB);
        netmed::NetMediationCore core(eq, "netmed", m.bus(), m.mem(),
                                      m.guestNic(), vmmArena, mode,
                                      0x88A2);
        netmed::NetMediationCore::GuestConfig g0;
        if (mode == netmed::MedMode::Exitless) {
            g0.doorbell = vmmArena.alloc(hw::nicdb::kPageSize, 64);
            g0.intc = &m.intc();
            g0.irqVector = hw::kGuestNicIrq;
        }
        core.addGuest(g0);
        core.install();

        hw::MemArena gArena(32 * sim::kMiB, 16 * sim::kMiB);
        hw::E1000Driver drv(eq, "gdrv", hw::BusView(m.bus(), true),
                            m.guestNic(), m.mem(), gArena,
                            hw::E1000Driver::Mode::Interrupt,
                            &m.intc(), hw::kGuestNicIrq);
        if (mode == netmed::MedMode::Exitless)
            drv.attachDoorbell(core.guestPort(0).doorbellPage());

        std::function<void()> poll = [&]() {
            core.poll();
            eq.schedule(10 * sim::kUs, poll);
        };
        poll();

        net::Port &peer = lan.attach(0x42);
        unsigned peer_rx = 0, guest_rx = 0;
        peer.onReceive([&](const net::Frame &) { ++peer_rx; });
        drv.setRxHandler([&](const net::Frame &) { ++guest_rx; });
        eq.runUntil(eq.now() + 10 * sim::kMs); // ring setup settles

        std::uint64_t before = m.bus().interceptedIn(
            hw::IoSpace::Mmio, hw::kGuestNicMmio,
            hw::e1000::kMmioSize);
        for (unsigned i = 0; i < 100; ++i) {
            net::Frame f;
            f.dst = 0x42;
            f.etherType = 0x88B5;
            f.payload.assign(256, 1);
            drv.sendFrame(std::move(f));
        }
        for (unsigned i = 0; i < 100; ++i) {
            net::Frame f;
            f.dst = 0x525400000010ULL;
            f.etherType = 0x88B5;
            f.payload.assign(256, 2);
            peer.send(std::move(f));
        }
        sim::Tick deadline = eq.now() + 10 * sim::kSec;
        eq.stepWhile([&]() {
            return eq.now() < deadline &&
                   !(peer_rx == 100 && guest_rx == 100);
        });
        sim::fatalIf(peer_rx != 100 || guest_rx != 100,
                     "netmed sweep burst never completed");

        std::uint64_t delta = m.bus().interceptedIn(
                                  hw::IoSpace::Mmio,
                                  hw::kGuestNicMmio,
                                  hw::e1000::kMmioSize) -
                              before;
        out.exits += delta;
        out.frames += 200;
        events += eq.executed();
        fp = sim::fingerprintMix(fp, delta);
        fp = sim::fingerprintMix(fp, core.stats().guestTx);
        fp = sim::fingerprintMix(fp, core.stats().guestRx);
    }
    auto t1 = std::chrono::steady_clock::now();
    out.exitsPerFrame =
        out.frames ? double(out.exits) / double(out.frames) : 0.0;
    out.rec.nodes = nodes;
    out.rec.shards = 1;
    out.rec.wallMs =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    out.rec.events = events;
    if (out.rec.wallMs > 0.0)
        out.rec.eventsPerSec =
            double(out.rec.events) / (out.rec.wallMs / 1e3);
    out.rec.fingerprint = fp;
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
    unsigned nodes = envUnsigned("BMCAST_NODES", smoke ? 2 : 4);

    figureHeader("Ablation: VM-exit accounting — VMXOFF (§4.1, "
                 "§4.3, §5.5.2) and NIC mediation (netmed)");
    if (!smoke) {
        std::cout << "--- Evaluated prototype (no VMXOFF):\n";
        run(false);
        std::cout << "--- With the VMXOFF extension:\n";
        run(true);
        std::cout << "Either way, zero guest accesses are "
                     "intercepted after de-virtualization;\nVMXOFF "
                     "only removes the rare unconditional CPUID "
                     "exits (§4.3).\n\n";
    }

    std::cout << "--- Shared-NIC mediation: trap vs exitless ("
              << nodes << " cells, 100 frames each way)\n";
    NicSweep trap = nicSweep(netmed::MedMode::Trap, nodes);
    NicSweep exitless = nicSweep(netmed::MedMode::Exitless, nodes);

    sim::Table t({"Mode", "NIC-window exits", "Exits/frame"});
    t.addRow({"trap", std::to_string(trap.exits),
              sim::Table::num(trap.exitsPerFrame, 2)});
    t.addRow({"exitless", std::to_string(exitless.exits),
              sim::Table::num(exitless.exitsPerFrame, 2)});
    t.print(std::cout);

    bool ok = trap.exits > 0 && exitless.exits * 10 <= trap.exits;
    std::cout << "\nexit cut: " << trap.exits << " -> "
              << exitless.exits << " (gate >= 10x)\n";

    std::vector<ScaleRecord> recs{trap.rec, exitless.rec};
    std::ofstream json("BENCH_exit_rate.json");
    json << "{\n  \"bench\": \"abl_exit_rate\",\n"
         << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n"
         << "  \"netmed\": {\n"
         << "    \"trap_exits\": " << trap.exits << ",\n"
         << "    \"exitless_exits\": " << exitless.exits << ",\n"
         << "    \"trap_exits_per_frame\": "
         << sim::Table::num(trap.exitsPerFrame, 3) << ",\n"
         << "    \"exitless_exits_per_frame\": "
         << sim::Table::num(exitless.exitsPerFrame, 3) << ",\n"
         << "    \"exit_cut_10x\": " << (ok ? "true" : "false")
         << ",\n"
         << "    " << scaleRecordsJson(recs, "    ") << "\n"
         << "  }\n}\n";
    json.close();
    std::cout << "wrote BENCH_exit_rate.json\n";

    if (!ok)
        std::cout << "EXIT-RATE GATE FAILED: exitless did not cut "
                     "NIC-window exits 10x\n";
    return ok ? 0 : 1;
}
