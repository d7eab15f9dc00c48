/**
 * @file
 * Figure 4: OS startup time of one bare-metal instance under six
 * deployment strategies (paper §5.1).
 *
 * Reported rows mirror the paper's stacked bars: firmware init, VMM
 * or installer bring-up, image transfer / reboot, OS boot, plus the
 * headline ratios (BMcast 8.6x faster than image copying excluding
 * the first firmware init; VMM boot 6x faster than KVM).
 */

#include "bench/harness.hh"

using namespace bench;

namespace {

struct Row
{
    std::string name;
    double firmware = 0;
    double setup = 0;    //!< VMM/installer/hypervisor bring-up
    double transfer = 0; //!< image copy + reboot
    double osBoot = 0;

    double
    totalNoFw() const
    {
        return setup + transfer + osBoot;
    }
};

Row
runBaremetal()
{
    Testbed tb;
    // The disk already holds the OS (the best case: no deployment).
    tb.machine().disk().store().write(0, tb.imageSectors, kImageBase);

    Row row{"Baremetal"};
    bool done = false;
    sim::Tick fw_done = 0;
    tb.machine().firmware().powerOn([&]() {
        fw_done = tb.eq.now();
        tb.guest().start([&]() { done = true; });
    });
    tb.runUntil(4000 * sim::kSec, [&]() { return done; });
    row.firmware = sim::toSeconds(fw_done);
    row.osBoot = sim::toSeconds(tb.eq.now() - fw_done);
    return row;
}

Row
runBmcast(hw::StorageKind kind = hw::StorageKind::Ahci,
          const std::string &label = "BMcast")
{
    Testbed tb(1, kind);
    bmcast::BmcastDeployer dep(tb.eq, "dep", tb.machine(), tb.guest(),
                               {kServerMac}, tb.imageSectors,
                               paperVmmParams(), true);
    bool ready = false;
    dep.run([&]() { ready = true; });
    tb.runUntil(4000 * sim::kSec, [&]() { return ready; });
    const sim::Bytes boot_bytes =
        dep.vmm().initiator().dataBytesRead();
    // With tracing armed, continue to bare metal so the trace and
    // RunReport cover the full deployment timeline (copy complete,
    // de-virtualization); the printed rows use boot-time stamps and
    // the byte count snapshotted above, so they do not change.
    if (obs::armed())
        tb.runUntil(8000 * sim::kSec,
                    [&]() { return dep.bareMetalReached(); });
    tb.noteMediator(label, dep.vmm().mediator());

    const auto &tl = dep.timeline();
    Row row{label};
    row.firmware = sim::toSeconds(tl.firmwareDone - tl.powerOn);
    row.setup = sim::toSeconds(tl.vmmReady - tl.firmwareDone);
    row.osBoot = sim::toSeconds(tl.guestBootDone - tl.vmmReady);

    std::cout << "  [BMcast] bytes fetched during boot: "
              << boot_bytes / sim::kMiB << " MiB ("
              << sim::Table::num(
                     sim::toMBps(boot_bytes,
                                 tl.guestBootDone - tl.vmmReady))
              << " MB/s avg)\n";
    return row;
}

Row
runImageCopy()
{
    Testbed tb;
    baselines::ImageCopyDeployer dep(tb.eq, "dep", tb.machine(),
                                     tb.guest(), kServerMac,
                                     tb.imageSectors);
    bool ready = false;
    dep.run([&]() { ready = true; });
    tb.runUntil(8000 * sim::kSec, [&]() { return ready; });

    const auto &tl = dep.timeline();
    Row row{"Image Copy"};
    row.firmware = sim::toSeconds(tl.firmwareDone - tl.powerOn);
    row.setup = sim::toSeconds(tl.installerReady - tl.firmwareDone);
    row.transfer = sim::toSeconds(tl.rebootDone - tl.installerReady);
    row.osBoot = sim::toSeconds(tl.guestBootDone - tl.rebootDone);
    return row;
}

Row
runNfsRoot()
{
    Testbed tb(1, hw::StorageKind::Ahci, kImageSectors,
               /*serverCacheHitRate=*/0.35);
    guest::GuestOsParams gp;
    gp.boot = paperBootTrace();
    baselines::NetRootDriver drv(tb.eq, "nfsroot", tb.machine(),
                                 kServerMac);
    gp.externalDriver = &drv;
    guest::GuestOs g(tb.eq, "netboot-guest", tb.machine(), gp);
    baselines::NfsRootBoot boot(tb.eq, "boot", tb.machine(), g);
    bool ready = false;
    boot.run([&]() { ready = true; });
    tb.runUntil(4000 * sim::kSec, [&]() { return ready; });

    const auto &tl = boot.timeline();
    Row row{"NFS Root"};
    row.firmware = sim::toSeconds(tl.firmwareDone - tl.powerOn);
    row.osBoot = sim::toSeconds(tl.guestBootDone - tl.firmwareDone);
    return row;
}

Row
runKvm(baselines::KvmStorage storage, const std::string &label)
{
    Testbed tb(1, hw::StorageKind::Ahci, kImageSectors,
               storage == baselines::KvmStorage::Nfs ? 0.35 : 0.0);
    baselines::KvmConfig cfg;
    cfg.storage = storage;
    baselines::KvmVmm kvm(tb.eq, "kvm", tb.machine(), cfg, kServerMac);

    guest::GuestOsParams gp;
    gp.boot = paperBootTrace();
    gp.externalDriver = &kvm.blockDriver();
    guest::GuestOs g(tb.eq, "kvm-guest", tb.machine(), gp);

    Row row{label};
    bool ready = false;
    sim::Tick fw_done = 0, kvm_done = 0;
    tb.machine().firmware().powerOn([&]() {
        fw_done = tb.eq.now();
        kvm.boot([&]() {
            kvm_done = tb.eq.now();
            g.start([&]() { ready = true; });
        });
    });
    tb.runUntil(4000 * sim::kSec, [&]() { return ready; });
    row.firmware = sim::toSeconds(fw_done);
    row.setup = sim::toSeconds(kvm_done - fw_done);
    row.osBoot = sim::toSeconds(tb.eq.now() - kvm_done);
    return row;
}

} // namespace

int
main()
{
    figureHeader("Figure 4: OS startup time (seconds)");

    std::vector<Row> rows;
    rows.push_back(runBaremetal());
    rows.push_back(runBmcast());
    rows.push_back(runImageCopy());
    rows.push_back(runNfsRoot());
    rows.push_back(runKvm(baselines::KvmStorage::Nfs, "KVM/NFS"));
    rows.push_back(runKvm(baselines::KvmStorage::Iscsi, "KVM/iSCSI"));

    sim::Table t({"Strategy", "Firmware", "VMM/Installer",
                  "Transfer+Reboot", "OS boot", "Total(no FW)",
                  "Total"});
    for (const Row &r : rows) {
        t.addRow({r.name, sim::Table::num(r.firmware, 1),
                  sim::Table::num(r.setup, 1),
                  sim::Table::num(r.transfer, 1),
                  sim::Table::num(r.osBoot, 1),
                  sim::Table::num(r.totalNoFw(), 1),
                  sim::Table::num(r.firmware + r.totalNoFw(), 1)});
    }
    t.print(std::cout);

    double bmcast = rows[1].totalNoFw();
    double copy = rows[2].totalNoFw();
    std::cout << "\nBMcast vs image copy (excl. firmware): "
              << sim::Table::num(copy / bmcast, 1)
              << "x faster (paper: 8.6x)\n";
    std::cout << "BMcast vs image copy (incl. firmware): "
              << sim::Table::num((rows[2].firmware + copy) /
                                     (rows[1].firmware + bmcast),
                                 1)
              << "x faster (paper: 3.5x)\n";
    std::cout << "VMM boot " << sim::Table::num(rows[4].setup /
                                                rows[1].setup, 1)
              << "x faster than KVM host boot (paper: 6x)\n";

    std::vector<std::pair<std::string, double>> bars;
    for (const Row &r : rows)
        bars.emplace_back(r.name, r.totalNoFw());
    sim::printBarChart(std::cout,
                  "\nStartup time excluding first firmware init:",
                  bars, "s");

    // The same mediation core drives the NVMe backend; its BMcast
    // startup row should track the AHCI one.
    std::cout << "\nNVMe backend (same mediation core):\n";
    Row nv = runBmcast(hw::StorageKind::Nvme, "BMcast/NVMe");
    sim::Table nt({"Strategy", "Firmware", "VMM/Installer",
                   "Transfer+Reboot", "OS boot", "Total(no FW)",
                   "Total"});
    nt.addRow({nv.name, sim::Table::num(nv.firmware, 1),
               sim::Table::num(nv.setup, 1),
               sim::Table::num(nv.transfer, 1),
               sim::Table::num(nv.osBoot, 1),
               sim::Table::num(nv.totalNoFw(), 1),
               sim::Table::num(nv.firmware + nv.totalNoFw(), 1)});
    nt.print(std::cout);
    return 0;
}
