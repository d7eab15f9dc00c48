/**
 * @file
 * Hardware-model tests: sparse physical memory, the content-token
 * disk store (property-swept against a reference map), the IO bus
 * interposition surface, the disk service model, both storage
 * controllers driven at register level, DMA helpers, the NIC
 * datapath, firmware e820 manipulation, and the VMX engine.
 */

#include <gtest/gtest.h>

#include <map>

#include "guest/ahci_driver.hh"
#include "guest/ide_driver.hh"
#include "guest/nvme_driver.hh"
#include "hw/disk.hh"
#include "hw/disk_store.hh"
#include "hw/dma.hh"
#include "hw/e1000_driver.hh"
#include "hw/firmware.hh"
#include "hw/machine.hh"
#include "hw/phys_mem.hh"
#include "simcore/random.hh"

namespace {

// --- PhysMem ---

TEST(PhysMem, ZeroFilledByDefault)
{
    hw::PhysMem mem(1 * sim::kGiB);
    EXPECT_EQ(mem.read64(0x1234), 0u);
    EXPECT_EQ(mem.pagesAllocated(), 0u);
}

TEST(PhysMem, ReadBackWrites)
{
    hw::PhysMem mem(1 * sim::kGiB);
    mem.write32(0x1000, 0xDEADBEEF);
    EXPECT_EQ(mem.read32(0x1000), 0xDEADBEEFu);
    EXPECT_EQ(mem.read16(0x1000), 0xBEEFu);
    EXPECT_EQ(mem.read8(0x1003), 0xDEu);
}

TEST(PhysMem, CrossPageAccess)
{
    hw::PhysMem mem(1 * sim::kGiB);
    mem.write64(4096 - 4, 0x1122334455667788ULL);
    EXPECT_EQ(mem.read64(4096 - 4), 0x1122334455667788ULL);
    EXPECT_EQ(mem.pagesAllocated(), 2u);
}

TEST(PhysMem, OutOfRangePanics)
{
    hw::PhysMem mem(4096);
    EXPECT_THROW(mem.read64(4095), sim::PanicError);
    EXPECT_THROW(mem.write8(4096, 1), sim::PanicError);
}

TEST(PhysMem, FillRange)
{
    hw::PhysMem mem(1 * sim::kMiB);
    mem.fill(100, 0xAB, 5000);
    EXPECT_EQ(mem.read8(100), 0xABu);
    EXPECT_EQ(mem.read8(5099), 0xABu);
    EXPECT_EQ(mem.read8(99), 0u);
    EXPECT_EQ(mem.read8(5100), 0u);
}

// --- DiskStore ---

TEST(DiskStore, UnwrittenReadsAsZeroToken)
{
    hw::DiskStore s;
    EXPECT_EQ(s.baseAt(123), 0u);
    EXPECT_EQ(s.tokenAt(123), 0u);
}

TEST(DiskStore, TokenBaseRoundTrip)
{
    const std::uint64_t base = 0xAA55000000000001ULL;
    for (sim::Lba lba : {0ull, 1ull, 77777ull, (1ull << 40)}) {
        auto token = hw::sectorToken(base, lba);
        EXPECT_EQ(hw::baseFromToken(token, lba), base);
    }
}

TEST(DiskStore, LargeWriteIsOneExtent)
{
    hw::DiskStore s;
    s.write(0, 64ull << 20, 7); // a 32 GiB image: one extent
    EXPECT_EQ(s.extentCount(), 1u);
    EXPECT_TRUE(s.rangeHasBase(0, 64ull << 20, 7));
}

TEST(DiskStore, OverwriteSplits)
{
    hw::DiskStore s;
    s.write(0, 1000, 7);
    s.write(400, 100, 9);
    EXPECT_TRUE(s.rangeHasBase(0, 400, 7));
    EXPECT_TRUE(s.rangeHasBase(400, 100, 9));
    EXPECT_TRUE(s.rangeHasBase(500, 500, 7));
    EXPECT_EQ(s.extentCount(), 3u);
}

class DiskStoreProperty : public ::testing::TestWithParam<int>
{
};

TEST_P(DiskStoreProperty, MatchesReferenceMap)
{
    sim::Rng rng(GetParam() * 131);
    hw::DiskStore s;
    std::map<sim::Lba, std::uint64_t> ref;
    constexpr sim::Lba kSpace = 600;

    for (int op = 0; op < 250; ++op) {
        sim::Lba a = rng.uniformInt(0, kSpace - 1);
        std::uint64_t n = rng.uniformInt(1, 40);
        std::uint64_t base = rng.uniformInt(1, 5) << 32 | 1;
        s.write(a, n, base);
        for (sim::Lba p = a; p < a + n; ++p)
            ref[p] = base;
    }
    for (sim::Lba p = 0; p < kSpace + 50; ++p) {
        auto it = ref.find(p);
        ASSERT_EQ(s.baseAt(p), it == ref.end() ? 0 : it->second)
            << "lba " << p;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DiskStoreProperty,
                         ::testing::Range(1, 9));

// --- IoBus ---

TEST(IoBus, RoutesToDevice)
{
    hw::IoBus bus;
    std::uint64_t last_write = 0;
    bus.addDevice(hw::IoSpace::Pio, 0x100, 8,
                  hw::IoDevice{"dev",
                               [](sim::Addr o, unsigned) {
                                   return o * 10;
                               },
                               [&](sim::Addr, std::uint64_t v,
                                   unsigned) { last_write = v; }});
    EXPECT_EQ(bus.guestRead(hw::IoSpace::Pio, 0x103, 1), 30u);
    bus.guestWrite(hw::IoSpace::Pio, 0x100, 42, 1);
    EXPECT_EQ(last_write, 42u);
}

TEST(IoBus, UnmappedReadsFloatHigh)
{
    hw::IoBus bus;
    EXPECT_EQ(bus.guestRead(hw::IoSpace::Pio, 0x9999, 1), ~0ULL);
}

TEST(IoBus, OverlappingDevicesRejected)
{
    hw::IoBus bus;
    bus.addDevice(hw::IoSpace::Mmio, 0x1000, 0x100, hw::IoDevice{});
    EXPECT_THROW(
        bus.addDevice(hw::IoSpace::Mmio, 0x10F0, 0x10, hw::IoDevice{}),
        sim::FatalError);
}

struct CountingInterceptor : hw::IoInterceptor
{
    int reads = 0, writes = 0;
    bool swallow = false;

    bool
    interceptRead(sim::Addr, unsigned, std::uint64_t &v) override
    {
        ++reads;
        v = 0x55;
        return swallow;
    }
    bool
    interceptWrite(sim::Addr, std::uint64_t, unsigned) override
    {
        ++writes;
        return swallow;
    }
};

TEST(IoBus, InterceptorSeesGuestAccessesOnly)
{
    hw::IoBus bus;
    int dev_reads = 0;
    bus.addDevice(hw::IoSpace::Pio, 0x1F0, 8,
                  hw::IoDevice{"ide",
                               [&](sim::Addr, unsigned) {
                                   ++dev_reads;
                                   return 7ull;
                               },
                               nullptr});
    // A second, never-intercepted range: its window counts no exits.
    bus.addDevice(hw::IoSpace::Pio, 0x170, 8,
                  hw::IoDevice{"ide2", nullptr, nullptr});
    CountingInterceptor icpt;
    bus.intercept(hw::IoSpace::Pio, 0x1F0, 8, &icpt);
    auto exits = [&] {
        EXPECT_EQ(bus.interceptedIn(hw::IoSpace::Pio, 0x1F0, 8),
                  bus.interceptedAccesses());
        return bus.interceptedAccesses();
    };

    // Guest access exits and forwards (swallow=false).
    EXPECT_EQ(bus.guestRead(hw::IoSpace::Pio, 0x1F7, 1), 7u);
    EXPECT_EQ(icpt.reads, 1);
    EXPECT_EQ(dev_reads, 1);
    EXPECT_EQ(exits(), 1u);

    // VMM access never exits.
    EXPECT_EQ(bus.vmmRead(hw::IoSpace::Pio, 0x1F7, 1), 7u);
    bus.vmmWrite(hw::IoSpace::Pio, 0x1F7, 0x20, 1);
    EXPECT_EQ(icpt.reads, 1);
    EXPECT_EQ(icpt.writes, 0);
    EXPECT_EQ(exits(), 1u);

    // Swallowed access does not reach the device.
    icpt.swallow = true;
    EXPECT_EQ(bus.guestRead(hw::IoSpace::Pio, 0x1F7, 1), 0x55u);
    EXPECT_EQ(dev_reads, 2);
    bus.guestWrite(hw::IoSpace::Pio, 0x1F7, 0x20, 1);
    EXPECT_EQ(icpt.writes, 1);
    EXPECT_EQ(exits(), 3u);

    // Guest accesses to the unintercepted range never exit.
    bus.guestRead(hw::IoSpace::Pio, 0x170, 1);
    bus.guestWrite(hw::IoSpace::Pio, 0x170, 0x20, 1);
    EXPECT_EQ(bus.interceptedIn(hw::IoSpace::Pio, 0x170, 8), 0u);
    EXPECT_EQ(bus.interceptedIn(hw::IoSpace::Mmio, 0x1F0, 8), 0u);
    EXPECT_EQ(bus.interceptedAccesses(), 3u);

    EXPECT_TRUE(bus.anyInterceptActive());
    bus.removeIntercept(hw::IoSpace::Pio, 0x1F0, 8);
    EXPECT_FALSE(bus.anyInterceptActive());
    EXPECT_EQ(bus.guestRead(hw::IoSpace::Pio, 0x1F7, 1), 7u);
    bus.guestWrite(hw::IoSpace::Pio, 0x1F7, 0x20, 1);
    EXPECT_EQ(icpt.reads, 2); // no more exits
    EXPECT_EQ(icpt.writes, 1);
    EXPECT_EQ(exits(), 3u);
}

// --- Disk service model ---

TEST(Disk, SequentialFasterThanRandom)
{
    sim::EventQueue eq;
    hw::Disk disk(eq, "disk", hw::DiskParams{});

    auto time_reads = [&](bool sequential) {
        sim::Tick start = eq.now();
        int done = 0;
        for (int i = 0; i < 32; ++i) {
            hw::DiskRequest r;
            r.lba = sequential ? sim::Lba(i) * 2048
                               : sim::Lba((i * 7919) % 512) * 131072;
            r.sectors = 2048;
            r.done = [&]() { ++done; };
            disk.submit(std::move(r));
        }
        eq.run();
        EXPECT_EQ(done, 32);
        return eq.now() - start;
    };

    sim::Tick seq = time_reads(true);
    sim::Tick rnd = time_reads(false);
    EXPECT_LT(seq * 3 / 2, rnd); // clearly slower under seeks
}

TEST(Disk, SequentialThroughputNearMediaRate)
{
    sim::EventQueue eq;
    hw::DiskParams p;
    hw::Disk disk(eq, "disk", p);
    const int n = 64;
    int done = 0;
    for (int i = 0; i < n; ++i) {
        hw::DiskRequest r;
        r.lba = sim::Lba(i) * 2048;
        r.sectors = 2048;
        r.done = [&]() { ++done; };
        disk.submit(std::move(r));
    }
    eq.run();
    double mbps = sim::toMBps(sim::Bytes(n) * sim::kMiB, eq.now());
    EXPECT_NEAR(mbps, p.readMBps, p.readMBps * 0.05);
}

TEST(Disk, CacheHitIsFast)
{
    sim::EventQueue eq;
    hw::Disk disk(eq, "disk", hw::DiskParams{});
    // Random read to park the head away, then re-read one sector.
    sim::Tick second = 0;
    hw::DiskRequest a;
    a.lba = 900000;
    a.sectors = 1;
    a.done = [&]() {
        // Move the head far away...
        hw::DiskRequest b;
        b.lba = 100;
        b.sectors = 64;
        b.done = [&]() {
            sim::Tick t = eq.now();
            // ...then re-read the cached sector: no seek.
            hw::DiskRequest c;
            c.lba = 900000;
            c.sectors = 1;
            c.done = [&, t]() { second = eq.now() - t; };
            disk.submit(std::move(c));
        };
        disk.submit(std::move(b));
    };
    disk.submit(std::move(a));
    eq.run();
    EXPECT_EQ(disk.cacheHits(), 1u);
    EXPECT_LE(second, disk.params().cacheHitTime + sim::kUs);
}

TEST(Disk, RequestBeyondCapacityPanics)
{
    sim::EventQueue eq;
    hw::DiskParams p;
    p.capacityBytes = 1 * sim::kMiB;
    hw::Disk disk(eq, "disk", p);
    hw::DiskRequest r;
    r.lba = 2047;
    r.sectors = 2;
    EXPECT_THROW(disk.submit(std::move(r)), sim::PanicError);
}

// --- DMA helpers ---

TEST(Dma, TokenRoundTripThroughMemory)
{
    hw::PhysMem mem(1 * sim::kMiB);
    hw::DiskStore store;
    store.write(100, 16, 0x1234000000000001ULL);

    std::vector<hw::SgEntry> sg{{0x1000, 8 * sim::kSectorSize},
                                {0x8000, 8 * sim::kSectorSize}};
    hw::dmaToMemory(mem, sg, store, 100, 16);
    EXPECT_EQ(hw::bufferTokenAt(mem, 0x1000, 0),
              hw::sectorToken(0x1234000000000001ULL, 100));
    EXPECT_EQ(mem.read64(0x8000),
              hw::sectorToken(0x1234000000000001ULL, 108));

    // Write the buffer back to a different location: same base.
    hw::DiskStore store2;
    hw::dmaFromMemory(mem, sg, store2, 100, 16);
    EXPECT_TRUE(store2.rangeHasBase(100, 16, 0x1234000000000001ULL));
    EXPECT_EQ(store2.extentCount(), 1u);
}

TEST(Dma, MisalignedSgPanics)
{
    hw::PhysMem mem(1 * sim::kMiB);
    hw::DiskStore store;
    std::vector<hw::SgEntry> sg{{0x1000, 100}}; // not sector-aligned
    EXPECT_THROW(hw::dmaToMemory(mem, sg, store, 0, 1),
                 sim::PanicError);
}

TEST(Dma, ShortSgPanics)
{
    hw::PhysMem mem(1 * sim::kMiB);
    hw::DiskStore store;
    std::vector<hw::SgEntry> sg{{0x1000, sim::kSectorSize}};
    EXPECT_THROW(hw::dmaToMemory(mem, sg, store, 0, 2),
                 sim::PanicError);
}

// --- Firmware ---

TEST(Firmware, PowerOnDelay)
{
    sim::EventQueue eq;
    hw::Firmware fw(eq, "fw", 133 * sim::kSec, 1 * sim::kGiB);
    sim::Tick booted = 0;
    fw.powerOn([&]() { booted = eq.now(); });
    eq.run();
    EXPECT_EQ(booted, 133 * sim::kSec);
}

TEST(Firmware, ReservationSplitsE820)
{
    sim::EventQueue eq;
    hw::Firmware fw(eq, "fw", 0, 4 * sim::kGiB);
    fw.reserve(0x78000000, 128 * sim::kMiB);
    EXPECT_TRUE(fw.overlapsReserved(0x78000000, 1));
    EXPECT_FALSE(fw.overlapsReserved(0x1000, 0x1000));
    EXPECT_EQ(fw.usableRam(), 4 * sim::kGiB - 128 * sim::kMiB);
    EXPECT_EQ(fw.e820().size(), 3u);
}

// --- Machine + register-level driver round trips ---

struct MachineWorld
{
    explicit MachineWorld(hw::StorageKind kind)
        : lan(eq, "lan")
    {
        hw::MachineConfig mc;
        mc.name = "m";
        mc.storage = kind;
        mc.disk.capacityBytes = 1 * sim::kGiB;
        machine = std::make_unique<hw::Machine>(eq, mc, lan, 10, lan,
                                                11);
        arena = std::make_unique<hw::MemArena>(16 * sim::kMiB,
                                               256 * sim::kMiB);
        hw::BusView view(machine->bus(), true);
        if (kind == hw::StorageKind::Ide) {
            drv = std::make_unique<guest::IdeDriver>(
                eq, "drv", view, machine->mem(), machine->intc(),
                *arena);
        } else if (kind == hw::StorageKind::Ahci) {
            drv = std::make_unique<guest::AhciDriver>(
                eq, "drv", view, machine->mem(), machine->intc(),
                *arena);
        } else {
            drv = std::make_unique<guest::NvmeDriver>(
                eq, "drv", view, machine->mem(), machine->intc(),
                *arena);
        }
        drv->initialize();
    }

    sim::EventQueue eq;
    net::Network lan;
    std::unique_ptr<hw::Machine> machine;
    std::unique_ptr<hw::MemArena> arena;
    std::unique_ptr<guest::BlockDriver> drv;
};

class ControllerTest : public ::testing::TestWithParam<hw::StorageKind>
{
};

TEST_P(ControllerTest, WriteReadRoundTrip)
{
    MachineWorld w(GetParam());
    const std::uint64_t base = 0x4242000000000001ULL;
    bool wrote = false;
    w.drv->write(1000, 256, base, [&]() { wrote = true; });
    w.eq.run();
    ASSERT_TRUE(wrote);
    EXPECT_TRUE(
        w.machine->disk().store().rangeHasBase(1000, 256, base));

    std::vector<std::uint64_t> got;
    w.drv->read(1000, 256, [&](const auto &t) { got = t; });
    w.eq.run();
    ASSERT_EQ(got.size(), 256u);
    for (std::uint32_t i = 0; i < 256; ++i)
        ASSERT_EQ(got[i], hw::sectorToken(base, 1000 + i));
}

TEST_P(ControllerTest, LargeRequestSplitsIntoChunks)
{
    MachineWorld w(GetParam());
    bool wrote = false;
    // 5000 sectors > the 2048-sector per-command cap.
    w.drv->write(0, 5000, 0x99u << 8 | 1, [&]() { wrote = true; });
    w.eq.run();
    ASSERT_TRUE(wrote);
    EXPECT_TRUE(
        w.machine->disk().store().rangeHasBase(0, 5000, 0x99u << 8 | 1));
}

TEST_P(ControllerTest, ManyInterleavedOpsComplete)
{
    MachineWorld w(GetParam());
    sim::Rng rng(99);
    int completed = 0;
    const int kOps = 60;
    for (int i = 0; i < kOps; ++i) {
        sim::Lba lba = rng.uniformInt(0, 100000) & ~7ULL;
        auto n = static_cast<std::uint32_t>(rng.uniformInt(1, 64));
        if (rng.chance(0.5)) {
            w.drv->write(lba, n, (std::uint64_t(i) << 8) | 1,
                         [&]() { ++completed; });
        } else {
            w.drv->read(lba, n,
                        [&](const auto &) { ++completed; });
        }
    }
    w.eq.run();
    EXPECT_EQ(completed, kOps);
}

INSTANTIATE_TEST_SUITE_P(Kinds, ControllerTest,
                         ::testing::Values(hw::StorageKind::Ide,
                                           hw::StorageKind::Ahci,
                                           hw::StorageKind::Nvme),
                         [](const auto &info) {
                             switch (info.param) {
                               case hw::StorageKind::Ide:
                                 return "Ide";
                               case hw::StorageKind::Ahci:
                                 return "Ahci";
                               default:
                                 return "Nvme";
                             }
                         });

// --- NIC datapath ---

TEST(Nic, DriverToDriverFrameDelivery)
{
    sim::EventQueue eq;
    net::Network lan(eq, "lan");
    hw::MachineConfig mc;
    mc.name = "a";
    hw::Machine a(eq, mc, lan, 1, lan, 2);
    mc.name = "b";
    mc.seed = 2;
    hw::Machine b(eq, mc, lan, 3, lan, 4);

    hw::MemArena arena_a(32 * sim::kMiB, 64 * sim::kMiB);
    hw::MemArena arena_b(32 * sim::kMiB, 64 * sim::kMiB);
    hw::E1000Driver da(eq, "da", hw::BusView(a.bus(), true),
                       a.guestNic(), a.mem(), arena_a,
                       hw::E1000Driver::Mode::Interrupt, &a.intc(),
                       hw::kGuestNicIrq);
    hw::E1000Driver db(eq, "db", hw::BusView(b.bus(), true),
                       b.guestNic(), b.mem(), arena_b,
                       hw::E1000Driver::Mode::Interrupt, &b.intc(),
                       hw::kGuestNicIrq);

    std::vector<std::uint8_t> got;
    db.setRxHandler([&](const net::Frame &f) { got = f.payload; });

    net::Frame f;
    f.dst = 3; // b's guest NIC MAC
    f.etherType = 0x88B5;
    f.payload = {9, 8, 7, 6, 5};
    da.sendFrame(f);
    eq.run();
    EXPECT_EQ(got, (std::vector<std::uint8_t>{9, 8, 7, 6, 5}));
}

TEST(Nic, PollingModeDelivery)
{
    sim::EventQueue eq;
    net::Network lan(eq, "lan");
    hw::MachineConfig mc;
    mc.name = "m";
    hw::Machine m(eq, mc, lan, 1, lan, 2);

    hw::MemArena arena(32 * sim::kMiB, 64 * sim::kMiB);
    hw::E1000Driver drv(eq, "poll", hw::BusView(m.bus(), false),
                        m.mgmtNic(), m.mem(), arena,
                        hw::E1000Driver::Mode::Polling);
    int rx = 0;
    drv.setRxHandler([&](const net::Frame &) { ++rx; });

    // A raw station sends to the mgmt NIC.
    net::Port &peer = lan.attach(99);
    net::Frame f;
    f.dst = 2;
    f.payload = {1};
    peer.send(f);
    eq.run();
    EXPECT_EQ(rx, 0); // nothing until the driver polls
    drv.poll();
    EXPECT_EQ(rx, 1);
}

// --- VMX engine ---

TEST(Vmx, NestedPagingPerCpu)
{
    sim::EventQueue eq;
    hw::VmxEngine vmx(eq, "vmx", 4);
    for (unsigned c = 0; c < 4; ++c)
        vmx.vmxon(c);
    EXPECT_TRUE(vmx.anyNestedPaging());
    vmx.disableNestedPaging(0);
    vmx.disableNestedPaging(1);
    EXPECT_TRUE(vmx.anyNestedPaging());
    vmx.disableNestedPaging(2);
    vmx.disableNestedPaging(3);
    EXPECT_FALSE(vmx.anyNestedPaging());
    EXPECT_TRUE(vmx.anyInVmx());
    for (unsigned c = 0; c < 4; ++c)
        vmx.vmxoff(c);
    EXPECT_FALSE(vmx.anyInVmx());
    EXPECT_EQ(vmx.vcpu(0).tlbInvalidations, 1u);
}

TEST(Vmx, PreemptionTimerRunsUntilFalse)
{
    sim::EventQueue eq;
    hw::VmxEngine vmx(eq, "vmx", 1);
    int fired = 0;
    vmx.startPreemptionTimer(100, [&]() { return ++fired < 5; });
    eq.run();
    EXPECT_EQ(fired, 5);
    EXPECT_EQ(vmx.exits(hw::ExitReason::PreemptionTimer), 5u);
    EXPECT_GT(vmx.stolenCpuTime(), 0u);
}

} // namespace
