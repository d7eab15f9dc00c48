/**
 * @file
 * Conformance suite for the shared-NIC mediation tier (src/netmed/),
 * value-parameterized over the three mediation modes:
 *
 *  - Trap: shadow rings, every doorbell access VM-exits.
 *  - Exitless: shadow rings, doorbells via a shared-memory page, the
 *    VMM poll loop does the moving — no steady-state exits.
 *  - Passthrough: the guest owns the real rings; the VMM keeps only
 *    software taps (TX pacing, RX steering).
 *
 * Every mode must satisfy the same contract: guest traffic flows,
 * VMM (AoE) traffic demultiplexes by ether type, uninstall hands a
 * clean device back to the guest, per-guest rate limits cap
 * throughput, and one guest's flood cannot starve another past its
 * DRR weight.
 */

#include <gtest/gtest.h>

#include "aoe/initiator.hh"
#include "aoe/protocol.hh"
#include "aoe/server.hh"
#include "hw/e1000_driver.hh"
#include "hw/machine.hh"
#include "hw/nic_doorbell.hh"
#include "netmed/net_mediation_core.hh"
#include "tests/test_util.hh"

using namespace testutil;

namespace {

constexpr net::MacAddr kVg1Mac = 0x525400000021ULL;
constexpr net::MacAddr kVg2Mac = 0x525400000022ULL;
constexpr net::MacAddr kPeerMac = 0x42;

/** First virtual guest-NIC register window (no device behind it;
 *  0xFEB0_0000 is taken by the AHCI ABAR). */
constexpr sim::Addr kVirtNicBase = 0xFEC00000;

/**
 * One machine whose guest NIC is mediated by a NetMediationCore in
 * the parameterized mode, with slot 0 on the real register window
 * (catch-all MAC: the legacy single-guest shape) and any number of
 * additional guests on virtual windows. Guest drivers are ordinary
 * hw::E1000Driver instances in interrupt mode; in exitless mode they
 * attach the core-provided doorbell page after ring setup.
 */
struct NetmedWorld
{
    explicit NetmedWorld(netmed::MedMode mode)
        : mode(mode), lan(eq, "lan", 4 * sim::kUs, 42),
          sport(lan.attach(kServerMac, {1e9, 9000, 0.0})),
          server(eq, "server", sport)
    {
        server.addTarget(0, 0, 1 << 20, kImageBase);

        hw::MachineConfig mc;
        mc.name = "m";
        machine = std::make_unique<hw::Machine>(eq, mc, lan,
                                                kGuestMac, lan,
                                                kMgmtMac);
        vmmArena = std::make_unique<hw::MemArena>(0x78000000,
                                                  128 * sim::kMiB);
        core = std::make_unique<netmed::NetMediationCore>(
            eq, "netmed", machine->bus(), machine->mem(),
            machine->guestNic(), *vmmArena, mode, aoe::kEtherType);

        netmed::NetMediationCore::GuestConfig g0;
        if (mode == netmed::MedMode::Exitless) {
            g0.doorbell = vmmArena->alloc(hw::nicdb::kPageSize, 64);
            g0.intc = &machine->intc();
            g0.irqVector = hw::kGuestNicIrq;
        }
        core->addGuest(g0);
    }

    /** Add a guest on its own virtual window (before start()). */
    unsigned
    addVirtualGuest(net::MacAddr mac, netmed::GuestQos qos)
    {
        netmed::NetMediationCore::GuestConfig g;
        g.windowBase = kVirtNicBase +
                       sim::Addr(virtCfgs.size()) *
                           hw::e1000::kMmioSize;
        g.mac = mac;
        g.qos = qos;
        g.intc = &machine->intc();
        g.irqVector = 16 + unsigned(virtCfgs.size());
        if (mode == netmed::MedMode::Exitless)
            g.doorbell = vmmArena->alloc(hw::nicdb::kPageSize, 64);
        unsigned slot = core->addGuest(g);
        virtCfgs.push_back(g);
        virtSlots.push_back(slot);
        return slot;
    }

    /** Install the core, boot the guest drivers, start polling. */
    void
    start()
    {
        core->install();
        guestDrv = std::make_unique<hw::E1000Driver>(
            eq, "gdrv", hw::BusView(machine->bus(), true),
            machine->guestNic(), machine->mem(), *nextArena(),
            hw::E1000Driver::Mode::Interrupt, &machine->intc(),
            hw::kGuestNicIrq);
        if (mode == netmed::MedMode::Exitless)
            guestDrv->attachDoorbell(
                core->guestPort(0).doorbellPage());
        for (std::size_t i = 0; i < virtCfgs.size(); ++i) {
            auto d = std::make_unique<hw::E1000Driver>(
                eq, "vdrv" + std::to_string(i),
                hw::BusView(machine->bus(), true),
                virtCfgs[i].windowBase, virtCfgs[i].mac, 1500,
                machine->mem(), *nextArena(),
                hw::E1000Driver::Mode::Interrupt, &machine->intc(),
                virtCfgs[i].irqVector);
            if (mode == netmed::MedMode::Exitless)
                d->attachDoorbell(
                    core->guestPort(virtSlots[i]).doorbellPage());
            virtDrvs.push_back(std::move(d));
        }
        pollLoop();
    }

    void
    pollLoop()
    {
        core->poll();
        eq.schedule(100 * sim::kUs, [this]() { pollLoop(); });
    }

    hw::MemArena *
    nextArena()
    {
        arenas.push_back(std::make_unique<hw::MemArena>(
            32 * sim::kMiB + sim::Addr(arenas.size()) * 16 * sim::kMiB,
            16 * sim::kMiB));
        return arenas.back().get();
    }

    netmed::MedMode mode;
    sim::EventQueue eq;
    net::Network lan;
    net::Port &sport;
    aoe::AoeServer server;
    std::unique_ptr<hw::Machine> machine;
    std::unique_ptr<hw::MemArena> vmmArena;
    std::vector<std::unique_ptr<hw::MemArena>> arenas;
    std::unique_ptr<netmed::NetMediationCore> core;
    std::unique_ptr<hw::E1000Driver> guestDrv;
    std::vector<netmed::NetMediationCore::GuestConfig> virtCfgs;
    std::vector<unsigned> virtSlots;
    std::vector<std::unique_ptr<hw::E1000Driver>> virtDrvs;
};

net::Frame
testFrame(net::MacAddr dst, std::vector<std::uint8_t> payload)
{
    net::Frame f;
    f.dst = dst;
    f.etherType = 0x88B5;
    f.payload = std::move(payload);
    return f;
}

class NetmedModeTest
    : public ::testing::TestWithParam<netmed::MedMode>
{
};

TEST_P(NetmedModeTest, GuestTrafficFlows)
{
    NetmedWorld w(GetParam());
    w.start();
    net::Port &peer = w.lan.attach(kPeerMac);
    std::vector<std::uint8_t> peer_got;
    peer.onReceive(
        [&](const net::Frame &f) { peer_got = f.payload; });

    w.guestDrv->sendFrame(testFrame(kPeerMac, {1, 2, 3, 4}));
    ASSERT_TRUE(runUntil(w.eq, 1 * sim::kSec,
                         [&]() { return !peer_got.empty(); }));
    EXPECT_EQ(peer_got, (std::vector<std::uint8_t>{1, 2, 3, 4}));

    std::vector<std::uint8_t> guest_got;
    w.guestDrv->setRxHandler(
        [&](const net::Frame &f) { guest_got = f.payload; });
    peer.send(testFrame(kGuestMac, {9, 9, 9}));
    ASSERT_TRUE(runUntil(w.eq, 1 * sim::kSec,
                         [&]() { return !guest_got.empty(); }));
    EXPECT_EQ(guest_got, (std::vector<std::uint8_t>{9, 9, 9}));
    if (GetParam() == netmed::MedMode::Passthrough) {
        EXPECT_GT(w.core->stats().guestTx, 0u);
    } else {
        EXPECT_GT(w.core->stats().guestTx, 0u);
        EXPECT_GT(w.core->stats().guestRx, 0u);
        EXPECT_GT(w.core->stats().copies, 0u);
    }
}

TEST_P(NetmedModeTest, VmmTrafficDemuxesByEtherType)
{
    NetmedWorld w(GetParam());
    w.start();
    aoe::AoeInitiator init(w.eq, "aoe", *w.core, kServerMac);

    std::vector<std::uint64_t> got;
    init.readSectors(64, 32, [&](const auto &t) { got = t; });
    ASSERT_TRUE(runUntil(w.eq, 10 * sim::kSec,
                         [&]() { return !got.empty(); }));
    for (std::uint32_t i = 0; i < 32; ++i)
        EXPECT_EQ(got[i], hw::sectorToken(kImageBase, 64 + i));
    EXPECT_GT(w.core->stats().vmmTx, 0u);
    EXPECT_GT(w.core->stats().vmmRx, 0u);
    // Deployment traffic never lands in a guest ring.
    EXPECT_EQ(w.core->guestStats(0).rxFrames, 0u);
}

TEST_P(NetmedModeTest, UninstallDrainsAndHandsBackDevice)
{
    NetmedWorld w(GetParam());
    w.start();
    net::Port &peer = w.lan.attach(kPeerMac);
    unsigned peer_rx = 0;
    peer.onReceive([&](const net::Frame &) { ++peer_rx; });

    // Queue TX work, then uninstall before the next poll: pending
    // shadow-ring (and un-polled exitless doorbell) frames must be
    // drained through, not dropped.
    for (int i = 0; i < 4; ++i)
        w.guestDrv->sendFrame(
            testFrame(kPeerMac, {std::uint8_t(i)}));
    w.core->uninstall();
    EXPECT_FALSE(w.machine->bus().anyInterceptActive());
    if (GetParam() == netmed::MedMode::Exitless)
        w.guestDrv->detachDoorbell();
    ASSERT_TRUE(runUntil(w.eq, 1 * sim::kSec,
                         [&]() { return peer_rx == 4; }));

    // The guest now drives the physical NIC directly.
    w.guestDrv->sendFrame(testFrame(kPeerMac, {7, 7}));
    ASSERT_TRUE(runUntil(w.eq, 1 * sim::kSec,
                         [&]() { return peer_rx == 5; }));
    std::vector<std::uint8_t> guest_got;
    w.guestDrv->setRxHandler(
        [&](const net::Frame &f) { guest_got = f.payload; });
    peer.send(testFrame(kGuestMac, {5}));
    ASSERT_TRUE(runUntil(w.eq, 1 * sim::kSec,
                         [&]() { return !guest_got.empty(); }));
}

TEST_P(NetmedModeTest, RateLimitCapsGuestThroughput)
{
    NetmedWorld w(GetParam());
    netmed::GuestQos qos;
    qos.rateBps = 8e6; // 1 MB/s
    qos.burstBytes = 8 * sim::kKiB;
    w.core->setGuestQos(0, qos);
    w.start();
    net::Port &peer = w.lan.attach(kPeerMac);

    // Offer ~2 MB in the first instant; only ~1 MB may pass in 1 s.
    for (int i = 0; i < 2000; ++i)
        w.guestDrv->sendFrame(
            testFrame(kPeerMac,
                      std::vector<std::uint8_t>(1000, 0xAB)));
    sim::Tick deadline = w.eq.now() + 1 * sim::kSec;
    runUntil(w.eq, deadline, [&]() { return false; });

    sim::Bytes delivered = peer.bytesReceivedOnWire();
    // Budget: rate * 1 s + initial burst + one in-flight frame.
    EXPECT_LE(delivered, sim::Bytes(1e6) + qos.burstBytes + 2 * 1538);
    EXPECT_GE(delivered, sim::Bytes(3e5)); // and it makes progress
    if (GetParam() != netmed::MedMode::Passthrough) {
        EXPECT_GT(w.core->stats().txThrottled, 0u);
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllModes, NetmedModeTest,
    ::testing::Values(netmed::MedMode::Trap,
                      netmed::MedMode::Exitless,
                      netmed::MedMode::Passthrough),
    [](const auto &info) {
        return std::string(netmed::medModeName(info.param));
    });

/** Shadow-ring modes only (passthrough has exactly one guest). */
class NetmedMultiGuestTest
    : public ::testing::TestWithParam<netmed::MedMode>
{
};

TEST_P(NetmedMultiGuestTest, BroadcastReachesEveryGuest)
{
    NetmedWorld w(GetParam());
    w.addVirtualGuest(kVg1Mac, netmed::GuestQos{});
    w.start();
    net::Port &peer = w.lan.attach(kPeerMac);

    unsigned g0_rx = 0, g1_rx = 0;
    w.guestDrv->setRxHandler(
        [&](const net::Frame &) { ++g0_rx; });
    w.virtDrvs[0]->setRxHandler(
        [&](const net::Frame &) { ++g1_rx; });

    peer.send(testFrame(net::kBroadcastMac, {1}));
    ASSERT_TRUE(runUntil(w.eq, 1 * sim::kSec, [&]() {
        return g0_rx == 1 && g1_rx == 1;
    }));

    // Unicast to the NIC's MAC falls through to the catch-all guest
    // (slot 0), not to the MAC-bound virtual guest.
    peer.send(testFrame(kGuestMac, {2}));
    ASSERT_TRUE(runUntil(w.eq, 1 * sim::kSec,
                         [&]() { return g0_rx == 2; }));
    EXPECT_EQ(g1_rx, 1u);
}

TEST_P(NetmedMultiGuestTest, FloodCannotStarveAnotherGuest)
{
    NetmedWorld w(GetParam());
    netmed::GuestQos q;
    q.weight = 1;
    w.addVirtualGuest(kVg1Mac, q); // the flooder
    w.addVirtualGuest(kVg2Mac, q); // the victim
    w.start();
    net::Port &peer = w.lan.attach(kPeerMac);
    unsigned flood_rx = 0, victim_rx = 0;
    sim::Tick flood_done = 0, victim_done = 0;
    // The shared port stamps its own MAC on egress, so tell the two
    // guests apart by payload marker, not source address.
    peer.onReceive([&](const net::Frame &f) {
        if (f.payload.empty())
            return;
        if (f.payload[0] == 0x11 && ++flood_rx == 400)
            flood_done = w.eq.now();
        if (f.payload[0] == 0x22 && ++victim_rx == 40)
            victim_done = w.eq.now();
    });

    for (int i = 0; i < 400; ++i)
        w.virtDrvs[0]->sendFrame(
            testFrame(kPeerMac,
                      std::vector<std::uint8_t>(1000, 0x11)));
    for (int i = 0; i < 40; ++i)
        w.virtDrvs[1]->sendFrame(
            testFrame(kPeerMac,
                      std::vector<std::uint8_t>(200, 0x22)));

    ASSERT_TRUE(runUntil(w.eq, 2 * sim::kSec, [&]() {
        return flood_rx == 400 && victim_rx == 40;
    }));
    // Equal weights: the small victim burst must not be trapped
    // behind the flooder's whole backlog.
    EXPECT_LT(victim_done, flood_done);
}

TEST_P(NetmedMultiGuestTest, WeightedFairSharingUnderSaturation)
{
    NetmedWorld w(GetParam());
    netmed::GuestQos q1;
    q1.weight = 1;
    netmed::GuestQos q3;
    q3.weight = 3;
    unsigned s1 = w.addVirtualGuest(kVg1Mac, q1);
    unsigned s3 = w.addVirtualGuest(kVg2Mac, q3);
    w.start();
    w.lan.attach(kPeerMac);

    for (int i = 0; i < 1000; ++i) {
        w.virtDrvs[0]->sendFrame(
            testFrame(kPeerMac,
                      std::vector<std::uint8_t>(1000, 0x11)));
        w.virtDrvs[1]->sendFrame(
            testFrame(kPeerMac,
                      std::vector<std::uint8_t>(1000, 0x22)));
    }
    // The scheduler is only exercised while both guests are
    // backlogged, so the measurement window is keyed on pump-side
    // progress of the weight-3 guest: past the startup FIFO prefix,
    // stopped before its 1000-frame backlog exhausts (the wire is the
    // slow stage here; pumping runs well ahead of delivery).
    auto pumped3 = [&]() {
        return w.core->guestStats(s3).txFrames;
    };
    ASSERT_TRUE(runUntil(w.eq, 4 * sim::kSec,
                         [&]() { return pumped3() >= 300; }));
    double b1_start =
        static_cast<double>(w.core->guestStats(s1).txWireBytes);
    double b3_start =
        static_cast<double>(w.core->guestStats(s3).txWireBytes);
    ASSERT_TRUE(runUntil(w.eq, 4 * sim::kSec,
                         [&]() { return pumped3() >= 900; }));
    double b1 = static_cast<double>(
                    w.core->guestStats(s1).txWireBytes) -
                b1_start;
    double b3 = static_cast<double>(
                    w.core->guestStats(s3).txWireBytes) -
                b3_start;
    ASSERT_GT(b1, 0.0);
    double ratio = b3 / b1;
    EXPECT_GE(ratio, 1.8) << "weight-3 guest starved";
    EXPECT_LE(ratio, 5.0) << "weight-1 guest starved";
}

INSTANTIATE_TEST_SUITE_P(
    ShadowModes, NetmedMultiGuestTest,
    ::testing::Values(netmed::MedMode::Trap,
                      netmed::MedMode::Exitless),
    [](const auto &info) {
        return std::string(netmed::medModeName(info.param));
    });

/**
 * The exitless claim, measured: after ring setup, a steady-state
 * guest traffic burst causes zero VM exits in the guest-NIC register
 * window, while trap mode exits on every doorbell.
 */
TEST(NetmedExitless, SteadyStateCausesNoNicWindowExits)
{
    auto run = [](netmed::MedMode mode) {
        NetmedWorld w(mode);
        w.start();
        net::Port &peer = w.lan.attach(kPeerMac);
        unsigned peer_rx = 0, guest_rx = 0;
        peer.onReceive([&](const net::Frame &) { ++peer_rx; });
        w.guestDrv->setRxHandler(
            [&](const net::Frame &) { ++guest_rx; });
        // Let ring setup and the first service pass settle.
        runUntil(w.eq, w.eq.now() + 10 * sim::kMs,
                 [&]() { return false; });
        std::uint64_t before = w.machine->bus().interceptedIn(
            hw::IoSpace::Mmio, hw::kGuestNicMmio,
            hw::e1000::kMmioSize);
        for (int i = 0; i < 100; ++i)
            w.guestDrv->sendFrame(
                testFrame(kPeerMac,
                          std::vector<std::uint8_t>(256, 1)));
        for (int i = 0; i < 100; ++i)
            peer.send(testFrame(
                kGuestMac, std::vector<std::uint8_t>(256, 2)));
        runUntil(w.eq, 10 * sim::kSec, [&]() {
            return peer_rx == 100 && guest_rx == 100;
        });
        EXPECT_EQ(peer_rx, 100u);
        EXPECT_EQ(guest_rx, 100u);
        return w.machine->bus().interceptedIn(
                   hw::IoSpace::Mmio, hw::kGuestNicMmio,
                   hw::e1000::kMmioSize) -
               before;
    };
    std::uint64_t trap_exits = run(netmed::MedMode::Trap);
    std::uint64_t exitless_exits = run(netmed::MedMode::Exitless);
    EXPECT_GE(trap_exits, 100u);
    EXPECT_EQ(exitless_exits, 0u)
        << "exitless data path still traps";
}

} // namespace
