/**
 * @file
 * Shared-NIC mediator tests (paper §6): guest and VMM traffic
 * coexist on one physical NIC through shadow ring buffers; AoE
 * demultiplexes to the VMM, everything else to the guest; the NIC
 * de-virtualizes cleanly back to the guest's own rings. The mediator
 * is the single-guest shape of the netmed core: trap mode, one
 * catch-all guest on the physical window.
 */

#include <gtest/gtest.h>

#include "aoe/initiator.hh"
#include "aoe/protocol.hh"
#include "aoe/server.hh"
#include "hw/e1000_driver.hh"
#include "hw/machine.hh"
#include "netmed/net_mediation_core.hh"
#include "tests/test_util.hh"

using namespace testutil;

namespace {

struct SharedNicWorld
{
    SharedNicWorld()
        : lan(eq, "lan"),
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
        guestArena = std::make_unique<hw::MemArena>(32 * sim::kMiB,
                                                    128 * sim::kMiB);

        // The mediator owns the *guest* NIC: one shared port, one
        // promiscuous guest with no rate limit.
        mediator = std::make_unique<netmed::NetMediationCore>(
            eq, "nicmed", machine->bus(), machine->mem(),
            machine->guestNic(), *vmmArena, netmed::MedMode::Trap,
            aoe::kEtherType);
        mediator->addGuest(netmed::NetMediationCore::GuestConfig{});
        mediator->install();

        // VMM AoE initiator rides the mediator's L2 endpoint.
        initiator = std::make_unique<aoe::AoeInitiator>(
            eq, "aoe", *mediator, kServerMac);

        // Guest network driver on the same (mediated) NIC.
        guestDrv = std::make_unique<hw::E1000Driver>(
            eq, "gdrv", hw::BusView(machine->bus(), true),
            machine->guestNic(), machine->mem(), *guestArena,
            hw::E1000Driver::Mode::Interrupt, &machine->intc(),
            hw::kGuestNicIrq);

        // Poll loop for the mediator (the VMM's preemption timer).
        pollLoop();
    }

    void
    pollLoop()
    {
        mediator->poll();
        eq.schedule(100 * sim::kUs, [this]() { pollLoop(); });
    }

    sim::EventQueue eq;
    net::Network lan;
    net::Port &sport;
    aoe::AoeServer server;
    std::unique_ptr<hw::Machine> machine;
    std::unique_ptr<hw::MemArena> vmmArena, guestArena;
    std::unique_ptr<netmed::NetMediationCore> mediator;
    std::unique_ptr<aoe::AoeInitiator> initiator;
    std::unique_ptr<hw::E1000Driver> guestDrv;
};

template <typename Pred>
bool
spin(sim::EventQueue &eq, sim::Tick limit, Pred &&p)
{
    sim::Tick end = eq.now() + limit;
    eq.stepWhile([&]() { return !p() && eq.now() <= end; });
    return p();
}

TEST(NicMediator, VmmFetchesOverSharedNic)
{
    SharedNicWorld w;
    std::vector<std::uint64_t> got;
    w.initiator->readSectors(64, 32,
                             [&](const auto &t) { got = t; });
    ASSERT_TRUE(spin(w.eq, 10 * sim::kSec,
                     [&]() { return !got.empty(); }));
    for (std::uint32_t i = 0; i < 32; ++i)
        EXPECT_EQ(got[i], hw::sectorToken(kImageBase, 64 + i));
    EXPECT_GT(w.mediator->stats().vmmRx, 0u);
}

TEST(NicMediator, GuestTrafficFlowsThroughShadowRings)
{
    SharedNicWorld w;
    // A peer station on the LAN exchanges frames with the guest.
    net::Port &peer = w.lan.attach(0x42);
    std::vector<std::uint8_t> peer_got;
    peer.onReceive(
        [&](const net::Frame &f) { peer_got = f.payload; });

    net::Frame out;
    out.dst = 0x42;
    out.etherType = 0x88B5;
    out.payload = {1, 2, 3, 4};
    w.guestDrv->sendFrame(out);
    ASSERT_TRUE(spin(w.eq, 1 * sim::kSec,
                     [&]() { return !peer_got.empty(); }));
    EXPECT_EQ(peer_got, (std::vector<std::uint8_t>{1, 2, 3, 4}));
    EXPECT_GT(w.mediator->stats().guestTx, 0u);

    // Peer -> guest.
    std::vector<std::uint8_t> guest_got;
    w.guestDrv->setRxHandler(
        [&](const net::Frame &f) { guest_got = f.payload; });
    net::Frame in;
    in.dst = kGuestMac;
    in.etherType = 0x88B5;
    in.payload = {9, 9, 9};
    peer.send(in);
    ASSERT_TRUE(spin(w.eq, 1 * sim::kSec,
                     [&]() { return !guest_got.empty(); }));
    EXPECT_EQ(guest_got, (std::vector<std::uint8_t>{9, 9, 9}));
    EXPECT_GT(w.mediator->stats().guestRx, 0u);
}

TEST(NicMediator, ConcurrentGuestAndVmmTraffic)
{
    SharedNicWorld w;
    net::Port &peer = w.lan.attach(0x42);
    int peer_rx = 0;
    peer.onReceive([&](const net::Frame &) { ++peer_rx; });

    unsigned fetches = 0;
    for (int i = 0; i < 4; ++i) {
        w.initiator->readSectors(sim::Lba(i) * 4096, 256,
                                 [&](const auto &) { ++fetches; });
    }
    for (int i = 0; i < 20; ++i) {
        net::Frame f;
        f.dst = 0x42;
        f.etherType = 0x88B5;
        f.payload.assign(200, std::uint8_t(i));
        w.guestDrv->sendFrame(f);
    }
    ASSERT_TRUE(spin(w.eq, 20 * sim::kSec, [&]() {
        return fetches == 4 && peer_rx == 20;
    }));
    EXPECT_GE(w.mediator->stats().guestTx, 20u);
    EXPECT_GT(w.mediator->stats().vmmRx, 0u);
}

TEST(NicMediator, DevirtualizesBackToGuestRings)
{
    SharedNicWorld w;
    // Exercise the shared path first.
    bool fetched = false;
    w.initiator->readSectors(0, 64,
                             [&](const auto &) { fetched = true; });
    ASSERT_TRUE(spin(w.eq, 10 * sim::kSec, [&]() { return fetched; }));

    w.mediator->uninstall();
    EXPECT_FALSE(w.machine->bus().anyInterceptActive());

    // The guest now drives the physical NIC directly.
    net::Port &peer = w.lan.attach(0x42);
    std::vector<std::uint8_t> peer_got;
    peer.onReceive(
        [&](const net::Frame &f) { peer_got = f.payload; });
    net::Frame out;
    out.dst = 0x42;
    out.etherType = 0x88B5;
    out.payload = {7, 7};
    w.guestDrv->sendFrame(out);
    ASSERT_TRUE(spin(w.eq, 1 * sim::kSec,
                     [&]() { return !peer_got.empty(); }));
    EXPECT_EQ(peer_got, (std::vector<std::uint8_t>{7, 7}));

    std::vector<std::uint8_t> guest_got;
    w.guestDrv->setRxHandler(
        [&](const net::Frame &f) { guest_got = f.payload; });
    net::Frame in;
    in.dst = kGuestMac;
    in.etherType = 0x88B5;
    in.payload = {5};
    peer.send(in);
    ASSERT_TRUE(spin(w.eq, 1 * sim::kSec,
                     [&]() { return !guest_got.empty(); }));
}

} // namespace
