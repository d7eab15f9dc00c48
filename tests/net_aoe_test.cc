/**
 * @file
 * Network substrate and AoE protocol tests: frame timing and MTU
 * semantics, protocol serialization round trips (property-swept),
 * initiator/server transfers, fragmentation, retransmission under
 * loss, and the vblade thread-pool behaviour.
 */

#include <gtest/gtest.h>

#include "aoe/initiator.hh"
#include "aoe/protocol.hh"
#include "aoe/server.hh"
#include "hw/disk_store.hh"
#include "net/l2.hh"
#include "net/network.hh"
#include "simcore/random.hh"

namespace {

TEST(Network, DeliversUnicast)
{
    sim::EventQueue eq;
    net::Network lan(eq, "lan");
    net::Port &a = lan.attach(1);
    net::Port &b = lan.attach(2);

    int received = 0;
    b.onReceive([&](const net::Frame &f) {
        EXPECT_EQ(f.src, 1u);
        EXPECT_EQ(f.dst, 2u);
        ++received;
    });
    net::Frame f;
    f.dst = 2;
    f.payload = {1, 2, 3};
    a.send(f);
    eq.run();
    EXPECT_EQ(received, 1);
}

TEST(Network, SerializationDelayMatchesLineRate)
{
    sim::EventQueue eq;
    net::Network lan(eq, "lan", 0); // no switch latency
    net::Port &a = lan.attach(1, {1e9, 9000, 0.0});
    net::Port &b = lan.attach(2, {1e9, 9000, 0.0});

    sim::Tick arrival = 0;
    b.onReceive([&](const net::Frame &) { arrival = eq.now(); });
    net::Frame f;
    f.dst = 2;
    f.payload.assign(1000, 0);
    a.send(f);
    eq.run();
    // ~1038 wire bytes at 1 Gb/s, serialized twice (tx + rx).
    sim::Tick one_dir = sim::Tick(1038 * 8);
    EXPECT_NEAR(double(arrival), double(2 * one_dir), 100.0);
}

TEST(Network, BroadcastReachesAllButSender)
{
    sim::EventQueue eq;
    net::Network lan(eq, "lan");
    net::Port &a = lan.attach(1);
    net::Port &b = lan.attach(2);
    net::Port &c = lan.attach(3);

    int rx = 0;
    a.onReceive([&](const net::Frame &) { FAIL(); });
    b.onReceive([&](const net::Frame &) { ++rx; });
    c.onReceive([&](const net::Frame &) { ++rx; });
    net::Frame f;
    f.dst = net::kBroadcastMac;
    a.send(f);
    eq.run();
    EXPECT_EQ(rx, 2);
}

TEST(Network, OversizeFrameDropped)
{
    sim::EventQueue eq;
    net::Network lan(eq, "lan");
    net::Port &a = lan.attach(1, {1e9, 1500, 0.0});
    net::Port &b = lan.attach(2);
    b.onReceive([&](const net::Frame &) { FAIL(); });
    net::Frame f;
    f.dst = 2;
    f.payload.assign(2000, 0); // > MTU
    a.send(f);
    eq.run();
    EXPECT_EQ(a.framesDropped(), 1u);
}

TEST(Network, PaddingCountsTowardMtu)
{
    sim::EventQueue eq;
    net::Network lan(eq, "lan");
    net::Port &a = lan.attach(1, {1e9, 1500, 0.0});
    lan.attach(2);
    net::Frame f;
    f.dst = 2;
    f.payload.assign(100, 0);
    f.padding = 2000; // declared elided bytes push past MTU
    a.send(f);
    eq.run();
    EXPECT_EQ(a.framesDropped(), 1u);
}

TEST(Network, LossInjectionDropsFraction)
{
    sim::EventQueue eq;
    net::Network lan(eq, "lan");
    net::Port &a = lan.attach(1, {1e9, 9000, 0.5});
    net::Port &b = lan.attach(2);
    int rx = 0;
    b.onReceive([&](const net::Frame &) { ++rx; });
    for (int i = 0; i < 400; ++i) {
        net::Frame f;
        f.dst = 2;
        a.send(f);
    }
    eq.run();
    EXPECT_GT(rx, 120);
    EXPECT_LT(rx, 280);
}

// --- AoE protocol serialization ---

class AoeRoundTrip : public ::testing::TestWithParam<int>
{
};

TEST_P(AoeRoundTrip, SerializeParseIdentity)
{
    sim::Rng rng(GetParam());
    aoe::Message m;
    m.response = rng.chance(0.5);
    m.error = rng.chance(0.1);
    m.major = static_cast<std::uint16_t>(rng.uniformInt(0, 65535));
    m.minor = static_cast<std::uint8_t>(rng.uniformInt(0, 255));
    m.command = rng.chance(0.9) ? aoe::kCmdAta : aoe::kCmdDiscover;
    m.tag = static_cast<std::uint32_t>(rng.next());
    m.ataCmd = rng.chance(0.5) ? 0x25 : 0x35;
    m.lba = rng.next() & 0xFFFFFFFFFFFFULL;
    m.sectors = static_cast<std::uint16_t>(rng.uniformInt(0, 1024));
    m.fragOffset = static_cast<std::uint32_t>(rng.uniformInt(0, 4096));
    m.totalSectors =
        static_cast<std::uint32_t>(rng.uniformInt(1, 65536));
    auto n = rng.uniformInt(0, 17);
    for (std::uint64_t i = 0; i < n; ++i)
        m.data.push_back(rng.next());

    net::Frame f = aoe::toFrame(m, 0x99);
    EXPECT_EQ(f.padding, m.data.size() * aoe::kSectorPadding);

    auto parsed = aoe::parse(f);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->response, m.response);
    EXPECT_EQ(parsed->error, m.error);
    EXPECT_EQ(parsed->major, m.major);
    EXPECT_EQ(parsed->minor, m.minor);
    EXPECT_EQ(parsed->command, m.command);
    EXPECT_EQ(parsed->tag, m.tag);
    EXPECT_EQ(parsed->ataCmd, m.ataCmd);
    EXPECT_EQ(parsed->lba, m.lba);
    EXPECT_EQ(parsed->sectors, m.sectors);
    EXPECT_EQ(parsed->fragOffset, m.fragOffset);
    EXPECT_EQ(parsed->totalSectors, m.totalSectors);
    EXPECT_EQ(parsed->data, m.data);
}

INSTANTIATE_TEST_SUITE_P(Seeds, AoeRoundTrip,
                         ::testing::Range(1, 21));

TEST(AoeProtocol, RejectsForeignFrames)
{
    net::Frame f;
    f.etherType = 0x0800; // IPv4, not AoE
    f.payload.assign(64, 0);
    EXPECT_FALSE(aoe::parse(f).has_value());

    net::Frame short_frame;
    short_frame.etherType = aoe::kEtherType;
    short_frame.payload.assign(4, 0); // below header size
    EXPECT_FALSE(aoe::parse(short_frame).has_value());
}

TEST(AoeProtocol, SectorsPerFrame)
{
    EXPECT_EQ(aoe::sectorsPerFrame(9000), (9000u - 32) / 512);
    EXPECT_EQ(aoe::sectorsPerFrame(1500), 2u);
    EXPECT_EQ(aoe::sectorsPerFrame(100), 1u); // degenerate floor
}

// --- Initiator <-> server integration ---

struct AoeWorld
{
    explicit AoeWorld(double loss = 0.0, unsigned workers = 4)
        : lan(eq, "lan"),
          sport(lan.attach(1, {1e9, 9000, loss})),
          cport(lan.attach(2, {1e9, 9000, loss})),
          server(eq, "server", sport,
                 aoe::ServerParams{workers}),
          endpoint(cport),
          initiator(eq, "init", endpoint, 1)
    {
        server.addTarget(0, 0, kCap, kBase);
    }

    static constexpr sim::Lba kCap = 1 << 20;
    static constexpr std::uint64_t kBase = 0xBEEF000000000001ULL;

    sim::EventQueue eq;
    net::Network lan;
    net::Port &sport;
    net::Port &cport;
    aoe::AoeServer server;
    net::PortEndpoint endpoint;
    aoe::AoeInitiator initiator;
};

TEST(AoeTransfer, ReadReturnsImageTokens)
{
    AoeWorld w;
    std::vector<std::uint64_t> got;
    w.initiator.readSectors(100, 40, [&](const auto &t) { got = t; });
    w.eq.run();
    ASSERT_EQ(got.size(), 40u);
    for (std::uint32_t i = 0; i < 40; ++i)
        EXPECT_EQ(got[i], hw::sectorToken(AoeWorld::kBase, 100 + i));
}

TEST(AoeTransfer, LargeReadSplitsAndFragments)
{
    AoeWorld w;
    std::vector<std::uint64_t> got;
    // 3000 sectors > one request (2048) and many frames.
    w.initiator.readSectors(0, 3000, [&](const auto &t) { got = t; });
    w.eq.run();
    ASSERT_EQ(got.size(), 3000u);
    for (std::uint32_t i = 0; i < 3000; i += 97)
        EXPECT_EQ(got[i], hw::sectorToken(AoeWorld::kBase, i));
    EXPECT_GE(w.initiator.requestsIssued(), 2u);
}

TEST(AoeTransfer, WriteThenReadBack)
{
    AoeWorld w;
    const std::uint64_t mine = 0x7777000000000001ULL;
    bool wrote = false;
    w.initiator.writeRange(500, 300, mine, [&]() { wrote = true; });
    w.eq.run();
    ASSERT_TRUE(wrote);
    EXPECT_TRUE(w.server.findTarget(0, 0)->store.rangeHasBase(
        500, 300, mine));
    // The rest of the image is untouched.
    EXPECT_TRUE(w.server.findTarget(0, 0)->store.rangeHasBase(
        0, 500, AoeWorld::kBase));

    std::vector<std::uint64_t> got;
    w.initiator.readSectors(500, 300, [&](const auto &t) { got = t; });
    w.eq.run();
    for (std::uint32_t i = 0; i < 300; i += 17)
        EXPECT_EQ(got[i], hw::sectorToken(mine, 500 + i));
}

TEST(AoeTransfer, Discover)
{
    AoeWorld w;
    bool found = false, done = false;
    w.initiator.discover([&](bool ok) {
        found = ok;
        done = true;
    });
    w.eq.run();
    EXPECT_TRUE(done);
    EXPECT_TRUE(found);
}

TEST(AoeTransfer, OutOfRangeReadNeverCompletes)
{
    AoeWorld w;
    bool completed = false;
    w.initiator.readSectors(AoeWorld::kCap - 1, 16,
                            [&](const auto &) { completed = true; });
    // The server reports an error; the initiator keeps retrying
    // (conservative), so the read must not complete.
    w.eq.run(2 * sim::kSec);
    EXPECT_FALSE(completed);
}

class AoeLossy : public ::testing::TestWithParam<double>
{
};

TEST_P(AoeLossy, RetransmissionRecoversData)
{
    AoeWorld w(GetParam());
    std::vector<std::uint64_t> got;
    bool wrote = false;
    w.initiator.readSectors(0, 600, [&](const auto &t) { got = t; });
    w.initiator.writeRange(4096, 128, 0x5151000000000001ULL,
                           [&]() { wrote = true; });
    w.eq.run(400 * sim::kSec);
    ASSERT_EQ(got.size(), 600u);
    for (std::uint32_t i = 0; i < 600; i += 13)
        EXPECT_EQ(got[i], hw::sectorToken(AoeWorld::kBase, i));
    EXPECT_TRUE(wrote);
    if (GetParam() > 0.0) {
        EXPECT_GT(w.initiator.retransmissions(), 0u);
    }
}

INSTANTIATE_TEST_SUITE_P(LossRates, AoeLossy,
                         ::testing::Values(0.0, 0.05, 0.2));

TEST(AoeServer, ThreadPoolOutperformsSingleThread)
{
    // The paper's §4.2 fix: vblade single-threaded is a bottleneck
    // under a significant volume of read requests.
    auto run_with = [](unsigned workers) {
        AoeWorld w(0.0, workers);
        unsigned done = 0;
        for (int i = 0; i < 16; ++i) {
            w.initiator.readSectors(
                sim::Lba(i) * 40000, 2048,
                [&](const auto &) { ++done; });
        }
        w.eq.run(400 * sim::kSec);
        EXPECT_EQ(done, 16u);
        return w.eq.now();
    };
    sim::Tick single = run_with(1);
    sim::Tick pooled = run_with(8);
    EXPECT_LT(pooled, single);
}

// --- Server-side duplicate suppression (legacy reads only) ---

/** A bare client port that sends hand-built request frames. */
struct RawAoeWorld
{
    RawAoeWorld()
        : lan(eq, "lan"),
          sport(lan.attach(kServer, {1e9, 9000, 0.0})),
          cport(lan.attach(kClient, {1e9, 9000, 0.0})),
          server(eq, "server", sport)
    {
        server.addTarget(0, 0, kCap, kBase);
        cport.onReceive([this](const net::Frame &f) {
            auto m = aoe::parse(f);
            if (m && m->response)
                sectorsIn += m->data.size();
        });
    }

    /** Send a read request for [lba, lba+count) under @p tag at
     *  @p when. */
    void
    readAt(sim::Tick when, std::uint32_t tag, sim::Lba lba,
           std::uint32_t count,
           std::uint8_t command = aoe::kCmdAta)
    {
        aoe::Message m;
        m.tag = tag;
        m.command = command;
        m.ataCmd = 0x25;
        m.lba = lba;
        m.sectors = static_cast<std::uint16_t>(count);
        m.totalSectors = count;
        eq.scheduleAt(when, [this, m]() {
            cport.send(aoe::toFrame(m, kServer));
        });
    }

    static constexpr net::MacAddr kServer = 1;
    static constexpr net::MacAddr kClient = 2;
    static constexpr sim::Lba kCap = 1 << 20;
    static constexpr std::uint64_t kBase = 0xBEEF000000000001ULL;
    static constexpr std::uint32_t kCount = 2048;
    static constexpr sim::Bytes kBytes = sim::Bytes(kCount) * 512;

    sim::EventQueue eq;
    net::Network lan;
    net::Port &sport;
    net::Port &cport;
    aoe::AoeServer server;
    std::uint64_t sectorsIn = 0;
};

TEST(AoeServerDuplicates, ReadResentMidStreamIsServedOnce)
{
    RawAoeWorld w;
    w.readAt(0, 7, 0, RawAoeWorld::kCount);
    // The 1 MiB response takes milliseconds to stream out.
    w.readAt(1 * sim::kMs, 7, 0, RawAoeWorld::kCount);
    w.eq.run();
    EXPECT_EQ(w.server.requestsServed(), 1u);
    EXPECT_EQ(w.server.dataBytesOut(), RawAoeWorld::kBytes);
    EXPECT_EQ(w.server.duplicatesSuppressed(), 1u);
    EXPECT_EQ(w.sectorsIn, RawAoeWorld::kCount);
}

TEST(AoeServerDuplicates, ReadResentAfterLastFragmentIsServedAgain)
{
    RawAoeWorld w;
    w.readAt(0, 7, 0, RawAoeWorld::kCount);
    w.eq.run();
    // A re-request after the response left is a loss recovery.
    w.readAt(w.eq.now() + 1 * sim::kMs, 7, 0, RawAoeWorld::kCount);
    w.eq.run();
    EXPECT_EQ(w.server.requestsServed(), 2u);
    EXPECT_EQ(w.server.dataBytesOut(), 2 * RawAoeWorld::kBytes);
    EXPECT_EQ(w.server.duplicatesSuppressed(), 0u);
    EXPECT_EQ(w.sectorsIn, 2 * RawAoeWorld::kCount);
}

TEST(AoeServerDuplicates, SameTagDifferentLbaIsServed)
{
    RawAoeWorld w;
    w.readAt(0, 7, 0, RawAoeWorld::kCount);
    w.readAt(1 * sim::kMs, 7, 4096, RawAoeWorld::kCount);
    w.eq.run();
    EXPECT_EQ(w.server.requestsServed(), 2u);
    EXPECT_EQ(w.server.dataBytesOut(), 2 * RawAoeWorld::kBytes);
    EXPECT_EQ(w.server.duplicatesSuppressed(), 0u);
}

TEST(AoeServerDuplicates, ShardReadResentMidStreamIsServedTwice)
{
    RawAoeWorld w;
    w.readAt(0, 7, 0, RawAoeWorld::kCount, aoe::kCmdShardRead);
    w.readAt(1 * sim::kMs, 7, 0, RawAoeWorld::kCount,
             aoe::kCmdShardRead);
    w.eq.run();
    EXPECT_EQ(w.server.requestsServed(), 2u);
    EXPECT_EQ(w.server.dataBytesOut(), 2 * RawAoeWorld::kBytes);
    EXPECT_EQ(w.server.duplicatesSuppressed(), 0u);
}

TEST(AoeServerDuplicates, CrashForgetsReadsInFlight)
{
    RawAoeWorld w;
    w.readAt(0, 7, 0, RawAoeWorld::kCount);
    w.eq.scheduleAt(1 * sim::kMs, [&w]() { w.server.crash(); });
    w.eq.scheduleAt(2 * sim::kMs, [&w]() { w.server.restart(); });
    w.eq.run();
    const std::uint64_t before = w.sectorsIn;
    EXPECT_LT(before, RawAoeWorld::kCount) << "a crash cuts the response";
    // The lost read's last fragment never went out, so only crash()
    // can have forgotten it: the re-request is served.
    w.readAt(w.eq.now() + 1 * sim::kMs, 7, 0, RawAoeWorld::kCount);
    w.eq.run();
    EXPECT_EQ(w.server.requestsServed(), 2u);
    EXPECT_EQ(w.server.duplicatesSuppressed(), 0u);
    EXPECT_EQ(w.sectorsIn - before, RawAoeWorld::kCount);
}

} // namespace
