/**
 * @file
 * Isolation tests of bmcast::MediationCore against a scripted mock
 * ControllerPort: no controllers, no guests, no event queue — every
 * device-side transition is driven by hand, so the redirect state
 * machine, the VMM multiplexer and the write queue can be pinned
 * step by step. A property test then drives random interleavings of
 * guest traffic, VMM ops, device completions and power-offs and
 * checks the core's invariants after every step.
 */

#include <gtest/gtest.h>

#include <deque>

#include "bmcast/mediation_core.hh"
#include "hw/disk_store.hh"
#include "simcore/random.hh"

namespace {

using bmcast::MediationCore;
using bmcast::RestartMode;

constexpr sim::Lba kDiskSectors = 1 << 20;
constexpr sim::Lba kReservedBase = kDiskSectors - 64;
constexpr sim::Addr kBounce = 0x100000;
constexpr std::uint32_t kBounceSectors = 2048;
constexpr std::uint64_t kRemoteBase = 0xABCD000000000000ULL;
constexpr std::uint64_t kDeviceBase = 0xD15C000000000000ULL;

/**
 * A hand-cranked ControllerPort. Nothing completes by itself: the
 * test flips `vmmReady` / `restartReady` (the "device finished"
 * moments) and adjusts `guestOutstanding`, then calls core.poll()
 * exactly like a front-end's poll loop would.
 */
class ScriptedPort : public bmcast::ControllerPort
{
  public:
    explicit ScriptedPort(hw::PhysMem &m) : mem(m) {}

    bool guestBusy() const override { return guestOutstanding > 0; }

    bool
    deviceBusy() override
    {
        return deviceBusyScripted ? deviceBusyFlag
                                  : guestOutstanding > 0;
    }

    void takeDevice() override { ++takes; }
    void restoreDevice() override { ++restores; }

    void
    issueVmmCommand(bool is_write, sim::Lba lba,
                    std::uint32_t count) override
    {
        EXPECT_FALSE(vmmInFlight)
            << "overlapping VMM commands on the port";
        vmmInFlight = true;
        vmmReady = false;
        lastVmmWrite = is_write;
        lastVmmLba = lba;
        lastVmmCount = count;
        ++vmmIssued;
    }

    bool
    vmmCommandDone() override
    {
        if (!vmmInFlight || !vmmReady)
            return false;
        vmmInFlight = false;
        // Device DMA: a read lands local-disk tokens in the bounce
        // buffer before completion is observable.
        if (!lastVmmWrite)
            hw::fillTokenBuffer(mem, kBounce, lastVmmLba,
                                lastVmmCount, kDeviceBase);
        return true;
    }

    void releaseAfterVmmOp() override { ++releases; }

    RestartMode
    issueDummyRestart(std::uint32_t key) override
    {
        restartedKeys.push_back(key);
        if (mode == RestartMode::Polled) {
            restartInFlight = true;
            restartReady = false;
        }
        return mode;
    }

    bool
    restartDone() override
    {
        if (!restartInFlight || !restartReady)
            return false;
        restartInFlight = false;
        return true;
    }

    void
    onRestartRetired(std::uint32_t key) override
    {
        retiredKeys.push_back(key);
    }

    void
    replayGuestWrite(sim::Addr addr, std::uint64_t value) override
    {
        replayed.emplace_back(addr, value);
        if (replayFn)
            replayFn(addr, value);
    }

    hw::PhysMem &mem;

    // Scripted device state.
    int guestOutstanding = 0;
    bool deviceBusyScripted = false; //!< use the flag, not the count
    bool deviceBusyFlag = false;
    RestartMode mode = RestartMode::Polled;
    bool vmmInFlight = false, vmmReady = false;
    bool restartInFlight = false, restartReady = false;
    bool lastVmmWrite = false;
    sim::Lba lastVmmLba = 0;
    std::uint32_t lastVmmCount = 0;

    // Recorded interactions.
    int takes = 0, restores = 0, releases = 0, vmmIssued = 0;
    std::vector<std::uint32_t> restartedKeys, retiredKeys;
    std::vector<std::pair<sim::Addr, std::uint64_t>> replayed;
    std::function<void(sim::Addr, std::uint64_t)> replayFn;
};

struct PendingFetch
{
    sim::Lba lba;
    std::uint32_t count;
    std::function<void(const std::vector<std::uint64_t> &)> done;
};

struct CoreRig
{
    CoreRig()
    {
        bmcast::MediatorServices svc;
        svc.bitmap = &bitmap;
        svc.reservedBase = kReservedBase;
        svc.reservedEnd = kDiskSectors;
        svc.dummyLba = kReservedBase;
        svc.fetchRemote = [this](sim::Lba lba, std::uint32_t n,
                                 std::function<void(
                                     const std::vector<std::uint64_t>
                                         &)> cb) {
            fetches.push_back({lba, n, std::move(cb)});
        };
        svc.stashFetched = [this](sim::Lba, std::uint32_t n,
                                  const std::vector<std::uint64_t> &) {
            stashedSectors += n;
        };
        core = std::make_unique<MediationCore>(
            "core", mem, port, svc, kBounce, kBounceSectors);
    }

    /** Deliver the oldest outstanding remote fetch. */
    void
    completeFetch()
    {
        ASSERT_FALSE(fetches.empty());
        PendingFetch f = std::move(fetches.front());
        fetches.pop_front();
        std::vector<std::uint64_t> tokens(f.count);
        for (std::uint32_t i = 0; i < f.count; ++i)
            tokens[i] = hw::sectorToken(kRemoteBase, f.lba + i);
        f.done(tokens);
    }

    static std::vector<hw::SgEntry>
    sgAt(sim::Addr addr, std::uint32_t count)
    {
        return {{addr, count * sim::kSectorSize}};
    }

    hw::PhysMem mem{256 * sim::kMiB};
    bmcast::BlockBitmap bitmap{kDiskSectors};
    ScriptedPort port{mem};
    std::deque<PendingFetch> fetches;
    std::uint64_t stashedSectors = 0;
    std::unique_ptr<MediationCore> core;
};

TEST(MediationCore, FilledReadPassesThroughEmptyReadIsWithheld)
{
    CoreRig r;
    r.bitmap.markFilled(0, 64);
    EXPECT_TRUE(r.core->onGuestRead(
        1, 0, 64, [] { return CoreRig::sgAt(0x4000, 64); }));
    EXPECT_EQ(r.core->stats().passthroughReads, 1u);
    EXPECT_FALSE(r.core->hasPendingRedirects());

    EXPECT_FALSE(r.core->onGuestRead(
        2, 100, 8, [] { return CoreRig::sgAt(0x4000, 8); }));
    EXPECT_TRUE(r.core->hasPendingRedirects());
    EXPECT_EQ(r.core->stats().redirectedReads, 1u);
    // Withheld, not yet begun: still Passthrough.
    EXPECT_EQ(r.core->state(), MediationCore::State::Passthrough);
}

TEST(MediationCore, RedirectFetchesFillsGuestBufferAndRestarts)
{
    CoreRig r;
    const sim::Addr buf = 0x8000;
    ASSERT_FALSE(r.core->onGuestRead(
        7, 100, 8, [&] { return CoreRig::sgAt(buf, 8); }));
    r.core->beginRedirects();

    EXPECT_EQ(r.core->state(), MediationCore::State::Redirecting);
    EXPECT_EQ(r.port.takes, 1);
    ASSERT_EQ(r.fetches.size(), 1u);
    EXPECT_EQ(r.fetches.front().lba, 100u);
    EXPECT_EQ(r.fetches.front().count, 8u);

    r.completeFetch();
    // Data phase: tokens placed where the guest's scatter list
    // points, then the dummy restart (Polled on this port).
    for (std::uint32_t i = 0; i < 8; ++i)
        EXPECT_EQ(r.mem.read64(buf + i * sim::kSectorSize),
                  hw::sectorToken(kRemoteBase, 100 + i));
    ASSERT_EQ(r.port.restartedKeys, std::vector<std::uint32_t>{7});
    EXPECT_EQ(r.core->state(), MediationCore::State::Restarting);
    EXPECT_TRUE(r.port.retiredKeys.empty());

    r.port.restartReady = true;
    r.core->poll();
    EXPECT_EQ(r.port.retiredKeys, std::vector<std::uint32_t>{7});
    EXPECT_EQ(r.port.restores, 1);
    EXPECT_EQ(r.core->state(), MediationCore::State::Passthrough);
    EXPECT_TRUE(r.core->quiescent());

    EXPECT_EQ(r.core->stats().redirectedReads, 1u);
    EXPECT_EQ(r.core->stats().redirectedSectors, 8u);
    EXPECT_EQ(r.core->stats().dummyRestarts, 1u);
    EXPECT_EQ(r.core->stats().mixedRedirects, 0u);
    EXPECT_EQ(r.stashedSectors, 8u);
}

TEST(MediationCore, FireAndForgetRestartRetiresInline)
{
    CoreRig r;
    r.port.mode = RestartMode::FireAndForget;
    ASSERT_FALSE(r.core->onGuestRead(
        3, 500, 4, [] { return CoreRig::sgAt(0x8000, 4); }));
    r.core->beginRedirects();
    r.completeFetch();
    // No Restarting phase: the retire happens inside the restart.
    EXPECT_EQ(r.port.retiredKeys, std::vector<std::uint32_t>{3});
    EXPECT_EQ(r.core->state(), MediationCore::State::Passthrough);
    EXPECT_TRUE(r.core->quiescent());
}

TEST(MediationCore, MixedRedirectReadsFilledSegmentFromLocalDisk)
{
    CoreRig r;
    const sim::Addr buf = 0xC000;
    // [104, 108) is FILLED (guest overwrote it): the server's copy
    // is stale, so those sectors must come from the local device.
    r.bitmap.markFilled(104, 4);
    ASSERT_FALSE(r.core->onGuestRead(
        9, 100, 12, [&] { return CoreRig::sgAt(buf, 12); }));
    r.core->beginRedirects();

    // Two remote fetches around the filled hole, one internal VMM
    // read for the hole itself.
    ASSERT_EQ(r.fetches.size(), 2u);
    EXPECT_TRUE(r.port.vmmInFlight);
    EXPECT_FALSE(r.port.lastVmmWrite);
    EXPECT_EQ(r.port.lastVmmLba, 104u);
    EXPECT_EQ(r.port.lastVmmCount, 4u);
    EXPECT_EQ(r.core->stats().mixedRedirects, 1u);

    r.port.vmmReady = true;
    r.core->poll(); // internal read completes; still Redirecting
    EXPECT_EQ(r.core->state(), MediationCore::State::Redirecting);
    // Internal segment reads are not multiplexed VMM ops.
    EXPECT_EQ(r.core->stats().vmmOps, 0u);
    EXPECT_EQ(r.port.releases, 0);

    r.completeFetch();
    r.completeFetch();
    // Data phase: remote tokens outside the hole, device tokens in it.
    for (std::uint32_t i = 0; i < 12; ++i) {
        std::uint64_t base =
            (i >= 4 && i < 8) ? kDeviceBase : kRemoteBase;
        EXPECT_EQ(r.mem.read64(buf + i * sim::kSectorSize),
                  hw::sectorToken(base, 100 + i))
            << "sector " << i;
    }
    EXPECT_EQ(r.core->stats().redirectedSectors, 8u);

    r.port.restartReady = true;
    r.core->poll();
    EXPECT_TRUE(r.core->quiescent());
}

TEST(MediationCore, BeginRedirectsDrainsBusyDeviceFirst)
{
    CoreRig r;
    r.port.deviceBusyScripted = true;
    r.port.deviceBusyFlag = true;
    ASSERT_FALSE(r.core->onGuestRead(
        1, 200, 4, [] { return CoreRig::sgAt(0x8000, 4); }));
    r.core->beginRedirects();
    EXPECT_EQ(r.core->state(), MediationCore::State::Draining);
    EXPECT_EQ(r.port.takes, 0);

    r.core->poll(); // still busy
    EXPECT_EQ(r.core->state(), MediationCore::State::Draining);

    r.port.deviceBusyFlag = false;
    r.core->poll();
    EXPECT_EQ(r.core->state(), MediationCore::State::Redirecting);
    EXPECT_EQ(r.port.takes, 1);
}

TEST(MediationCore, VmmWriteQueuesGuestWritesAndReplaysInOrder)
{
    CoreRig r;
    bool done = false;
    constexpr std::uint64_t kContent = 0xBEEF000000000000ULL;
    ASSERT_TRUE(r.core->vmmWrite(64, 16, kContent,
                                 [&] { done = true; }));
    EXPECT_EQ(r.core->state(), MediationCore::State::VmmActive);
    EXPECT_TRUE(r.port.vmmInFlight);
    EXPECT_TRUE(r.port.lastVmmWrite);
    // The core staged the content in the bounce buffer before the
    // port programmed the device.
    for (std::uint32_t i = 0; i < 16; ++i)
        EXPECT_EQ(hw::bufferTokenAt(r.mem, kBounce, i),
                  hw::sectorToken(kContent, 64 + i));

    // Guest register writes land while the VMM op owns the device.
    r.core->queueGuestWrite(0x10, 0x111);
    r.core->queueGuestWrite(0x14, 0x222);
    EXPECT_EQ(r.core->queuedGuestWrites().size(), 2u);
    EXPECT_FALSE(done);

    r.port.vmmReady = true;
    r.core->poll();
    EXPECT_TRUE(done);
    EXPECT_EQ(r.port.releases, 1);
    EXPECT_EQ(r.core->state(), MediationCore::State::Passthrough);
    ASSERT_EQ(r.port.replayed.size(), 2u);
    EXPECT_EQ(r.port.replayed[0],
              (std::pair<sim::Addr, std::uint64_t>{0x10, 0x111}));
    EXPECT_EQ(r.port.replayed[1],
              (std::pair<sim::Addr, std::uint64_t>{0x14, 0x222}));
    EXPECT_TRUE(r.core->queuedGuestWrites().empty());
    EXPECT_EQ(r.core->stats().vmmOps, 1u);
    EXPECT_EQ(r.core->stats().queuedGuestWrites, 2u);
}

TEST(MediationCore, VmmOpDefersUntilGuestQuiesces)
{
    CoreRig r;
    r.port.guestOutstanding = 1;
    int completed = 0;
    ASSERT_TRUE(r.core->vmmWrite(0, 8, 0x1, [&] { ++completed; }));
    EXPECT_TRUE(r.core->vmmOpActive());
    EXPECT_EQ(r.port.vmmIssued, 0); // deferred, not programmed

    // The pending queue is one deep.
    EXPECT_FALSE(r.core->vmmRead(
        0, 1, [](const std::vector<std::uint64_t> &) {}));

    r.core->poll();
    EXPECT_EQ(r.port.vmmIssued, 0);

    // Interpretation observes the guest acknowledging its last
    // completion: the injection window opens.
    r.port.guestOutstanding = 0;
    r.core->maybeStartPending();
    EXPECT_EQ(r.port.vmmIssued, 1);
    r.port.vmmReady = true;
    r.core->poll();
    EXPECT_EQ(completed, 1);
    EXPECT_TRUE(r.core->quiescent());
}

TEST(MediationCore, ReservedRegionAccessConvertsToDummy)
{
    CoreRig r;
    // A write into the bitmap home is dropped outright.
    EXPECT_FALSE(r.core->onGuestWrite(1, kReservedBase + 2, 4));
    r.core->beginRedirects();
    EXPECT_TRUE(r.fetches.empty()); // nothing fetched
    ASSERT_EQ(r.port.restartedKeys, std::vector<std::uint32_t>{1});
    r.port.restartReady = true;
    r.core->poll();
    EXPECT_TRUE(r.core->quiescent());

    // A read of the region returns zeros, never device content.
    const sim::Addr buf = 0x9000;
    r.mem.write64(buf, 0xFFFF); // stale guest buffer content
    EXPECT_FALSE(r.core->onGuestRead(
        2, kReservedBase, 2, [&] { return CoreRig::sgAt(buf, 2); }));
    r.core->beginRedirects();
    EXPECT_TRUE(r.fetches.empty());
    EXPECT_EQ(r.mem.read64(buf), 0u);
    r.port.restartReady = true;
    r.core->poll();

    EXPECT_EQ(r.core->stats().reservedConversions, 2u);
    EXPECT_EQ(r.core->stats().dummyRestarts, 2u);
    EXPECT_EQ(r.core->stats().redirectedSectors, 0u);

    // Ordinary guest writes mark the bitmap at issue time.
    EXPECT_TRUE(r.core->onGuestWrite(3, 300, 8));
    EXPECT_TRUE(r.bitmap.isFilled(300, 8));
}

TEST(MediationCore, QuiesceCallbackFiresOnceWhenFullyQuiescent)
{
    CoreRig r;
    int fires = 0;
    r.core->setQuiesceCallback([&] { ++fires; });

    // Busy guest: no fire.
    r.port.guestOutstanding = 1;
    r.core->poll();
    EXPECT_EQ(fires, 0);

    // Pending redirect: no fire even with an idle guest.
    r.port.guestOutstanding = 0;
    ASSERT_FALSE(r.core->onGuestRead(
        1, 400, 2, [] { return CoreRig::sgAt(0x8000, 2); }));
    r.core->poll();
    EXPECT_EQ(fires, 0);

    r.core->beginRedirects();
    r.completeFetch();
    r.port.restartReady = true;
    r.core->poll(); // retires the redirect AND observes quiescence
    r.core->poll();
    r.core->poll();
    EXPECT_TRUE(r.core->quiescent());
    // One-shot: later quiescent polls do not fire it again.
    EXPECT_EQ(fires, 1);

    // Re-arming fires at the next quiescent poll, once.
    r.core->setQuiesceCallback([&] { ++fires; });
    r.core->poll();
    r.core->poll();
    EXPECT_EQ(fires, 2);
}

TEST(MediationCore, ResetDropsAllStateAndStaleFetchesAreIgnored)
{
    CoreRig r;
    ASSERT_FALSE(r.core->onGuestRead(
        5, 700, 4, [] { return CoreRig::sgAt(0x8000, 4); }));
    r.core->beginRedirects();
    r.core->queueGuestWrite(0x20, 0x5);
    ASSERT_EQ(r.fetches.size(), 1u);
    ASSERT_EQ(r.core->state(), MediationCore::State::Redirecting);

    r.core->reset();
    EXPECT_EQ(r.core->state(), MediationCore::State::Passthrough);
    EXPECT_FALSE(r.core->hasPendingRedirects());
    EXPECT_TRUE(r.core->queuedGuestWrites().empty());
    EXPECT_FALSE(r.core->vmmOpActive());

    // The fetch from before the power-off completes late: the core
    // must drop it on the floor.
    r.completeFetch();
    EXPECT_FALSE(r.core->hasPendingRedirects());
    EXPECT_TRUE(r.port.retiredKeys.empty());
    EXPECT_TRUE(r.core->quiescent());
}

/**
 * Property test: random interleavings of guest reads, guest-command
 * completions, VMM ops, remote-fetch completions, device ticks and
 * power-offs. After every step the core's externally observable
 * invariants must hold; after a bounded drain the core must reach
 * full quiescence with conserved stats.
 */
TEST(MediationCoreProperty, RandomInterleavingsKeepInvariants)
{
    for (std::uint64_t seed = 1; seed <= 40; ++seed) {
        CoreRig r;
        sim::Rng rng(sim::Rng::seedFrom("mediation-fuzz", seed));
        std::uint32_t nextKey = 1;
        std::uint64_t vmmAccepted = 0, vmmCompleted = 0,
                      vmmDropped = 0;
        // Redirects counted but dropped by a power-off before their
        // dummy restart was issued.
        std::uint64_t redirectsDropped = 0;

        auto issueRead = [&](sim::Lba lba, std::uint32_t count) {
            std::uint32_t key = nextKey++;
            sim::Addr buf = 0x400000 + (key % 64) * 0x10000;
            bool fwd = r.core->onGuestRead(key, lba, count, [&] {
                return CoreRig::sgAt(buf, count);
            });
            if (fwd)
                ++r.port.guestOutstanding;
            else
                r.core->beginRedirects();
        };

        // Queued register writes replay through the front-end's own
        // intercept path; model that as a re-entrant guest read.
        r.port.replayFn = [&](sim::Addr, std::uint64_t value) {
            issueRead(value >> 8, value & 0xFF);
        };

        auto step = [&] {
            unsigned action = rng.uniformInt(0, 9);
            sim::Lba lba = rng.uniformInt(0, 4095) * 8;
            auto count =
                static_cast<std::uint32_t>(rng.uniformInt(1, 16));
            switch (action) {
              case 0:
              case 1: // guest read (occasionally in the reserved region)
                if (rng.chance(0.05))
                    lba = kReservedBase + 1;
                if (r.core->state() ==
                    MediationCore::State::Passthrough)
                    issueRead(lba, count);
                else
                    r.core->queueGuestWrite(
                        0x1000, (lba << 8) | count);
                break;
              case 2: // guest write
                if (r.core->state() ==
                    MediationCore::State::Passthrough)
                    r.core->onGuestWrite(nextKey++, lba, count);
                break;
              case 3: // guest command completes; guest acks
                if (r.port.guestOutstanding > 0) {
                    --r.port.guestOutstanding;
                    r.core->maybeStartPending();
                }
                break;
              case 4: // a remote fetch arrives
                if (!r.fetches.empty())
                    r.completeFetch();
                break;
              case 5: // device tick: in-flight commands finish
                if (r.port.vmmInFlight)
                    r.port.vmmReady = true;
                if (r.port.restartInFlight)
                    r.port.restartReady = true;
                break;
              case 6: // background copy injects a write
                if (r.core->vmmWrite(lba, count, 0xC0DE, [&] {
                        ++vmmCompleted;
                    }))
                    ++vmmAccepted;
                break;
              case 7: // bitmap verification read
                if (r.core->vmmRead(
                        lba, count,
                        [&](const std::vector<std::uint64_t> &) {
                            ++vmmCompleted;
                        }))
                    ++vmmAccepted;
                break;
              case 8: // power failure
                if (rng.chance(0.05)) {
                    vmmDropped +=
                        vmmAccepted - vmmCompleted - vmmDropped;
                    redirectsDropped =
                        r.core->stats().redirectedReads -
                        r.core->stats().dummyRestarts;
                    r.core->reset();
                    // The machine went down with it: the AoE session,
                    // in-flight device commands and guest state die.
                    r.fetches.clear();
                    r.port.guestOutstanding = 0;
                    r.port.vmmInFlight = r.port.vmmReady = false;
                    r.port.restartInFlight = r.port.restartReady =
                        false;
                }
                break;
              default:
                r.core->poll();
                break;
            }
        };

        for (int i = 0; i < 400; ++i) {
            step();

            // Invariants, every step.
            const bmcast::MediatorStats &s = r.core->stats();
            ASSERT_LE(s.dummyRestarts, s.redirectedReads);
            ASSERT_LE(s.mixedRedirects, s.redirectedReads);
            ASSERT_EQ(s.dummyRestarts, r.port.restartedKeys.size());
            ASSERT_LE(r.port.retiredKeys.size(),
                      r.port.restartedKeys.size());
            ASSERT_GE(r.port.takes, r.port.restores);
            if (r.core->quiescent()) {
                ASSERT_EQ(r.core->state(),
                          MediationCore::State::Passthrough);
                ASSERT_FALSE(r.core->vmmOpActive());
                ASSERT_FALSE(r.core->hasPendingRedirects());
                ASSERT_TRUE(r.core->queuedGuestWrites().empty());
                ASSERT_EQ(r.port.guestOutstanding, 0);
            }
        }

        // Drain: only completions and polls from here on.
        for (int i = 0; i < 10000 && !r.core->quiescent(); ++i) {
            if (!r.fetches.empty())
                r.completeFetch();
            if (r.port.vmmInFlight)
                r.port.vmmReady = true;
            if (r.port.restartInFlight)
                r.port.restartReady = true;
            if (r.port.guestOutstanding > 0) {
                --r.port.guestOutstanding;
                r.core->maybeStartPending();
            }
            r.core->poll();
        }

        ASSERT_TRUE(r.core->quiescent()) << "seed " << seed;
        EXPECT_TRUE(r.fetches.empty()) << "seed " << seed;
        // Every accepted VMM op either completed or died in a reset.
        EXPECT_EQ(vmmCompleted + vmmDropped, vmmAccepted)
            << "seed " << seed;
        EXPECT_EQ(r.core->stats().dummyRestarts + redirectsDropped,
                  r.core->stats().redirectedReads)
            << "seed " << seed;
    }
}

} // namespace
