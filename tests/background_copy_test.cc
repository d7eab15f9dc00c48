/**
 * @file
 * Background-copy retriever tests against a scripted fetch path: a
 * MediationCore over an always-idle port stands in for the local
 * disk, and a mock FetchFn answers after a fixed delay, so the
 * retriever -> FIFO -> writer pipeline runs with no network, server
 * or controller.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <utility>

#include "bmcast/background_copy.hh"
#include "bmcast/mediation_core.hh"
#include "hw/disk_store.hh"

namespace {

constexpr sim::Lba kDiskSectors = 1 << 16;
constexpr std::uint32_t kBlock = 64;
constexpr sim::Lba kImageSectors = 64 * kBlock;
constexpr sim::Addr kBounce = 0x100000;
constexpr std::uint64_t kImageBase = 0x1A6E000000000000ULL;

/** A device that is never busy and finishes every VMM command by
 *  the next poll. */
class IdlePort : public bmcast::ControllerPort
{
  public:
    bool guestBusy() const override { return false; }
    bool deviceBusy() override { return false; }
    void takeDevice() override {}
    void restoreDevice() override {}
    void
    issueVmmCommand(bool, sim::Lba, std::uint32_t) override
    {
        inFlight = true;
    }
    bool
    vmmCommandDone() override
    {
        return std::exchange(inFlight, false);
    }
    void releaseAfterVmmOp() override {}
    bmcast::RestartMode
    issueDummyRestart(std::uint32_t) override
    {
        return bmcast::RestartMode::FireAndForget;
    }
    bool restartDone() override { return true; }
    void onRestartRetired(std::uint32_t) override {}
    void replayGuestWrite(sim::Addr, std::uint64_t) override {}

    bool inFlight = false;
};

std::vector<std::uint64_t>
imageTokens(sim::Lba lba, std::uint32_t count)
{
    std::vector<std::uint64_t> t(count);
    for (std::uint32_t i = 0; i < count; ++i)
        t[i] = hw::sectorToken(kImageBase, lba + i);
    return t;
}

struct CopyRig
{
    explicit CopyRig(std::uint32_t fetchAlign = 0)
    {
        params.copyBlockSectors = kBlock;
        params.moderation.vmmWriteInterval = 2 * sim::kMs;
        params.moderation.guestIoFreqThreshold = 1e9;
        bitmap.markFilled(kImageSectors, kDiskSectors - kImageSectors);

        bmcast::MediatorServices svc;
        svc.bitmap = &bitmap;
        svc.reservedBase = kDiskSectors;
        svc.reservedEnd = kDiskSectors;
        core = std::make_unique<bmcast::MediationCore>(
            "core", mem, port, svc, kBounce, kBlock);
        copy = std::make_unique<bmcast::BackgroundCopy>(
            eq, "copy", params, *core, bitmap,
            [this](sim::Lba lba, std::uint32_t n,
                   std::function<void(const std::vector<std::uint64_t> &)>
                       done) {
                for (std::uint32_t i = 0; i < n; ++i)
                    ++fetchCount[lba + i];
                fetched[lba] = n;
                sequence.emplace_back(lba, n);
                fifoAtFetch.push_back(copy->fifoDepth());
                eq.schedule(500 * sim::kUs,
                            [lba, n, done = std::move(done)]() {
                                done(imageTokens(lba, n));
                            });
            },
            kImageSectors, fetchAlign, [this]() { completed = true; });
    }

    /** Run until the copy completes, with the VMM's poll loop
     *  completing the writer's device commands. */
    void
    run()
    {
        sim::EventId poll = eq.schedulePeriodic(
            100 * sim::kUs, [this]() { core->poll(); });
        eq.stepWhile(
            [this]() { return !completed && eq.now() < 10 * sim::kSec; });
        eq.cancel(poll);
    }

    /** Sectors fetched more than once, and never. */
    std::pair<long, long>
    refetchedAndMissed() const
    {
        return {std::count_if(fetchCount.begin(), fetchCount.end(),
                              [](unsigned c) { return c > 1; }),
                std::count(fetchCount.begin(), fetchCount.end(), 0u)};
    }

    /** Lowest range the retriever fetched whose write has not
     *  landed (queued in the FIFO or being written). */
    std::optional<sim::Lba>
    lowestQueued() const
    {
        for (const auto &[lba, n] : fetched)
            if (bitmap.anyEmpty(lba, n))
                return bitmap.emptyRanges(lba, n).front().first;
        return std::nullopt;
    }

    sim::EventQueue eq;
    hw::PhysMem mem{4 * sim::kMiB};
    bmcast::BlockBitmap bitmap{kDiskSectors};
    IdlePort port;
    bmcast::VmmParams params;
    std::unique_ptr<bmcast::MediationCore> core;
    std::unique_ptr<bmcast::BackgroundCopy> copy;
    std::vector<unsigned> fetchCount =
        std::vector<unsigned>(kImageSectors, 0);
    std::map<sim::Lba, std::uint32_t> fetched;
    /** Every retriever fetch, in issue order. */
    std::vector<std::pair<sim::Lba, std::uint32_t>> sequence;
    /** FIFO depth when each fetch was issued. */
    std::vector<std::size_t> fifoAtFetch;
    bool completed = false;
};

/** Pull the cursor back into the lowest queued range every 3 ms,
 *  the way copy-on-read hand-overs do. */
sim::EventId
stashBehindQueue(CopyRig &r)
{
    return r.eq.schedulePeriodic(3 * sim::kMs, [&r]() {
        if (auto lba = r.lowestQueued())
            r.copy->stashFetched(*lba, 4, imageTokens(*lba, 4));
    });
}

TEST(BackgroundCopy, CursorMovedBackOverQueuedRangesFetchesEachSectorOnce)
{
    CopyRig r;
    // The VMM's poll loop: completes the writer's device commands.
    sim::EventId poll = r.eq.schedulePeriodic(
        100 * sim::kUs, [&r]() { r.core->poll(); });
    // Copy-on-read hand-overs that land just inside the lowest
    // queued range, pulling the cursor back over the FIFO.
    unsigned stashes = 0;
    sim::EventId stasher = r.eq.schedulePeriodic(3 * sim::kMs, [&]() {
        if (auto lba = r.lowestQueued()) {
            r.copy->stashFetched(*lba, 4, imageTokens(*lba, 4));
            ++stashes;
        }
    });

    r.copy->start();
    r.eq.stepWhile(
        [&]() { return !r.completed && r.eq.now() < 10 * sim::kSec; });
    r.eq.cancel(poll);
    r.eq.cancel(stasher);

    ASSERT_TRUE(r.completed);
    EXPECT_TRUE(r.bitmap.isFilled(0, kImageSectors));
    EXPECT_GT(stashes, 10u) << "the cursor was never pulled back";
    unsigned worst = *std::max_element(r.fetchCount.begin(),
                                       r.fetchCount.end());
    EXPECT_EQ(worst, 1u) << "a queued range was fetched again";
    EXPECT_EQ(std::count(r.fetchCount.begin(), r.fetchCount.end(), 0u),
              0)
        << "every sector was fetched by the retriever (only fetched "
           "ranges are stashed here)";
}

TEST(BackgroundCopy, PickFilterDefersRejectedUnitsUntilNothingElseIsLeft)
{
    CopyRig r(kBlock);
    const std::set<sim::Lba> claimed{0, 5 * kBlock, 6 * kBlock,
                                     63 * kBlock};
    std::vector<sim::Lba> asked;
    r.copy->setPickFilter([&](sim::Lba unit) {
        asked.push_back(unit);
        return claimed.count(unit) == 0;
    });
    r.copy->start();
    r.run();

    ASSERT_TRUE(r.completed);
    EXPECT_TRUE(r.bitmap.isFilled(0, kImageSectors));
    EXPECT_EQ(r.refetchedAndMissed(), std::make_pair(0L, 0L));
    EXPECT_TRUE(std::all_of(asked.begin(), asked.end(), [](sim::Lba u) {
        return u % kBlock == 0;
    })) << "the filter sees unit starts only";

    // The claimed units come last, each fetched once, in the plain
    // pick's order: from the cursor (now at the last unit), then
    // wrapping to the start; and only once the writer has drained
    // the FIFO.
    ASSERT_EQ(r.sequence.size(), kImageSectors / kBlock);
    std::vector<sim::Lba> tail;
    for (std::size_t i = r.sequence.size() - claimed.size();
         i < r.sequence.size(); ++i) {
        tail.push_back(r.sequence[i].first);
        EXPECT_EQ(r.fifoAtFetch[i], 0u) << "fallback with work queued";
    }
    EXPECT_EQ(tail, (std::vector<sim::Lba>{63 * kBlock, 0, 5 * kBlock,
                                           6 * kBlock}));
    for (const auto &[lba, n] : r.sequence)
        EXPECT_EQ(n, kBlock);
}

TEST(BackgroundCopy, PickFilterEndsARunAtTheFirstRejectedUnit)
{
    // Units are a quarter block: one pick spans up to four of them
    // and must stop in front of a rejected one.
    constexpr std::uint32_t kUnit = kBlock / 4;
    CopyRig r(kUnit);
    auto rejected = [](sim::Lba unit) { return unit / kUnit % 4 == 2; };
    r.copy->setPickFilter([&](sim::Lba unit) { return !rejected(unit); });
    r.copy->start();
    r.run();

    ASSERT_TRUE(r.completed);
    EXPECT_EQ(r.refetchedAndMissed(), std::make_pair(0L, 0L));
    // One rejected unit per block, fetched last and alone.
    const std::size_t nRejected = kImageSectors / kBlock;
    ASSERT_GT(r.sequence.size(), nRejected);
    const std::size_t split = r.sequence.size() - nRejected;
    std::size_t multiUnit = 0;
    for (std::size_t i = 0; i < r.sequence.size(); ++i) {
        auto [lba, n] = r.sequence[i];
        bool covers = false;
        for (sim::Lba u = lba - lba % kUnit; u < lba + n; u += kUnit)
            covers = covers || rejected(u);
        if (i < split) {
            EXPECT_FALSE(covers) << "pick " << i << " at " << lba;
            multiUnit += n > kUnit;
        } else {
            EXPECT_TRUE(rejected(lba) && n == kUnit)
                << "the fallback takes what the filter rejected";
        }
    }
    EXPECT_GT(multiUnit, split / 2) << "runs span several units";
}

TEST(BackgroundCopy, FilteredPicksFetchEachSectorOnceUnderCursorPullBack)
{
    CopyRig r(kBlock);
    // Every other unit is claimed by "another node" until half the
    // run is done, then the claims clear, as when the chunks land on
    // a peer.
    bool claimsHeld = true;
    r.copy->setPickFilter([&](sim::Lba unit) {
        return !claimsHeld || unit / kBlock % 2 == 0;
    });
    sim::EventId stasher = stashBehindQueue(r);
    r.eq.schedule(40 * sim::kMs, [&]() { claimsHeld = false; });
    r.copy->start();
    r.run();
    r.eq.cancel(stasher);

    ASSERT_TRUE(r.completed);
    EXPECT_TRUE(r.bitmap.isFilled(0, kImageSectors));
    EXPECT_EQ(r.refetchedAndMissed(), std::make_pair(0L, 0L));
}

TEST(BackgroundCopy, UnalignedUngatedPicksSpanUpToHalfTheFifo)
{
    // Each fetch's length and the FIFO depth at its issue, with and
    // without a rate gate; every sector is fetched once and no write
    // is longer than a copy block.
    auto fetches = [](bool gated) {
        CopyRig r;
        if (gated)
            r.copy->setRateGate(
                [](sim::Bytes, sim::Tick now) { return now; });
        std::vector<std::uint32_t> writes;
        r.copy->addWriteObserver(
            [&writes](sim::Lba, std::uint32_t n) { writes.push_back(n); });
        r.copy->start();
        r.run();
        EXPECT_TRUE(r.completed);
        EXPECT_EQ(r.refetchedAndMissed(), std::make_pair(0L, 0L));
        EXPECT_FALSE(writes.empty());
        for (std::uint32_t n : writes)
            EXPECT_LE(n, kBlock) << "a span reached the disk whole";
        std::vector<std::pair<std::uint32_t, std::size_t>> out;
        for (std::size_t i = 0; i < r.sequence.size(); ++i)
            out.emplace_back(r.sequence[i].second, r.fifoAtFetch[i]);
        return out;
    };

    auto spans = fetches(false);
    ASSERT_FALSE(spans.empty());
    EXPECT_EQ(spans.front().first, 4 * kBlock);
    for (std::size_t i = 0; i < spans.size(); ++i) {
        auto [n, fifo] = spans[i];
        EXPECT_LE(n, 4 * kBlock) << "fetch " << i;
        EXPECT_LE(fifo + n / kBlock, 8u)
            << "fetch " << i << " overran the FIFO";
    }

    for (const auto &f : fetches(true))
        EXPECT_EQ(f.first, kBlock) << "a gated fetch spanned blocks";
}

TEST(BackgroundCopy, UnfilteredFetchSequenceIsUnchanged)
{
    // Fingerprint of the retriever's fetch sequence with no filter,
    // under cursor pull-back and a half-block alignment (trimmed and
    // wrapped picks); pinned from the code before pick filters.
    auto fingerprint = [](bool acceptAllFilter) {
        CopyRig r(kBlock / 2);
        if (acceptAllFilter)
            r.copy->setPickFilter([](sim::Lba) { return true; });
        sim::EventId stasher = stashBehindQueue(r);
        r.copy->start();
        r.run();
        r.eq.cancel(stasher);
        EXPECT_TRUE(r.completed);
        std::uint64_t h = 0xcbf29ce484222325ULL;
        for (const auto &[lba, n] : r.sequence)
            h = (h ^ (lba << 20 ^ n)) * 0x100000001b3ULL;
        return std::make_pair(r.sequence.size(), h);
    };
    auto plain = fingerprint(false);
    EXPECT_EQ(plain, fingerprint(true))
        << "a filter that accepts everything changes nothing";
    EXPECT_EQ(plain.first, 64u);
    EXPECT_EQ(plain.second, 14947161166911604773ULL);
}

} // namespace
