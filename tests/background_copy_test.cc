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
    CopyRig()
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
                eq.schedule(500 * sim::kUs,
                            [lba, n, done = std::move(done)]() {
                                done(imageTokens(lba, n));
                            });
            },
            kImageSectors, 0, [this]() { completed = true; });
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
    bool completed = false;
};

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
    while (!r.completed && r.eq.now() < 10 * sim::kSec && r.eq.step()) {
    }
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

} // namespace
