#include "bmcast/background_copy.hh"

#include <algorithm>

#include "bmcast/mediation_core.hh"
#include "hw/disk_store.hh"
#include "simcore/logging.hh"

namespace bmcast {

namespace {

/** Depth of the retriever->writer FIFO (blocks). */
constexpr std::size_t kCopyFifoDepth = 8;

/** Window over which guest I/O frequency is measured (§3.3). */
constexpr sim::Tick kGuestIoWindow = 1 * sim::kSec;

/**
 * Split fetched tokens into maximal single-content-base runs.  Flat
 * images produce one run (the legacy path); overlay images served by
 * the store tier can mix bases inside one fetch.
 */
template <typename Fn>
void
forEachTokenRun(sim::Lba lba, const std::vector<std::uint64_t> &tokens,
                Fn fn)
{
    std::size_t i = 0;
    while (i < tokens.size()) {
        std::uint64_t base = hw::baseFromToken(tokens[i], lba + i);
        std::size_t j = i + 1;
        while (j < tokens.size() &&
               hw::baseFromToken(tokens[j], lba + j) == base)
            ++j;
        fn(lba + i, static_cast<std::uint32_t>(j - i), base);
        i = j;
    }
}

} // namespace

BackgroundCopy::BackgroundCopy(sim::EventQueue &eq, std::string name,
                               const VmmParams &params_,
                               MediationCore &mediator_,
                               BlockBitmap &bitmap_, FetchFn fetch_,
                               sim::Lba image_sectors,
                               std::uint32_t fetch_align_sectors,
                               std::function<void()> on_complete)
    : sim::SimObject(eq, std::move(name)),
      params(params_), mod(params_.moderation), mediator(mediator_),
      bitmap(bitmap_), fetch(std::move(fetch_)),
      imageSectors(image_sectors), fetchAlign(fetch_align_sectors),
      onComplete(std::move(on_complete)),
      guestIoRate(kGuestIoWindow),
      obsTrack_(this->name())
{
}

void
BackgroundCopy::noteMilestone(const char *what, double value)
{
    if (!obs::armed())
        return;
    obs::Tracer &t = obs::tracer();
    t.milestone(obsTrack_.id(t), what, now(), value);
}

void
BackgroundCopy::start()
{
    sim::panicIfNot(!running, "background copy started twice");
    running = true;
    retrieverLoop();
    if (!writerArmed)
        armWriter(pacedInterval());
}

void
BackgroundCopy::noteFetchTrouble()
{
    if (degradeShift < 6) {
        ++degradeShift;
        ++numDegrades;
        noteMilestone("copy.degrade",
                      static_cast<double>(degradeShift));
        sim::inform(name(), ": fetch trouble; pacing backed off to ",
                    sim::toMillis(pacedInterval()), " ms");
    }
}

void
BackgroundCopy::stop()
{
    running = false;
    retrieved.clear();
    stopSuspendPoll();
}

void
BackgroundCopy::armWriter(sim::Tick delay)
{
    writerArmed = true;
    schedule(delay, [this]() { writerWake(); });
}

void
BackgroundCopy::stopSuspendPoll()
{
    if (suspendPollActive) {
        eventQueue().cancel(suspendPoll);
        suspendPollActive = false;
        noteMilestone("copy.resume");
    }
}

void
BackgroundCopy::noteGuestIo()
{
    guestIoRate.record(now());
    // Only the moderation rate: the cursor follows the guest through
    // stashFetched(), not here.
}

void
BackgroundCopy::stashFetched(sim::Lba lba, std::uint32_t count,
                             const std::vector<std::uint64_t> &tokens)
{
    if (done || tokens.empty())
        return;
    // Copy-on-read data arriving means the fetch path works.
    degradeShift = 0;
    // Copy-on-read data (Fig. 1b: the VMM "also writes the data to
    // the local disk for future use"): queued for the writer thread,
    // which drains this queue with priority but under the same
    // moderation, so deployment work never competes with a booting
    // or I/O-active guest.
    // Coalesce with the previous stash block when contiguous (boot
    // reads often continue each other), halving the write count and
    // amortizing seeks.  Mixed-base fetches (overlay images via the
    // store tier) split into per-base runs.
    forEachTokenRun(
        lba, tokens,
        [this](sim::Lba rl, std::uint32_t rc, std::uint64_t rb) {
            if (!stashQueue.empty()) {
                Block &back = stashQueue.back();
                if (back.lba + back.count == rl &&
                    back.contentBase == rb &&
                    back.count + rc <= params.copyBlockSectors) {
                    back.count += rc;
                    return;
                }
            }
            stashQueue.push_back(Block{rl, rc, rb});
        });
    // Follow the guest's access pattern for subsequent retrieves.
    cursor = std::min<sim::Lba>(lba + count, imageSectors);
}

void
BackgroundCopy::retrieverLoop()
{
    if (!running || done || retrieverBusy)
        return;
    if (fifo.size() >= kCopyFifoDepth)
        return; // writer drains, then re-kicks us

    // How many contiguous copy blocks one fetch may span: up to the
    // FIFO's free room, at most half the FIFO, but only where a fetch
    // is one sequential AoE stream from the one image server (no
    // fetch alignment, no rate gate). There the server seeks once
    // per fetch, and with several nodes interleaving single blocks
    // nearly every 1 MiB paid a 12 ms seek: spans cut io_during_deploy
    // time to bare metal by about 24%. On the store path each fetch
    // already fans out per chunk to page-cached seeds and peers, so
    // a span saves no seek and only bunches the wave (deploy_storm:
    // 7-12% more seed bytes, 10x the AoE retransmits); under a rate
    // gate one 4 MiB booking bursts past serving traffic (abl_fleet's
    // shaped goodput falls below its 0.90 gate).
    std::size_t span = 1;
    if (!fetchAlign && !gate_)
        span = std::min(kCopyFifoDepth - fifo.size(), kCopyFifoDepth / 2);
    const sim::Lba maxSectors = span * params.copyBlockSectors;

    // Pick the next range to fetch at/after the cursor, wrapping
    // once; with a pick filter, first among the units it accepts.
    // Nothing left may still mean ranges are queued, not done.
    auto pick = [this, maxSectors](bool filtered) {
        auto b = nextToFetch(cursor, imageSectors, filtered, maxSectors);
        return b ? b : nextToFetch(0, cursor, filtered, maxSectors);
    };
    std::optional<sim::IntervalSet::Range> block;
    if (pickFilter) {
        block = pick(true);
        // Take rejected units only once the writer has run dry (its
        // next write re-kicks us): by then most have landed on a
        // peer.
        if (!block && !fifo.empty())
            return;
    }
    if (!block)
        block = pick(false);
    if (!block) {
        checkComplete();
        return;
    }
    sim::Lba lba = block->first;
    auto count =
        static_cast<std::uint32_t>(block->second - block->first);
    if (fetchAlign) {
        // Trim a boundary-crossing fetch so it ends on an alignment
        // boundary: successors then start chunk-aligned and the store
        // tier fans the span out one piece per chunk. Fetches inside
        // a single chunk (tail, or resuming behind a guest read) pass
        // through untouched.
        sim::Lba aligned_end = ((lba + count) / fetchAlign) * fetchAlign;
        if (aligned_end > lba)
            count = static_cast<std::uint32_t>(aligned_end - lba);
    }
    cursor = lba + count;
    retrieved.insert(lba, lba + count);

    retrieverBusy = true;
    if (gate_) {
        // Book the block against the shared deployment budget; a
        // congested lane pushes the issue into the future while the
        // retriever stays busy (no second pick races this one).
        sim::Tick start =
            gate_(sim::Bytes(count) * sim::kSectorSize, now());
        if (start > now()) {
            ++gateWaits_;
            schedule(start - now(), [this, lba, count]() {
                if (!running || done) {
                    retrieverBusy = false;
                    return;
                }
                issueFetch(lba, count);
            });
            return;
        }
    }
    issueFetch(lba, count);
}

std::optional<sim::IntervalSet::Range>
BackgroundCopy::nextToFetch(sim::Lba from, sim::Lba to, bool filtered,
                            sim::Lba maxSectors) const
{
    std::optional<sim::IntervalSet::Range> pick;
    if (from >= to)
        return pick;
    auto unit_end = [this](sim::Lba x) {
        return (x / fetchAlign + 1) * fetchAlign;
    };
    bool past = false; // the scan reached `to`
    bitmap.forEachEmpty(
        from, imageSectors - from, [&](sim::Lba s, sim::Lba e) {
            retrieved.forEachGap(s, e, [&](sim::Lba gs, sim::Lba ge) {
                // Skip the units the filter rejects; the block ends
                // at the next rejected one.
                sim::Lba pos = gs;
                while (filtered && pos < ge && pos < to &&
                       !pickFilter(pos - pos % fetchAlign))
                    pos = unit_end(pos);
                past = pos >= to;
                if (past || pos >= ge)
                    return !past;
                sim::Lba end = std::min<sim::Lba>(ge, pos + maxSectors);
                if (filtered) {
                    for (sim::Lba u = unit_end(pos); u < end;
                         u = unit_end(u)) {
                        if (!pickFilter(u)) {
                            end = u;
                            break;
                        }
                    }
                }
                pick.emplace(pos, end);
                return false;
            });
            return !pick && !past;
        });
    return pick;
}

void
BackgroundCopy::issueFetch(sim::Lba lba, std::uint32_t count)
{
    fetch(lba, count,
          [this, lba](const std::vector<std::uint64_t> &tokens) {
              retrieverBusy = false;
              // The fetch path answered: back to full-speed pacing.
              degradeShift = 0;
              if (!running || done)
                  return;
              // One FIFO entry per copy block, so a span is paced,
              // claimed and marked FILLED block by block.
              forEachTokenRun(
                  lba, tokens,
                  [this](sim::Lba rl, std::uint32_t rc,
                         std::uint64_t rb) {
                      for (sim::Lba b = rl; b < rl + rc;
                           b += params.copyBlockSectors) {
                          auto n = std::min<sim::Lba>(
                              params.copyBlockSectors, rl + rc - b);
                          fifo.push_back(Block{
                              b, static_cast<std::uint32_t>(n), rb});
                      }
                  });
              retrieverLoop();
          });
}

void
BackgroundCopy::writerWake()
{
    writerArmed = false;
    if (!running || done) {
        stopSuspendPoll();
        return;
    }

    // Moderation (§3.3): suspend while the guest is I/O-active. The
    // re-check runs on a periodic timer, so a long suspension costs
    // no per-poll scheduling work.
    if (guestIoRate.ratePerSec(now()) > mod.guestIoFreqThreshold) {
        ++numSuspends;
        writerArmed = true; // the poll below is the pending wake-up
        if (!suspendPollActive) {
            noteMilestone("copy.suspend",
                          static_cast<double>(numSuspends));
            suspendPollActive = true;
            suspendPoll =
                schedulePeriodic(mod.vmmWriteSuspendInterval,
                                 [this]() { writerWake(); });
        }
        return;
    }
    stopSuspendPoll();

    // One copy block's worth of sectors per interval; small
    // copy-on-read stash entries chain until the budget is used.
    roundBudget = params.copyBlockSectors;
    roundStart = now();
    tryWriteHead();
}

void
BackgroundCopy::tryWriteHead()
{
    if (!running || done)
        return;

    // Copy-on-read data first (already fetched and needed again
    // soonest), then fresh blocks from the retriever.
    while (!stashQueue.empty()) {
        if (bitmap.claimForVmmWrite(stashQueue.front().lba,
                                    stashQueue.front().count)) {
            fifo.push_front(stashQueue.front());
            stashQueue.pop_front();
            break;
        }
        stashQueue.pop_front();
        ++skipped;
    }

    // Drop blocks that lost the race with guest writes (§3.3: the
    // bitmap is checked atomically before the VMM writes).
    while (!fifo.empty() &&
           !bitmap.claimForVmmWrite(fifo.front().lba,
                                    fifo.front().count)) {
        // Partially or fully filled meanwhile: write only what is
        // still empty, as separate sub-blocks.
        Block b = fifo.front();
        fifo.pop_front();
        auto empty = bitmap.emptyRanges(b.lba, b.count);
        if (empty.empty()) {
            ++skipped;
            continue;
        }
        // Re-queue the still-empty sub-ranges at the front, in
        // order.
        for (auto it = empty.rbegin(); it != empty.rend(); ++it) {
            fifo.push_front(Block{
                it->first,
                static_cast<std::uint32_t>(it->second - it->first),
                b.contentBase});
        }
        break;
    }

    if (fifo.empty()) {
        retrieverLoop();
        armWriter(pacedInterval());
        return;
    }

    Block b = fifo.front();
    if (writeInFlight)
        return;

    // The write interval is measured between round *starts*: the
    // pacing knob controls the block issue rate, not idle gaps.
    bool accepted = mediator.vmmWrite(
        b.lba, b.count, b.contentBase, [this, b]() {
            writeInFlight = false;
            for (const WriteObserver &o : observers)
                o(b.lba, b.count);
            // FILLED only at completion: until the data is on disk,
            // reads must keep going to the server.
            bitmap.markFilled(b.lba, b.count);
            retrieved.erase(b.lba, b.lba + b.count);
            written += sim::Bytes(b.count) * sim::kSectorSize;
            roundBudget = roundBudget > b.count
                              ? roundBudget - b.count
                              : 0;
            checkComplete();
            if (done || !running)
                return;
            retrieverLoop();
            if (roundBudget > 0 &&
                (!stashQueue.empty() || !fifo.empty())) {
                // Round budget remains: keep writing queued data.
                tryWriteHead();
                return;
            }
            if (!writerArmed) {
                sim::Tick elapsed = now() - roundStart;
                sim::Tick interval = pacedInterval();
                armWriter(interval > elapsed ? interval - elapsed
                                             : 0);
            }
        });

    if (accepted) {
        writeInFlight = true;
        fifo.pop_front();
    } else {
        // Device busy with guest I/O: retry shortly (the mediator
        // queues nothing for us; we poll).  The retry poll backs
        // off with the same degradation exponent.
        armWriter(std::min<sim::Tick>(pacedInterval(),
                                      2 * sim::kMs << degradeShift));
    }
}

void
BackgroundCopy::checkComplete()
{
    if (done)
        return;
    if (bitmap.isFilled(0, imageSectors)) {
        done = true;
        running = false;
        noteMilestone("copy.complete",
                      static_cast<double>(written / sim::kMiB));
        sim::inform(name(), ": deployment copy complete (",
                    written / sim::kMiB, " MiB written by VMM)");
        if (onComplete)
            onComplete();
    }
}

} // namespace bmcast
