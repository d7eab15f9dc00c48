/**
 * @file
 * Background copy (paper §3.3): actively fills EMPTY local-disk
 * blocks with image data from the server.
 *
 * Two cooperating "threads" connected by a FIFO queue:
 *  - the *retriever* fetches blocks over the extended AoE protocol
 *    (rates differ between network and disk, hence the queue);
 *  - the *writer* pops blocks and writes them to the local disk via
 *    the device mediator's I/O multiplexing, pacing itself by the
 *    moderation policy: if guest I/O frequency exceeds the threshold
 *    it sleeps for the suspend interval, otherwise it writes one
 *    block per write interval.
 *
 * On the single-server path (no fetch alignment, no rate gate) one
 * fetch spans up to half the FIFO of contiguous blocks, so the
 * server seeks once per span; the fetched span enters the FIFO as
 * single blocks.
 *
 * Blocks are filled from low to high LBA, but copy-on-read data
 * handed over by stashFetched() moves the cursor past the guest's
 * read, so the retriever continues where the guest is reading. The
 * consistency rule: the writer claims a block against the bitmap
 * immediately before writing; any block the guest wrote (marked
 * FILLED at command issue) is skipped.
 *
 * Every image byte is fetched once: a block stays EMPTY in the
 * bitmap until its write completes, so the retriever also remembers
 * the ranges it has fetched or is fetching and never re-picks them
 * while they wait in the FIFO, even when the cursor moves back over
 * them or the pick wraps.
 *
 * An optional pick filter orders work across the nodes of a deploy
 * wave: the retriever first takes the first run of fetch-alignment
 * units the filter accepts (cursor, then wrap). Only when none is
 * left and the FIFO has run dry does it fall back to the unfiltered
 * pick, so a filter can delay a range but never strand it.
 */

#ifndef BMCAST_BACKGROUND_COPY_HH
#define BMCAST_BACKGROUND_COPY_HH

#include <deque>
#include <functional>
#include <optional>
#include <vector>

#include "bmcast/block_bitmap.hh"
#include "bmcast/params.hh"
#include "obs/obs.hh"
#include "simcore/logging.hh"
#include "simcore/sim_object.hh"
#include "simcore/stats.hh"

namespace bmcast {

class MediationCore;

/** The engine. */
class BackgroundCopy : public sim::SimObject
{
  public:
    using FetchFn = std::function<void(
        sim::Lba, std::uint32_t,
        std::function<void(const std::vector<std::uint64_t> &)>)>;

    /**
     * @param fetchAlignSectors when non-zero, retriever fetches never
     *        cross a multiple of it (the VMM passes the store chunk
     *        size when fetches go through the streamer, so every
     *        fetch maps to whole chunks); zero = unaligned blocks.
     */
    BackgroundCopy(sim::EventQueue &eq, std::string name,
                   const VmmParams &params, MediationCore &mediator,
                   BlockBitmap &bitmap, FetchFn fetch,
                   sim::Lba imageSectors, std::uint32_t fetchAlignSectors,
                   std::function<void()> onComplete);

    /** Begin retrieving and writing. */
    void start();

    /** Stop both threads (deployment aborted or finished). */
    void stop();

    /** Copy-on-read hands fetched data over for a lazy local write
     *  ("for future use", §3.1). */
    void stashFetched(sim::Lba lba, std::uint32_t count,
                      const std::vector<std::uint64_t> &tokens);

    /** Mediators report each guest I/O (moderation rate meter). */
    void noteGuestIo();

    /**
     * Bind a deployment-bandwidth gate (cloud congestion control):
     * every retriever fetch books its bytes through the gate and is
     * deferred to the returned tick. Unset = unshaped, the exact
     * historical event sequence.
     */
    void setRateGate(sim::RateGate g) { gate_ = std::move(g); }

    /**
     * Prefer ranges whose fetch-alignment unit (identified by its
     * first LBA) @p accept takes. The VMM binds the store tier's
     * claim check here; unset = the plain cursor-then-wrap pick.
     * Needs a non-zero fetch alignment.
     */
    using PickFilter = std::function<bool(sim::Lba unit)>;
    void setPickFilter(PickFilter accept)
    {
        sim::panicIfNot(fetchAlign != 0, "pick filter without units");
        pickFilter = std::move(accept);
    }

    /** Live-tune the write interval (Fig. 14 sweep). */
    void setWriteInterval(sim::Tick t) { mod.vmmWriteInterval = t; }
    /** Disable the guest-I/O-frequency suspension (Fig. 14). */
    void disableFreqThreshold() { mod.guestIoFreqThreshold = 1e18; }

    /**
     * Graceful degradation: the VMM reports sustained fetch trouble
     * (AoE retry budgets exhausting) and the writer doubles its
     * pacing interval, up to 64x, instead of spinning on a dead
     * fetch path.  Any successfully completed fetch resets the
     * backoff to full speed.
     */
    void noteFetchTrouble();

    /**
     * Observe every completed VMM background write (before the
     * bitmap marks it FILLED), in the order the observers were
     * added. The VMM adds the store tier's peer-source registration;
     * tests add checks of the no-duplicate-write invariant across
     * failovers.
     */
    using WriteObserver = std::function<void(sim::Lba, std::uint32_t)>;
    void addWriteObserver(WriteObserver o)
    {
        observers.push_back(std::move(o));
    }

    bool complete() const { return done; }
    sim::Bytes bytesWritten() const { return written; }
    std::uint64_t blocksSkipped() const { return skipped; }
    std::uint64_t suspensions() const { return numSuspends; }
    std::size_t fifoDepth() const { return fifo.size(); }
    /** Fetches the rate gate pushed into the future. */
    std::uint64_t gateWaits() const { return gateWaits_; }
    /** Times the pacing was slowed by fetch trouble. */
    std::uint64_t degradeEvents() const { return numDegrades; }
    /** Current pacing backoff exponent (0 = full speed). */
    unsigned backoffShift() const { return degradeShift; }

  private:
    struct Block
    {
        sim::Lba lba;
        std::uint32_t count;
        std::uint64_t contentBase;
    };

    void retrieverLoop();
    /** The first range starting in [from, to) that is EMPTY and not
     *  already retrieved, at most @p maxSectors long; @p filtered
     *  also skips, and ends the range at, units the pick filter
     *  rejects. */
    std::optional<sim::IntervalSet::Range>
    nextToFetch(sim::Lba from, sim::Lba to, bool filtered,
                sim::Lba maxSectors) const;
    /** Issue the fetch the retriever picked (after any gate delay). */
    void issueFetch(sim::Lba lba, std::uint32_t count);
    void writerWake();
    void tryWriteHead();
    void checkComplete();
    /** One-shot writer wake-up @p delay ticks out. */
    void armWriter(sim::Tick delay);
    void stopSuspendPoll();
    /** Record an obs moderation milestone (no-op when disarmed). */
    void noteMilestone(const char *what, double value = 0.0);
    /** The write interval scaled by the degradation backoff. */
    sim::Tick pacedInterval() const
    {
        return mod.vmmWriteInterval << degradeShift;
    }

    const VmmParams &params;
    ModerationParams mod;
    MediationCore &mediator;
    BlockBitmap &bitmap;
    FetchFn fetch;
    PickFilter pickFilter;
    sim::RateGate gate_;
    sim::Lba imageSectors;
    std::uint32_t fetchAlign;
    std::function<void()> onComplete;

    std::deque<Block> fifo;
    /** Ranges the retriever has fetched or is fetching whose write
     *  has not completed (in flight, in the FIFO, or being written).
     *  Ranges a guest write FILLED meanwhile may linger; the bitmap
     *  rules them out anyway. */
    sim::IntervalSet retrieved;
    /** Copy-on-read persistence queue (drained with priority by the
     *  writer thread; §3.1 Fig. 1b). */
    std::deque<Block> stashQueue;
    bool retrieverBusy = false;
    bool writerArmed = false;
    bool writeInFlight = false;
    bool running = false;
    bool done = false;

    /** While the guest is I/O-active the writer suspends and polls
     *  the rate on this periodic timer instead of re-scheduling
     *  one-shot wake-ups (§3.3 moderation). */
    sim::EventId suspendPoll;
    bool suspendPollActive = false;

    sim::Lba cursor = 0;
    /** Sectors still to write in the current interval round (one
     *  copy block per interval; small stash entries chain until the
     *  round budget is used). */
    std::uint32_t roundBudget = 0;
    sim::Tick roundStart = 0;
    sim::RateMeter guestIoRate;

    std::vector<WriteObserver> observers;
    /** Fetch-trouble backoff exponent (capped at 6, i.e. 64x). */
    unsigned degradeShift = 0;

    sim::Bytes written = 0;
    std::uint64_t skipped = 0;
    std::uint64_t gateWaits_ = 0;
    std::uint64_t numSuspends = 0;
    std::uint64_t numDegrades = 0;

    obs::Track obsTrack_;
};

} // namespace bmcast

#endif // BMCAST_BACKGROUND_COPY_HH
