/**
 * @file
 * The discrete-event simulation kernel.
 *
 * A single EventQueue orders closures by (tick, sequence). All simulated
 * components in one Machine (and across Machines in one experiment)
 * share one queue so that cross-machine interactions (network packets)
 * are globally ordered.
 *
 * Implementation: a two-band structure keyed by distance from now.
 *
 * Near band — a timer wheel (Varghese & Lauck) of kWheelSize
 * one-tick buckets with an occupancy bitmap. An event within
 * kWheelSize ticks of now is appended to the intrusive FIFO list of
 * its tick's bucket in O(1); finding the next event is a bitmap scan
 * (find-first-set over a few words). Because every bucket covers
 * exactly one tick, append order IS (tick, seq) dispatch order: the
 * hot path does no comparisons, no sifting and no sorting at all.
 * Trace counters show the bulk of real events (device completions,
 * poll cadences, preemption timers) land here.
 *
 * Far band — an indexed 4-ary min-heap over (tick, seq). Far events
 * pay the O(log n) sift once; by the time their tick comes into
 * view they are popped in order. A heap entry for tick T is always
 * FIFO-older than any wheel entry for T (scheduling it required
 * T - now >= kWheelSize, i.e. an earlier now), so cross-band
 * ordering is "heap first", with no seq exchanged between bands.
 *
 * Event records (the closures) live in a chunked slot pool recycled
 * through a free list; the chunks never move, so callbacks execute
 * in place (no per-dispatch closure copies) even when they schedule
 * further events. cancel() is an O(1) mark in either band — the
 * entry stays behind as a tombstone and is skipped (and counted)
 * when its tick is drained; when tombstones outnumber live entries
 * in the heap it is compacted in one O(n) sweep, so cancel-heavy
 * workloads (e.g. retransmission timers that almost always get
 * cancelled) cannot bloat it. Closures are stored in
 * sim::InlineCallback, so the common small captures never touch the
 * heap.
 *
 * API contract (relied upon across src/ and asserted by the property
 * test against a reference model):
 *  - events scheduled for the same tick run in scheduling order
 *    (stable FIFO; seq is the tiebreaker);
 *  - an EventId stays valid() after its event runs — valid() means
 *    "this handle ever referred to a scheduled event", not "is still
 *    pending";
 *  - cancel() returns true exactly once, and only if the event had
 *    not yet run: double-cancel and cancel-after-run return false by
 *    construction even after the internal slot has been reused,
 *    because handles carry a generation stamp that is bumped on every
 *    slot recycle.
 */

#ifndef SIMCORE_EVENT_QUEUE_HH
#define SIMCORE_EVENT_QUEUE_HH

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "simcore/inline_callback.hh"
#include "simcore/stats.hh"
#include "simcore/types.hh"

namespace sim {

/**
 * Handle for a scheduled event, usable to cancel it. Default-constructed
 * handles are inert. Handles are generation-stamped: they remain safe
 * to cancel() (returning false) after the event ran, was cancelled, or
 * its storage was recycled for another event.
 */
class EventId
{
  public:
    EventId() = default;

    /** True if this handle ever referred to a scheduled event. The
     *  flag persists after the event runs; use cancel()'s return
     *  value to learn whether the event was still pending. */
    bool valid() const { return gen != 0; }

  private:
    friend class EventQueue;

    EventId(std::uint32_t s, std::uint32_t g) : slot(s), gen(g) {}

    std::uint32_t slot = 0;
    std::uint32_t gen = 0;
};

/**
 * A priority queue of timestamped callbacks; the heart of the simulator.
 *
 * Events scheduled for the same tick run in scheduling order (stable).
 * Callbacks may schedule or cancel further events freely.
 */
class EventQueue
{
  public:
    using Callback = InlineCallback;

    /** Enables the zero-copy overloads for raw void() closures. */
    template <typename F>
    using EnableForClosure = std::enable_if_t<
        !std::is_same_v<std::decay_t<F>, Callback> &&
        std::is_invocable_r_v<void, std::decay_t<F> &>>;

    EventQueue() = default;
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;
    ~EventQueue();

    /** Current simulated time. */
    Tick now() const { return curTick; }

    /**
     * Schedule a callback @p delay ticks in the future.
     * @return a handle usable with cancel().
     */
    EventId schedule(Tick delay, Callback cb);

    /** Schedule a callback at an absolute tick (>= now). */
    EventId scheduleAt(Tick when, Callback cb);

    /**
     * Schedule a drift-free periodic callback: first firing at
     * now + @p interval, then every @p interval ticks after the
     * previous firing's timestamp. The closure is stored once and
     * reused, so a periodic event allocates nothing per firing.
     * The handle stays cancellable across firings; cancel() (also
     * from within the callback itself) stops the cycle.
     */
    EventId schedulePeriodic(Tick interval, Callback cb);

    /**
     * Zero-copy overloads: a raw closure is constructed directly in
     * the event's pooled slot — no intermediate Callback object, no
     * moves. Overload resolution prefers these for lambdas; the
     * Callback overloads above still serve pre-built callbacks.
     */
    template <typename F, typename = EnableForClosure<F>>
    EventId
    schedule(Tick delay, F &&f)
    {
        return scheduleAt(curTick + delay, std::forward<F>(f));
    }

    template <typename F, typename = EnableForClosure<F>>
    EventId
    scheduleAt(Tick when, F &&f)
    {
        std::uint32_t idx = beginPost(when, 0);
        slotRef(idx).cb.emplace(std::forward<F>(f));
        return finishPost(when, idx);
    }

    template <typename F, typename = EnableForClosure<F>>
    EventId
    schedulePeriodic(Tick interval, F &&f)
    {
        std::uint32_t idx = beginPeriodicPost(interval);
        slotRef(idx).cb.emplace(std::forward<F>(f));
        return finishPost(curTick + interval, idx);
    }

    /**
     * Cancel a previously scheduled event.
     * @retval true the event was pending and has been removed.
     * @retval false the event already ran, was cancelled, or is inert.
     */
    bool cancel(const EventId &id);

    /** True if no events are pending. */
    bool empty() const { return livePending == 0; }

    /** Number of pending events (tombstones excluded). */
    std::size_t pending() const { return livePending; }

    /**
     * Run events until the queue is empty or @p limit is reached.
     * Time stops at the last executed event (or at @p limit if given
     * and reached).
     * @return number of events executed.
     */
    std::uint64_t run(Tick limit = ~Tick(0));

    /**
     * Run all events with tick <= @p when, then set time to @p when.
     * @return number of events executed.
     */
    std::uint64_t runUntil(Tick when);

    /** Execute exactly one event if any is pending. */
    bool step();

    /**
     * Execute events one at a time while @p more() holds (checked
     * before each event) and the queue is not empty: the entry point
     * for predicate-driven loops. Unlike bare step() calls, the loop's
     * wall time counts toward counters().wallNs, once per call.
     * @return number of events executed.
     */
    template <typename Pred>
    std::uint64_t
    stepWhile(Pred &&more)
    {
        const auto wallStart = std::chrono::steady_clock::now();
        std::uint64_t n = 0;
        while (more() && !empty() && step())
            ++n;
        counters_.wallNs += static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - wallStart)
                .count());
        return n;
    }

    /** Total events executed over the queue's lifetime. */
    std::uint64_t executed() const { return counters_.executed; }

    /** Kernel performance counters (see sim::KernelCounters). */
    const KernelCounters &counters() const { return counters_; }

  private:
    /**
     * Heap element: 16-byte POD ordered by (when, seq); the closure
     * lives in the slot pool. seq is 32-bit to keep the entry at two
     * words (a 4-child sibling group spans one cache line); the
     * queue renumbers live seqs in one O(n log n) sweep before the
     * counter can wrap, so FIFO order is exact at any event count.
     * No generation stamp is needed here: a slot is freed only when
     * its (single) heap entry is reclaimed, so an entry's slot can
     * never have been recycled while the entry is still in the heap.
     */
    struct HeapEntry
    {
        Tick when;
        std::uint32_t seq;
        std::uint32_t slot;
    };

    enum class SlotState : std::uint8_t { Free, Pending, Cancelled };

    /** Pooled event record; recycled through a free list. */
    struct Slot
    {
        Callback cb;
        Tick period = 0; //!< 0 = one-shot
        std::uint32_t gen = 1;
        std::uint32_t nextFree = kNoSlot;
        /** Intrusive link in the wheel bucket's FIFO list. */
        std::uint32_t nextEvent = kNoSlot;
        SlotState state = SlotState::Free;
        /** A periodic callback is running right now: cancel() must
         *  not destroy the closure under its own feet (dispatch
         *  finishes the teardown). */
        bool executing = false;
        /** Pending in a wheel bucket (vs the overflow heap); steers
         *  cancel()'s tombstone accounting. */
        bool inWheel = false;
    };

    static constexpr std::uint32_t kNoSlot = ~std::uint32_t(0);

    /** Wheel geometry: one-tick buckets, so a bucket's list is a
     *  single tick's FIFO cohort. 4096 buckets cover every delay
     *  shorter than kWheelSize ticks. */
    static constexpr std::size_t kWheelBits = 12;
    static constexpr std::size_t kWheelSize = std::size_t(1)
                                              << kWheelBits;
    static constexpr std::size_t kWheelMask = kWheelSize - 1;
    static constexpr std::size_t kWheelWords = kWheelSize / 64;

    /** Slots live in fixed chunks so growing the pool never moves a
     *  live Slot — the address a callback executes at stays stable
     *  even if the callback schedules new events. */
    static constexpr std::uint32_t kChunkShift = 8;
    static constexpr std::uint32_t kChunkSize = 1u << kChunkShift;
    static constexpr std::uint32_t kChunkMask = kChunkSize - 1;

    /** Min-heap order on (when, seq): seq breaks ties so same-tick
     *  events keep scheduling (FIFO) order. Bitwise (non-short-
     *  circuit) form on purpose: heap keys are effectively random,
     *  so a branchy compare mispredicts on nearly every sift step —
     *  this form compiles to flag ops the sift loops can consume
     *  with conditional moves. */
    static bool
    before(const HeapEntry &a, const HeapEntry &b)
    {
        return (a.when < b.when) |
               ((a.when == b.when) & (a.seq < b.seq));
    }

    Slot &
    slotRef(std::uint32_t idx)
    {
        return chunks[idx >> kChunkShift][idx & kChunkMask];
    }

    /** Route a pending slot to the wheel (near) or heap (far). */
    void postEntry(Tick when, std::uint32_t slot);
    /** Append to @p when's bucket list (when - now < kWheelSize). */
    void wheelAppend(Tick when, std::uint32_t slot);
    /** Tick of the earliest occupied bucket, if any (bitmap scan). */
    bool wheelNextTick(Tick &out) const;
    /** Unlink and return the head of @p t's bucket (kNoSlot if
     *  empty), maintaining tail pointer and occupancy bit. */
    std::uint32_t wheelPopFront(Tick t);
    /** Reclaim a cancelled entry drained from a wheel bucket. */
    void reclaimWheelTombstone(std::uint32_t slot);

    EventId post(Tick when, Tick period, Callback cb);
    /** Validate @p when and allocate a slot primed with @p period. */
    std::uint32_t beginPost(Tick when, Tick period);
    /** beginPost for a periodic event (validates the interval). */
    std::uint32_t beginPeriodicPost(Tick interval);
    /** Push the heap entry and update counters; returns the handle. */
    EventId finishPost(Tick when, std::uint32_t idx);
    std::uint32_t allocSlot();
    void freeSlot(std::uint32_t idx);
    void push(Tick when, std::uint32_t slot);
    HeapEntry popTop();
    void siftUp(std::size_t i);
    void siftDown(std::size_t i);
    /** Re-assign dense seqs in heap order (runs before seq wrap). */
    void renumberSeqs();
    /** Drop tombstones from the heap top; true if a live entry
     *  remains. */
    bool settleTop();
    /** Remove and reclaim a tombstone that was just popped. */
    void reclaimTombstone(const HeapEntry &dead);
    /** One O(n) sweep dropping every tombstone, then re-heapify. */
    void compactHeap();
    /** Pull every live entry with when == @p t out of the heap in
     *  one sweep (appended to @p out unordered), reclaiming
     *  tombstones on the way, then re-heapify what remains. */
    void extractTick(Tick t, std::vector<HeapEntry> &out);
    /** Dispatch one popped live entry (caller advanced curTick). */
    void dispatch(const HeapEntry &e);

    Tick curTick = 0;
    std::uint32_t nextSeq = 1;
    std::size_t livePending = 0;

    /** Wheel bucket lists (slot indices) and occupancy bitmap. */
    std::vector<std::uint32_t> bucketHead =
        std::vector<std::uint32_t>(kWheelSize, kNoSlot);
    std::vector<std::uint32_t> bucketTail =
        std::vector<std::uint32_t>(kWheelSize, kNoSlot);
    std::vector<std::uint64_t> wheelOcc =
        std::vector<std::uint64_t>(kWheelWords, 0);

    std::vector<HeapEntry> heap;
    std::vector<std::unique_ptr<Slot[]>> chunks;
    std::uint32_t slotCount = 0;
    std::uint32_t freeHead = kNoSlot;

    /** Estimate of tombstone entries still in the heap; drives
     *  compaction. Approximate by design (a cancel hitting an entry
     *  already drained into the same-tick batch over-counts by one),
     *  so it is clamped rather than trusted exactly. */
    std::size_t deadInHeap = 0;

    /** Same-tick batch scratch, reused across run() iterations. */
    std::vector<HeapEntry> batch;

    KernelCounters counters_;

    /** obs track cache for dispatch spans (plain ints so this header
     *  needs no obs include); revalidated against the armed tracer's
     *  epoch in dispatch(). */
    std::uint64_t obsEpoch_ = 0;
    std::uint32_t obsTrack_ = 0;
};

} // namespace sim

#endif // SIMCORE_EVENT_QUEUE_HH
