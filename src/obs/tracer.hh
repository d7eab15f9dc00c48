/**
 * @file
 * The span/event tracer of the observability subsystem (sim::obs).
 *
 * A Tracer records timestamped trace events — nestable spans, instant
 * events, async (sim-time-extended) spans, flow arrows and counter
 * samples — into a preallocated ring buffer. The design contract,
 * mirroring the unarmed FaultInjector:
 *
 *  - Disarmed, an instrumented hot path costs one branch on a cached
 *    global bool (obs::armed()); no tracer state is touched and runs
 *    are bit-identical to a build without instrumentation.
 *  - Armed, record() never allocates: the ring is preallocated and
 *    wraps (oldest records are overwritten, counted as dropped), and
 *    event/category names are interned `const char *`s whose storage
 *    is owned by the tracer. Tracks (one per component, mapped to
 *    Chrome trace "threads") are interned once per component through
 *    obs::Track, off the per-record path.
 *  - Tracing never schedules events, draws randomness, or mutates
 *    simulation state, so an armed run dispatches the exact same
 *    event sequence as a disarmed one (asserted by tests/obs_test.cc
 *    and enforced by bench/abl_obs.cc).
 *
 * Deployment milestones (category "deploy") additionally go to a
 * bounded side log that survives ring wrap; obs::RunReport
 * reconstructs per-instance deployment timelines from it.
 */

#ifndef OBS_TRACER_HH
#define OBS_TRACER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "simcore/types.hh"

namespace obs {

/** Trace record kinds (mapped to Chrome trace_event phases). */
enum class EventKind : std::uint8_t {
    SpanBegin,     ///< "B": synchronous nested span opens
    SpanEnd,       ///< "E": innermost open span on the track closes
    Instant,       ///< "i": point event
    AsyncBegin,    ///< "b": sim-time-extended operation starts (by id)
    AsyncEnd,      ///< "e": the operation identified by id completes
    FlowBegin,     ///< "s": flow arrow starts (request leaves a layer)
    FlowStep,      ///< "t": flow arrow passes through a layer
    FlowEnd,       ///< "f": flow arrow terminates (response delivered)
    CounterSample, ///< "C": sampled value of a named counter
};

/** One ring-buffer entry. Names are interned or static strings. */
struct TraceRecord
{
    sim::Tick ts = 0;
    std::uint64_t id = 0; //!< async/flow correlation id
    const char *cat = nullptr;
    const char *name = nullptr;
    double value = 0.0;
    std::uint32_t track = 0;
    EventKind kind = EventKind::Instant;
};

/** A deployment milestone (kept outside the ring; never overwritten). */
struct Milestone
{
    sim::Tick ts = 0;
    const char *name = nullptr;
    std::uint32_t track = 0;
    double value = 0.0;
};

/** The tracer. */
class Tracer
{
  public:
    /** Default ring capacity (records). */
    static constexpr std::size_t kDefaultCapacity = 1u << 18;
    /** Milestone side-log bound; beyond it milestones are counted
     *  but not stored (deployment timelines are small). */
    static constexpr std::size_t kMaxMilestones = 1u << 16;

    explicit Tracer(std::size_t capacity = kDefaultCapacity);
    ~Tracer();

    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    /**
     * Unique, monotonically increasing instance stamp. obs::Track
     * caches track ids keyed on it so a component constructed under
     * one tracer re-interns under the next instead of using a stale
     * id.
     */
    std::uint64_t epoch() const { return epoch_; }

    /** @name Setup paths (may allocate; not for per-event use) */
    /// @{

    /** Intern @p name as a track (Chrome "thread"); idempotent. */
    std::uint32_t track(const std::string &name);

    const std::string &trackName(std::uint32_t track) const;
    std::size_t numTracks() const { return trackNames_.size(); }
    /// @}

    /** @name Recording (hot paths; never allocate) */
    /// @{
    void
    spanBegin(std::uint32_t track, const char *cat, const char *name,
              sim::Tick ts)
    {
        ++depth_[track];
        put({ts, 0, cat, name, 0.0, track, EventKind::SpanBegin});
    }

    void
    spanEnd(std::uint32_t track, sim::Tick ts)
    {
        if (depth_[track] == 0)
            ++nestingViolations_;
        else
            --depth_[track];
        put({ts, 0, nullptr, nullptr, 0.0, track,
             EventKind::SpanEnd});
    }

    void
    instant(std::uint32_t track, const char *cat, const char *name,
            sim::Tick ts, double value = 0.0)
    {
        put({ts, 0, cat, name, value, track, EventKind::Instant});
    }

    void
    asyncBegin(std::uint32_t track, const char *cat, const char *name,
               std::uint64_t id, sim::Tick ts)
    {
        put({ts, id, cat, name, 0.0, track, EventKind::AsyncBegin});
    }

    void
    asyncEnd(std::uint32_t track, const char *cat, const char *name,
             std::uint64_t id, sim::Tick ts)
    {
        put({ts, id, cat, name, 0.0, track, EventKind::AsyncEnd});
    }

    void
    flowBegin(std::uint32_t track, const char *cat, const char *name,
              std::uint64_t id, sim::Tick ts)
    {
        put({ts, id, cat, name, 0.0, track, EventKind::FlowBegin});
    }

    void
    flowStep(std::uint32_t track, const char *cat, const char *name,
             std::uint64_t id, sim::Tick ts)
    {
        put({ts, id, cat, name, 0.0, track, EventKind::FlowStep});
    }

    void
    flowEnd(std::uint32_t track, const char *cat, const char *name,
            std::uint64_t id, sim::Tick ts)
    {
        put({ts, id, cat, name, 0.0, track, EventKind::FlowEnd});
    }

    void
    counter(std::uint32_t track, const char *name, sim::Tick ts,
            double value)
    {
        put({ts, 0, "counter", name, value, track,
             EventKind::CounterSample});
    }

    /**
     * Record a deployment milestone: an Instant in the ring (cat
     * "deploy") plus an entry in the bounded side log that survives
     * ring wrap. RunReport rebuilds timelines from the side log.
     */
    void
    milestone(std::uint32_t track, const char *name, sim::Tick ts,
              double value = 0.0)
    {
        put({ts, 0, "deploy", name, value, track, EventKind::Instant});
        if (milestones_.size() < kMaxMilestones)
            milestones_.push_back({ts, name, track, value});
        else
            ++milestonesDropped_;
    }
    /// @}

    /** @name Introspection */
    /// @{
    std::size_t capacity() const { return ring_.size(); }
    /** Records currently held (min(recorded, capacity)). */
    std::size_t
    size() const
    {
        return total_ < ring_.size() ? static_cast<std::size_t>(total_)
                                     : ring_.size();
    }
    /** Records ever recorded, including overwritten ones. */
    std::uint64_t recorded() const { return total_; }
    /** Records lost to ring wrap. */
    std::uint64_t
    dropped() const
    {
        return total_ - static_cast<std::uint64_t>(size());
    }

    /** Visit surviving records oldest-first. */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        const std::size_t n = size();
        const std::size_t cap = ring_.size();
        const std::size_t first = total_ > cap ? head_ : 0;
        for (std::size_t i = 0; i < n; ++i)
            fn(ring_[(first + i) % cap]);
    }

    const std::vector<Milestone> &milestones() const
    {
        return milestones_;
    }
    std::uint64_t milestonesDropped() const
    {
        return milestonesDropped_;
    }

    /** spanEnd() calls with no open span on the track. */
    std::uint64_t nestingViolations() const
    {
        return nestingViolations_;
    }
    /** Currently open spans on @p track. */
    std::uint32_t spanDepth(std::uint32_t track) const
    {
        return depth_[track];
    }
    /// @}

  private:
    void
    put(TraceRecord r)
    {
        ring_[head_] = r;
        head_ = head_ + 1 == ring_.size() ? 0 : head_ + 1;
        ++total_;
    }

    std::uint64_t epoch_;
    std::vector<TraceRecord> ring_;
    std::size_t head_ = 0;
    std::uint64_t total_ = 0;

    std::vector<std::string> trackNames_;
    std::vector<std::uint32_t> depth_;

    std::vector<Milestone> milestones_;
    std::uint64_t milestonesDropped_ = 0;
    std::uint64_t nestingViolations_ = 0;
};

} // namespace obs

#endif // OBS_TRACER_HH
