/**
 * @file
 * Arming facade for the observability subsystem.
 *
 * The simulator is instrumented unconditionally, but every probe is
 * gated on obs::armed() — an inline read of one thread-local bool
 * (thread-local so each shard of a sharded run can arm its own
 * tracer ring with no synchronization on the probe path). The
 * default state is disarmed: no Tracer exists, armed() is false, and
 * an instrumented run is bit-identical to an uninstrumented build
 * (asserted by tests and enforced by bench/abl_obs.cc).
 *
 * To arm, construct a Tracer and call obs::arm(&tracer); obs::disarm()
 * before the tracer dies. The bench harness does this when the
 * BMCAST_TRACE=<path> environment variable is set, writing a Chrome
 * trace_event JSON to <path> at teardown.
 *
 * Instrumentation idiom (hot path):
 *
 *     if (obs::armed()) {
 *         obs::Tracer &t = obs::tracer();
 *         t.instant(track_.id(t), "aoe", "retransmit", now());
 *     }
 *
 * obs::Track caches a component's interned track id keyed on the
 * tracer's epoch, so sequential Testbeds (each with its own Tracer)
 * cannot leak stale ids into each other.
 */

#ifndef OBS_OBS_HH
#define OBS_OBS_HH

#include <string>

#include "obs/registry.hh"
#include "obs/tracer.hh"

namespace obs {

namespace detail {
// Arming state is thread-local: a tracer's ring is written only by
// the thread that armed it, so sharded runs (sim::ShardGroup) can
// arm one tracer per shard worker and record concurrently with no
// synchronization on the probe path. Single-threaded use is
// unchanged — arm and probe happen on the same thread.
// constinit: every thread-local is constant-initialized, so other
// translation units read it directly instead of through the
// thread_local wrapper function (which UBSan flags as a null load).
using ClockFn = sim::Tick (*)(const void *);
extern constinit thread_local bool gArmed;
extern constinit thread_local Tracer *gTracer;
extern constinit thread_local ClockFn gClockFn;
extern constinit thread_local const void *gClockCtx;
extern constinit thread_local Registry *gMetrics;
extern constinit thread_local std::uint64_t gMetricsEpoch;
} // namespace detail

/** True when a tracer is installed on this thread. The only cost a
 *  disarmed probe pays (one thread-local bool read). */
inline bool
armed()
{
    return detail::gArmed;
}

/** The installed tracer. Only valid when armed(). */
inline Tracer &
tracer()
{
    return *detail::gTracer;
}

/** Install @p t as the calling thread's tracer (nullptr to disarm;
 *  disarming also clears the clock). A tracer armed on one thread
 *  must only be written by that thread. */
void arm(Tracer *t);

/** Equivalent to arm(nullptr). */
inline void
disarm()
{
    arm(nullptr);
}

/**
 * Install a sim-time source for probes in passive components that
 * have no EventQueue handle (mediators, ports). Captureless-lambda
 * friendly:
 *
 *     obs::setClock([](const void *p) {
 *         return static_cast<const sim::EventQueue *>(p)->now();
 *     }, &eq);
 */
void setClock(sim::Tick (*fn)(const void *), const void *ctx);

/** Current sim time per the installed clock (0 when none). Only
 *  meaningful while armed. */
inline sim::Tick
now()
{
    return detail::gClockFn != nullptr
               ? detail::gClockFn(detail::gClockCtx)
               : 0;
}

/** @name Global metrics registry
 * Like the tracer, a registry can be installed globally so
 * always-compiled probes (e.g. the AoE RTT histogram) can feed it;
 * probes gate on metricsOn() exactly as tracing gates on armed().
 * Producers cache metric handles keyed on metricsEpoch() — the
 * counter bumps on every setMetrics() call, invalidating handles
 * into dead registries. */
/// @{
inline bool
metricsOn()
{
    return detail::gMetrics != nullptr;
}

inline Registry &
metrics()
{
    return *detail::gMetrics;
}

inline std::uint64_t
metricsEpoch()
{
    return detail::gMetricsEpoch;
}

/** Install @p r as the global registry (nullptr to uninstall). */
void setMetrics(Registry *r);
/// @}

/**
 * Per-component track-id cache. Holds the component's track name and
 * lazily interns it in whichever tracer is armed, re-interning when
 * the tracer changes (epoch mismatch). id() is cheap after the first
 * call per tracer: one compare + branch.
 */
class Track
{
  public:
    explicit Track(std::string name) : name_(std::move(name)) {}

    std::uint32_t
    id(Tracer &t)
    {
        if (epoch_ != t.epoch()) {
            id_ = t.track(name_);
            epoch_ = t.epoch();
        }
        return id_;
    }

    const std::string &name() const { return name_; }

  private:
    std::string name_;
    std::uint64_t epoch_ = 0;
    std::uint32_t id_ = 0;
};

/**
 * RAII synchronous span; opens on construction, closes on
 * destruction. Both ends are recorded only if the tracer was armed
 * at construction, so arming cannot race a span's lifetime.
 *
 * Synchronous spans bracket work *within* one event callback; sim
 * time does not advance inside them, so their duration is zero and
 * their value is the nesting structure. Use asyncBegin/asyncEnd for
 * operations that take sim time.
 */
class ScopedSpan
{
  public:
    ScopedSpan(Track &track, const char *cat, const char *name,
               sim::Tick now)
    {
        if (armed()) {
            Tracer &t = tracer();
            track_ = track.id(t);
            ts_ = now;
            t.spanBegin(track_, cat, name, now);
            open_ = true;
        }
    }

    ~ScopedSpan()
    {
        if (open_ && armed())
            tracer().spanEnd(track_, ts_);
    }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    std::uint32_t track_ = 0;
    sim::Tick ts_ = 0;
    bool open_ = false;
};

} // namespace obs

#endif // OBS_OBS_HH
