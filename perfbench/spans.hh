/**
 * @file
 * The benchmark's own trace, recorded into two private obs::Tracer
 * instances that are never armed globally (so the simulator's own
 * instrumentation stays off and a traced run simulates exactly what
 * an untraced one does):
 *
 *  - calls: one nested span around every call the benchmark makes
 *    into a layer's public API, category = the layer, timestamps in
 *    host nanoseconds;
 *  - phases: one async span per lease per phase, id = the lease id,
 *    timestamps in simulated ticks.
 *
 * Both are written as Chrome trace_event JSON when the run ends. A
 * disarmed Probes records nothing: each scope costs one branch.
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "obs/chrome_trace.hh"
#include "obs/tracer.hh"

namespace perfbench {

class Probes
{
  public:
    /** Ring capacities (records) for one scenario. */
    static constexpr std::size_t kCallRecords = 1u << 17;
    static constexpr std::size_t kPhaseRecords = 1u << 13;

    /** Closes its call span on destruction. */
    class Scope
    {
      public:
        Scope(Probes *p, const char *name, const char *layer)
            : p_(p && p->armed() ? p : nullptr)
        {
            if (p_)
                p_->calls_->spanBegin(p_->callTrack_, layer, name,
                                      p_->nowNs());
        }
        ~Scope()
        {
            if (p_)
                p_->calls_->spanEnd(p_->callTrack_, p_->nowNs());
        }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Probes *p_;
    };

    void
    arm()
    {
        calls_ = std::make_unique<obs::Tracer>(kCallRecords);
        phases_ = std::make_unique<obs::Tracer>(kPhaseRecords);
        callTrack_ = calls_->track("benchmark calls");
        phaseTrack_ = phases_->track("leases");
        origin_ = std::chrono::steady_clock::now();
    }

    bool armed() const { return calls_ != nullptr; }

    /** One simulated-time phase of lease @p leaseId. */
    void
    phase(const char *name, std::uint64_t leaseId, sim::Tick start,
          sim::Tick end)
    {
        if (!armed())
            return;
        phases_->asyncBegin(phaseTrack_, "lease", name, leaseId, start);
        phases_->asyncEnd(phaseTrack_, "lease", name, leaseId, end);
    }

    /** Records lost to ring wrap; the derived metrics need none. */
    std::uint64_t
    dropped() const
    {
        return armed() ? calls_->dropped() + phases_->dropped() : 0;
    }

    /** Call spans recorded. */
    std::size_t
    spanCount() const
    {
        std::size_t n = 0;
        if (armed())
            calls_->forEach([&n](const obs::TraceRecord &r) {
                n += r.kind == obs::EventKind::SpanBegin;
            });
        return n;
    }

    /** Host nanoseconds per layer not covered by nested calls. */
    std::map<std::string, double>
    selfNsByLayer() const
    {
        std::map<std::string, double> out;
        forEachSpan([&out](const char *, const char *layer,
                           std::int64_t total, std::int64_t child) {
            out[layer] += static_cast<double>(total - child);
        });
        return out;
    }

    /** Mean host microseconds of the calls whose name starts with
     *  @p prefix (0 when none). */
    double
    meanUs(const std::string &prefix) const
    {
        double sum = 0.0;
        std::size_t n = 0;
        forEachSpan([&](const char *name, const char *, std::int64_t total,
                        std::int64_t) {
            if (std::string(name).rfind(prefix, 0) == 0) {
                sum += static_cast<double>(total);
                ++n;
            }
        });
        return n ? sum / static_cast<double>(n) / 1e3 : 0.0;
    }

    /** Write <base>.calls.trace.json and <base>.phases.trace.json. */
    bool
    write(const std::string &base) const
    {
        return armed() &&
               obs::writeChromeTraceFile(base + ".calls.trace.json",
                                         *calls_) &&
               obs::writeChromeTraceFile(base + ".phases.trace.json",
                                         *phases_);
    }

  private:
    /** Visit every closed call span: name, layer, its duration and
     *  the time spent in calls nested inside it (host ns). */
    template <typename Fn>
    void
    forEachSpan(Fn &&fn) const
    {
        if (!armed())
            return;
        struct Open
        {
            const char *name;
            const char *layer;
            sim::Tick start;
            std::int64_t child;
        };
        std::vector<Open> stack;
        calls_->forEach([&](const obs::TraceRecord &r) {
            if (r.kind == obs::EventKind::SpanBegin) {
                stack.push_back({r.name, r.cat, r.ts, 0});
            } else if (r.kind == obs::EventKind::SpanEnd &&
                       !stack.empty()) {
                const Open o = stack.back();
                stack.pop_back();
                const auto total = static_cast<std::int64_t>(r.ts - o.start);
                if (!stack.empty())
                    stack.back().child += total;
                fn(o.name, o.layer, total, o.child);
            }
        });
    }

    sim::Tick
    nowNs() const
    {
        return static_cast<sim::Tick>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - origin_)
                .count());
    }

    std::unique_ptr<obs::Tracer> calls_;
    std::unique_ptr<obs::Tracer> phases_;
    std::uint32_t callTrack_ = 0;
    std::uint32_t phaseTrack_ = 0;
    std::chrono::steady_clock::time_point origin_;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH
