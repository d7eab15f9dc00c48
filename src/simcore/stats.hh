/**
 * @file
 * Statistics primitives: kernel counters, distributions and windowed
 * rates. These back both the in-simulation moderation logic
 * (e.g. guest-I/O frequency measurement) and the benchmark reports.
 */

#ifndef SIMCORE_STATS_HH
#define SIMCORE_STATS_HH

#include <algorithm>
#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "simcore/types.hh"

namespace obs {
class Registry;
} // namespace obs

namespace sim {

/**
 * Per-queue performance counters of the simulation kernel. Kept by
 * EventQueue and printed by the bench harness; wall time is
 * accumulated around run()/runUntil() only, so it measures the
 * event-dispatch hot loop rather than setup code.
 */
struct KernelCounters
{
    std::uint64_t scheduled = 0;        //!< events ever scheduled
    std::uint64_t executed = 0;         //!< callbacks dispatched
    std::uint64_t cancelled = 0;        //!< successful cancel() calls
    std::uint64_t tombstonesPopped = 0; //!< lazily-removed entries
    std::uint64_t spilledCallbacks = 0; //!< closures too big to inline
    std::uint64_t peakPending = 0;      //!< high-water pending events
    std::uint64_t wallNs = 0;           //!< wall time in run()/stepWhile()

    /** Wall nanoseconds per million executed events (0 if none). */
    double
    wallNsPerMillionExecuted() const
    {
        if (executed == 0)
            return 0.0;
        return static_cast<double>(wallNs) * 1e6 /
               static_cast<double>(executed);
    }
};

/**
 * Publish a KernelCounters snapshot into @p reg under "kernel.*"
 * metrics labelled @p label. All stat reporting (bench harness,
 * BMCAST_KERNEL_STATS dump) renders from the registry; the kernel
 * keeps its native struct so the hot path stays untouched.
 */
void publishKernelCounters(obs::Registry &reg,
                           const std::string &label,
                           const KernelCounters &k);

/**
 * Collects samples and reports summary statistics (mean, min, max,
 * percentiles). Samples are kept; intended for up to a few million
 * entries per experiment.
 */
class Distribution
{
  public:
    void add(double sample);

    std::size_t count() const { return samples.size(); }
    double mean() const;
    double min() const;
    double max() const;
    double stddev() const;
    /** p in [0, 100]; nearest-rank percentile. */
    double percentile(double p) const;
    void reset();

  private:
    /** Sort samples lazily before order statistics. */
    void ensureSorted() const;

    std::vector<double> samples;
    mutable bool sorted = true;
    double sum = 0.0;
    double sumSq = 0.0;
};

/**
 * Sliding-window event-rate meter. Used by the background-copy
 * moderator to measure guest I/O frequency (events per second over the
 * last @p window ticks).
 */
class RateMeter
{
  public:
    explicit RateMeter(Tick window) : window(window) {}

    /** Record one event at time @p now. */
    void record(Tick now, double weight = 1.0);

    /** Events (weighted) per second over the trailing window. */
    double ratePerSec(Tick now);

  private:
    void expire(Tick now);

    Tick window;
    std::deque<std::pair<Tick, double>> entries;
    double windowSum = 0.0;
};

} // namespace sim

#endif // SIMCORE_STATS_HH
