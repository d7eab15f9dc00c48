#include "simcore/stats.hh"

#include <cmath>

#include "obs/registry.hh"
#include "simcore/logging.hh"

namespace sim {

void
publishKernelCounters(obs::Registry &reg, const std::string &label,
                      const KernelCounters &k)
{
    reg.counter("kernel.scheduled", label).set(k.scheduled);
    reg.counter("kernel.executed", label).set(k.executed);
    reg.counter("kernel.cancelled", label).set(k.cancelled);
    reg.counter("kernel.tombstones_popped", label)
        .set(k.tombstonesPopped);
    reg.counter("kernel.spilled_callbacks", label)
        .set(k.spilledCallbacks);
    reg.counter("kernel.peak_pending", label).set(k.peakPending);
    reg.counter("kernel.wall_ns", label).set(k.wallNs);
    reg.gauge("kernel.wall_ns_per_m_events", label)
        .set(k.wallNsPerMillionExecuted());
}

void
Distribution::add(double sample)
{
    samples.push_back(sample);
    sorted = false;
    sum += sample;
    sumSq += sample * sample;
}

double
Distribution::mean() const
{
    return samples.empty() ? 0.0
                           : sum / static_cast<double>(samples.size());
}

double
Distribution::min() const
{
    ensureSorted();
    return samples.empty() ? 0.0 : samples.front();
}

double
Distribution::max() const
{
    ensureSorted();
    return samples.empty() ? 0.0 : samples.back();
}

double
Distribution::stddev() const
{
    if (samples.size() < 2)
        return 0.0;
    double n = static_cast<double>(samples.size());
    double var = (sumSq - sum * sum / n) / (n - 1.0);
    return var > 0.0 ? std::sqrt(var) : 0.0;
}

double
Distribution::percentile(double p) const
{
    if (samples.empty())
        return 0.0;
    panicIfNot(p >= 0.0 && p <= 100.0, "percentile out of range");
    ensureSorted();
    auto rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(samples.size())));
    if (rank > 0)
        --rank;
    if (rank >= samples.size())
        rank = samples.size() - 1;
    return samples[rank];
}

void
Distribution::reset()
{
    samples.clear();
    sorted = true;
    sum = 0.0;
    sumSq = 0.0;
}

void
Distribution::ensureSorted() const
{
    if (!sorted) {
        auto &mut = const_cast<std::vector<double> &>(samples);
        std::sort(mut.begin(), mut.end());
        const_cast<bool &>(sorted) = true;
    }
}

void
RateMeter::record(Tick now, double weight)
{
    expire(now);
    entries.emplace_back(now, weight);
    windowSum += weight;
}

double
RateMeter::ratePerSec(Tick now)
{
    expire(now);
    return windowSum / toSeconds(window);
}

void
RateMeter::expire(Tick now)
{
    Tick cutoff = now > window ? now - window : 0;
    while (!entries.empty() && entries.front().first < cutoff) {
        windowSum -= entries.front().second;
        entries.pop_front();
    }
    if (entries.empty())
        windowSum = 0.0;
}

} // namespace sim
