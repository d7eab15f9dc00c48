/**
 * @file
 * Metrics registry: named counters, gauges, and log-linear histograms
 * with label sets.
 *
 * The registry is the single queryable source of truth for run
 * statistics. Producers either hold a handle (Counter&/Gauge&/
 * Histogram& — stable for the registry's lifetime, std::map nodes
 * never move) and update it on the hot path, or keep their cheap
 * native counters and *publish* them into a registry at snapshot
 * time (the pattern used for KernelCounters and MediatorStats, which
 * preserves bit-identical disarmed runs). Consumers print an aligned
 * table or dump a JSON snapshot; the three formerly duplicated
 * stat-printing paths (bench harness, BMCAST_KERNEL_STATS dump,
 * simcore tables) all render through here.
 *
 * Histograms are log-linear (HDR-style): each power-of-two octave is
 * split into 16 linear sub-buckets, giving <= 6.25% relative error
 * over the full uint64 range in 976 buckets (~8 KiB). record() is
 * allocation-free.
 */

#ifndef OBS_REGISTRY_HH
#define OBS_REGISTRY_HH

#include <array>
#include <bit>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>

namespace obs {

/** Monotonic event count. */
struct Counter
{
    std::uint64_t value = 0;

    void add(std::uint64_t n = 1) { value += n; }
    void set(std::uint64_t v) { value = v; }
};

/** Point-in-time level. */
struct Gauge
{
    double value = 0.0;

    void set(double v) { value = v; }
};

/** Log-linear histogram of uint64 samples. */
class Histogram
{
  public:
    static constexpr unsigned kSubBucketBits = 4;
    static constexpr unsigned kSubBuckets = 1u << kSubBucketBits;
    /** Octaves 4..63 contribute 16 buckets each on top of the 16
     *  exact values 0..15: ((63 - 3) << 4) + 15 + 1. */
    static constexpr std::size_t kNumBuckets =
        ((63 - (kSubBucketBits - 1)) << kSubBucketBits) + kSubBuckets;

    /** Bucket holding @p v. Values 0..15 get exact buckets. */
    static constexpr std::size_t
    bucketIndex(std::uint64_t v)
    {
        if (v < kSubBuckets)
            return static_cast<std::size_t>(v);
        const unsigned octave = std::bit_width(v) - 1;
        const unsigned sub =
            (v >> (octave - kSubBucketBits)) & (kSubBuckets - 1);
        return ((octave - (kSubBucketBits - 1))
                << kSubBucketBits) +
               sub;
    }

    /** Smallest value mapping to bucket @p idx. */
    static constexpr std::uint64_t
    lowerBound(std::size_t idx)
    {
        if (idx < kSubBuckets)
            return idx;
        const unsigned octave =
            static_cast<unsigned>(idx >> kSubBucketBits) +
            (kSubBucketBits - 1);
        const std::uint64_t sub = idx & (kSubBuckets - 1);
        return (kSubBuckets + sub) << (octave - kSubBucketBits);
    }

    void
    record(std::uint64_t v)
    {
        ++counts_[bucketIndex(v)];
        ++count_;
        sum_ += v;
        if (v < min_)
            min_ = v;
        if (v > max_)
            max_ = v;
    }

    std::uint64_t count() const { return count_; }
    std::uint64_t min() const { return count_ ? min_ : 0; }
    std::uint64_t max() const { return max_; }
    double
    mean() const
    {
        return count_ ? static_cast<double>(sum_) /
                            static_cast<double>(count_)
                      : 0.0;
    }

    /**
     * Value at quantile @p q in [0, 1]: the lower bound of the
     * bucket containing the q-th sample (deterministic, biased at
     * most one bucket low).
     */
    std::uint64_t quantile(double q) const;

  private:
    std::array<std::uint64_t, kNumBuckets> counts_{};
    std::uint64_t count_ = 0;
    std::uint64_t sum_ = 0;
    std::uint64_t min_ = ~0ULL;
    std::uint64_t max_ = 0;
};

/** The registry. */
class Registry
{
  public:
    /** Find-or-create. References stay valid for the registry's
     *  lifetime. @p label distinguishes instances of one metric
     *  (e.g. counter("mediator.vmm_ops", "ide")). */
    Counter &counter(const std::string &name,
                     const std::string &label = "");
    Gauge &gauge(const std::string &name,
                 const std::string &label = "");
    Histogram &histogram(const std::string &name,
                         const std::string &label = "");

    /** Lookup without creation; nullptr when absent. */
    const Counter *findCounter(const std::string &name,
                               const std::string &label = "") const;
    const Gauge *findGauge(const std::string &name,
                           const std::string &label = "") const;
    const Histogram *
    findHistogram(const std::string &name,
                  const std::string &label = "") const;

    std::size_t size() const
    {
        return counters_.size() + gauges_.size() + histograms_.size();
    }

    /**
     * Render every metric as an aligned two-column table in
     * registration order, e.g.
     *
     *     kernel.executed [main]             123456
     *     aoe.rtt_ns p50                     84000
     *
     * Histograms expand to count/mean/p50/p90/p99/max rows.
     */
    void printTable(std::ostream &os) const;

    /** JSON snapshot of every metric (machine-readable sibling of
     *  printTable). */
    void writeJson(std::ostream &os) const;

  private:
    struct Key
    {
        std::string name;
        std::string label;

        bool
        operator<(const Key &o) const
        {
            if (name != o.name)
                return name < o.name;
            return label < o.label;
        }
    };

    template <typename T>
    struct Entry
    {
        T metric;
        std::uint64_t seq = 0; //!< registration order for printing
    };

    template <typename T>
    T &findOrCreate(std::map<Key, Entry<T>> &m,
                    const std::string &name,
                    const std::string &label);

    std::map<Key, Entry<Counter>> counters_;
    std::map<Key, Entry<Gauge>> gauges_;
    std::map<Key, Entry<Histogram>> histograms_;
    std::uint64_t nextSeq_ = 0;
};

} // namespace obs

#endif // OBS_REGISTRY_HH
