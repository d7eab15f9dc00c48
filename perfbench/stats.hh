/**
 * @file
 * Order statistics, a metric fingerprint and a minimal JSON writer
 * for the cloud benchmark.
 */

#ifndef PERFBENCH_STATS_HH
#define PERFBENCH_STATS_HH

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/** Median (mean of the two middle values for even counts); 0 when
 *  empty. */
inline double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** A tail value with the percentile it sits at and the sample count. */
struct Tail
{
    double value = 0.0;
    double percentile = 0.0;
    std::size_t count = 0;
};

/**
 * The highest percentile that still has at least ten samples beyond
 * it, by nearest rank: 99.9, 99.5, then whole percentiles down to 1.
 * With ten samples or fewer no percentile qualifies; the maximum is
 * returned and labelled 100.
 */
inline Tail
tail(std::vector<double> v)
{
    Tail t;
    t.count = v.size();
    if (v.empty())
        return t;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    std::vector<double> ladder = {99.9, 99.5};
    for (int p = 99; p >= 1; --p)
        ladder.push_back(p);
    for (double p : ladder) {
        auto rank = static_cast<std::size_t>(
            std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9));
        if (rank >= 1 && n - rank >= 10) {
            t.value = v[rank - 1];
            t.percentile = p;
            return t;
        }
    }
    t.value = v.back();
    t.percentile = 100.0;
    return t;
}

/** Fold @p len bytes at @p p into the FNV-1a hash @p h. */
inline std::uint64_t
fnv1a(std::uint64_t h, const void *p, std::size_t len)
{
    const auto *b = static_cast<const unsigned char *>(p);
    for (std::size_t i = 0; i < len; ++i) {
        h ^= b[i];
        h *= 0x100000001b3ULL;
    }
    return h;
}

constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

/** FNV-1a over the names and exact bit patterns of @p m. */
inline std::uint64_t
fingerprint(const std::map<std::string, double> &m)
{
    std::uint64_t h = kFnvBasis;
    for (const auto &[k, v] : m) {
        h = fnv1a(h, k.data(), k.size());
        h = fnv1a(h, &v, sizeof v);
    }
    return h;
}

/** A number in JSON with every significant digit. */
inline std::string
jnum(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

/** A JSON string literal (the benchmark's strings need no escapes
 *  beyond quotes and backslashes). */
inline std::string
jstr(const std::string &s)
{
    std::string o = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            o += '\\';
        o += c;
    }
    return o + "\"";
}

} // namespace perfbench

#endif // PERFBENCH_STATS_HH
